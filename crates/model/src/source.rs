//! Streaming packet sources: time-binned chunked ingest.
//!
//! The MAWILab service labels 15-minute traces from a multi-year
//! archive; materialising a whole multi-GB archive day as one
//! `Vec<Packet>` does not scale. A [`PacketSource`] instead yields the
//! trace as a sequence of time-binned [`PacketChunk`]s, so the peak
//! number of packets alive at any moment is bounded by one chunk.
//!
//! The trait *lends* each chunk (`next_chunk` returns `&PacketChunk`
//! borrowed from the source): the borrow ends before the next chunk
//! can be requested, so a consumer cannot accidentally accumulate the
//! whole trace — constant packet memory is enforced by the API shape,
//! not by convention. Sources reuse one internal buffer between
//! chunks.
//!
//! Chunk boundaries are aligned to the trace's nominal capture window
//! (`meta.window().start_us`) at a configurable bin width. The
//! default, [`DEFAULT_CHUNK_US`], matches the coarsest detector
//! analysis bin (the KL detector's 5-second histogram bin), so every
//! detector time bin is covered by whole chunks.
//!
//! Packets must arrive in non-decreasing timestamp order (MAWI pcap
//! files and the synth generator both guarantee this). Packets
//! stamped *before* the nominal window are folded into the first
//! chunk; packets after the nominal end simply extend the chunk
//! sequence — binning never drops traffic.

use crate::packet::Packet;
use crate::pcap::PcapError;
use crate::trace::{TimeWindow, Trace, TraceMeta};
use std::fmt;

/// Default chunk width: 5 s, the detectors' coarsest analysis bin.
pub const DEFAULT_CHUNK_US: u64 = 5_000_000;

/// One time bin's worth of packets.
#[derive(Debug, Clone)]
pub struct PacketChunk {
    /// The time bin this chunk covers, `[start, end)` µs. Packets
    /// stamped before the trace's nominal window are folded into the
    /// first chunk, so `window` is nominal, not a bounding box.
    pub window: TimeWindow,
    /// The packets of the bin, in arrival order.
    pub packets: Vec<Packet>,
}

impl Default for PacketChunk {
    fn default() -> Self {
        PacketChunk {
            window: TimeWindow::new(0, 0),
            packets: Vec::new(),
        }
    }
}

impl PacketChunk {
    /// Number of packets in the chunk.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the chunk holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Errors produced while draining a packet source.
#[derive(Debug)]
pub enum SourceError {
    /// The underlying pcap stream failed.
    Pcap(PcapError),
    /// The source cannot rewind (a live capture, or a sealed source).
    RewindUnsupported(&'static str),
    /// A zero chunk width was requested — time bins must be positive.
    InvalidChunkWidth(u64),
    /// A rule-mining support threshold outside `(0, 1]` was requested.
    InvalidMinSupport(f64),
    /// A Louvain resolution that is not positive was requested.
    InvalidResolution(f64),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Pcap(e) => write!(f, "packet source error: {e}"),
            SourceError::RewindUnsupported(what) => {
                write!(f, "source `{what}` does not support rewinding")
            }
            SourceError::InvalidChunkWidth(w) => {
                write!(f, "chunk bin width must be positive, got {w}")
            }
            SourceError::InvalidMinSupport(s) => {
                write!(f, "rule support threshold must be in (0, 1], got {s}")
            }
            SourceError::InvalidResolution(r) => {
                write!(f, "Louvain resolution must be positive, got {r}")
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<PcapError> for SourceError {
    fn from(e: PcapError) -> Self {
        SourceError::Pcap(e)
    }
}

/// A time-binned stream of packets.
///
/// The labeling pipeline drains a source once. [`rewind`] restarts
/// the stream for callers that replay it (benchmarks, repeated runs
/// over one in-memory day); a live source returns
/// [`SourceError::RewindUnsupported`].
///
/// [`rewind`]: PacketSource::rewind
pub trait PacketSource {
    /// Metadata of the trace being streamed.
    fn meta(&self) -> &TraceMeta;

    /// Bin width of the emitted chunks, microseconds.
    fn bin_us(&self) -> u64;

    /// Lends the next chunk, or `None` at end of stream. The chunk
    /// borrow ends when the source is next touched; sources reuse the
    /// buffer, so callers must copy anything they need to keep.
    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError>;

    /// Restarts the stream from the beginning for another pass.
    fn rewind(&mut self) -> Result<(), SourceError>;
}

/// A borrowed source streams as the source itself, so a wrapper such
/// as [`NoRewindSource`] can seal a source the caller keeps: after the
/// drain, a [`TraceChunker`] still lends its trace.
impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn bin_us(&self) -> u64 {
        (**self).bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        (**self).next_chunk()
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        (**self).rewind()
    }
}

/// A [`PacketSource`] wrapper that refuses to rewind — the live-link
/// contract made checkable. Wrapping a source in `NoRewindSource`
/// proves a consumer is genuinely single-pass: any rewind attempt
/// returns [`SourceError::RewindUnsupported`] (and is counted), so a
/// pipeline that completes through this wrapper demonstrably drained
/// the stream exactly once.
pub struct NoRewindSource<S> {
    inner: S,
    rewinds_refused: usize,
}

impl<S: PacketSource> NoRewindSource<S> {
    /// Seals `inner` against rewinding.
    pub fn new(inner: S) -> Self {
        NoRewindSource {
            inner,
            rewinds_refused: 0,
        }
    }

    /// How many rewind attempts were refused (0 for a true
    /// single-pass consumer).
    pub fn rewinds_refused(&self) -> usize {
        self.rewinds_refused
    }
}

impl<S: PacketSource> PacketSource for NoRewindSource<S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        self.inner.next_chunk()
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.rewinds_refused += 1;
        Err(SourceError::RewindUnsupported("NoRewindSource"))
    }
}

/// Index of the chunk bin a timestamp falls into, relative to the
/// nominal window start (pre-window timestamps fold into bin 0).
pub fn chunk_index(window_start_us: u64, bin_us: u64, ts_us: u64) -> u64 {
    ts_us.saturating_sub(window_start_us) / bin_us.max(1)
}

/// Nominal window of chunk bin `k`.
pub fn chunk_window(window_start_us: u64, bin_us: u64, k: u64) -> TimeWindow {
    let start = window_start_us + k * bin_us;
    TimeWindow::new(start, start + bin_us)
}

/// Drains a source from its current position, concatenating every
/// remaining chunk into one packet vector. The equivalence oracle of
/// the streaming test suites: `collect_packets(source)` must equal the
/// batch-materialised trace for any chunk width.
pub fn collect_packets<S: PacketSource + ?Sized>(
    source: &mut S,
) -> Result<Vec<Packet>, SourceError> {
    let mut out = Vec::new();
    while let Some(chunk) = source.next_chunk()? {
        out.extend_from_slice(&chunk.packets);
    }
    Ok(out)
}

/// [`PacketSource`] over an in-memory [`Trace`].
///
/// This is the adapter that lets batch-held traces (tests, the synth
/// generator, benches) flow through the streaming pipeline without
/// temp files. The source owns the trace, but consumers still only
/// ever see one chunk at a time.
#[derive(Debug, Clone)]
pub struct TraceChunker {
    trace: Trace,
    bin_us: u64,
    pos: usize,
    buf: PacketChunk,
}

impl TraceChunker {
    /// Chunks a trace at `bin_us`-wide time bins. Panics on a zero
    /// width; config-driven callers should prefer [`Self::try_new`].
    pub fn new(trace: Trace, bin_us: u64) -> Self {
        Self::try_new(trace, bin_us).expect("chunk bin width must be positive") // lint:allow(panic-free-data-plane): callers pass compile-time constant widths; try_new is the config-driven path
    }

    /// Chunks a trace at `bin_us`-wide time bins, rejecting a zero
    /// width with a typed error instead of a panic.
    pub fn try_new(trace: Trace, bin_us: u64) -> Result<Self, SourceError> {
        if bin_us == 0 {
            return Err(SourceError::InvalidChunkWidth(bin_us));
        }
        Ok(TraceChunker {
            trace,
            bin_us,
            pos: 0,
            buf: PacketChunk::default(),
        })
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl PacketSource for TraceChunker {
    fn meta(&self) -> &TraceMeta {
        &self.trace.meta
    }

    fn bin_us(&self) -> u64 {
        self.bin_us
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        let packets = &self.trace.packets;
        if self.pos >= packets.len() {
            return Ok(None);
        }
        let start_us = self.trace.meta.window().start_us;
        let k = chunk_index(start_us, self.bin_us, packets[self.pos].ts_us);
        let begin = self.pos;
        let mut end = self.pos;
        while end < packets.len() && chunk_index(start_us, self.bin_us, packets[end].ts_us) <= k {
            end += 1;
        }
        self.pos = end;
        self.buf.window = chunk_window(start_us, self.bin_us, k);
        self.buf.packets.clear();
        self.buf.packets.extend_from_slice(&packets[begin..end]);
        Ok(Some(&self.buf))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.pos = 0;
        self.buf = PacketChunk::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::trace::TraceDate;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    fn trace_with_offsets(offsets_us: &[u64]) -> Trace {
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        let base = meta.window().start_us;
        let packets: Vec<Packet> = offsets_us
            .iter()
            .map(|&o| Packet::udp(base + o, ip(1), 1, ip(2), 2, 100))
            .collect();
        Trace::new(meta, packets)
    }

    #[test]
    fn zero_chunk_width_is_a_typed_error() {
        let trace = trace_with_offsets(&[0]);
        assert!(matches!(
            TraceChunker::try_new(trace, 0),
            Err(SourceError::InvalidChunkWidth(0))
        ));
    }

    #[test]
    fn chunks_partition_the_trace_in_order() {
        let trace = trace_with_offsets(&[0, 1, 2_000_000, 2_500_000, 9_000_000]);
        let total = trace.len();
        let mut src = TraceChunker::new(trace, 1_000_000);
        let mut seen = 0usize;
        let mut last_window_start = 0;
        while let Some(chunk) = src.next_chunk().unwrap() {
            assert!(!chunk.is_empty(), "empty chunk emitted");
            assert!(chunk.window.start_us >= last_window_start);
            last_window_start = chunk.window.start_us;
            for p in &chunk.packets {
                assert!(chunk.window.contains(p.ts_us));
            }
            seen += chunk.len();
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn empty_bins_are_skipped_not_emitted() {
        let trace = trace_with_offsets(&[0, 9_000_000]);
        let mut src = TraceChunker::new(trace, 1_000_000);
        let mut chunks = 0;
        while let Some(c) = src.next_chunk().unwrap() {
            assert_eq!(c.len(), 1);
            chunks += 1;
        }
        assert_eq!(chunks, 2);
    }

    #[test]
    fn rewind_replays_identically() {
        let trace = trace_with_offsets(&[0, 1, 5_500_000, 7_000_000]);
        let mut src = TraceChunker::new(trace, 2_000_000);
        let mut first: Vec<(TimeWindow, usize)> = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            first.push((c.window, c.len()));
        }
        src.rewind().unwrap();
        let mut second: Vec<(TimeWindow, usize)> = Vec::new();
        while let Some(c) = src.next_chunk().unwrap() {
            second.push((c.window, c.len()));
        }
        assert_eq!(first, second);
    }

    #[test]
    fn pre_window_packets_fold_into_first_chunk() {
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        let base = meta.window().start_us;
        let packets = vec![
            Packet::udp(base - 10, ip(1), 1, ip(2), 2, 100), // clock skew
            Packet::udp(base + 5, ip(1), 1, ip(2), 2, 100),
        ];
        let trace = Trace::new(meta, packets);
        let mut src = TraceChunker::new(trace, 1_000_000);
        let c = src.next_chunk().unwrap().unwrap();
        assert_eq!(c.len(), 2);
        assert!(src.next_chunk().unwrap().is_none());
    }

    #[test]
    fn chunk_index_and_window_agree() {
        for ts in [0u64, 1, 999_999, 1_000_000, 5_432_109] {
            let k = chunk_index(0, 1_000_000, ts);
            assert!(chunk_window(0, 1_000_000, k).contains(ts));
        }
        // Pre-window folds to bin 0.
        assert_eq!(chunk_index(1_000, 500, 10), 0);
    }

    #[test]
    fn collect_packets_reassembles_the_trace() {
        let trace = trace_with_offsets(&[0, 1, 2_000_000, 2_500_000, 9_000_000]);
        let want = trace.packets.clone();
        let mut src = TraceChunker::new(trace, 1_000_000);
        assert_eq!(collect_packets(&mut src).unwrap(), want);
        // Drained source yields nothing more; after rewind, everything.
        assert!(collect_packets(&mut src).unwrap().is_empty());
        src.rewind().unwrap();
        assert_eq!(collect_packets(&mut src).unwrap(), want);
    }

    #[test]
    fn empty_trace_yields_no_chunks() {
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        let mut src = TraceChunker::new(Trace::new(meta, vec![]), DEFAULT_CHUNK_US);
        assert!(src.next_chunk().unwrap().is_none());
    }

    #[test]
    fn no_rewind_source_streams_once_then_refuses_replay() {
        let trace = trace_with_offsets(&[0, 1, 2_000_000]);
        let want = trace.packets.clone();
        let mut inner = TraceChunker::new(trace, 1_000_000);
        let mut src = NoRewindSource::new(&mut inner);
        assert_eq!(collect_packets(&mut src).unwrap(), want);
        assert_eq!(src.rewinds_refused(), 0);
        assert!(matches!(
            src.rewind(),
            Err(SourceError::RewindUnsupported("NoRewindSource"))
        ));
        assert!(matches!(
            src.rewind(),
            Err(SourceError::RewindUnsupported("NoRewindSource"))
        ));
        assert_eq!(src.rewinds_refused(), 2);
        // The refusal leaves the stream itself untouched: still
        // drained, and the borrowed source rewinds once unsealed.
        assert!(src.next_chunk().unwrap().is_none());
        inner.rewind().unwrap();
        assert_eq!(collect_packets(&mut inner).unwrap(), want);
    }
}
