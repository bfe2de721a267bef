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

use crate::flow::{Granularity, ItemIndex};
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
    /// A zero horizon window width was requested — label windows must
    /// be positive.
    InvalidHorizonWidth(u64),
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
            SourceError::InvalidHorizonWidth(w) => {
                write!(f, "horizon window width must be positive, got {w}")
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

/// A [`PacketSource`] that can also hand out per-packet ground-truth
/// tags alongside each chunk.
///
/// `next_chunk_tagged` returns the chunk and its tags under one
/// borrow, because both live in the source's reused buffers — separate
/// `next_chunk()` + `tags()` calls could not be expressed without the
/// chunk borrow conflicting with a second `&self` method. Sources
/// without ground truth can return an empty tag slice.
pub trait TaggedSource: PacketSource {
    /// Lends the next chunk together with its per-packet tags
    /// (`tags[i]` belongs to `chunk.packets[i]`; `None` = background).
    fn next_chunk_tagged(&mut self) -> Result<Option<TaggedChunk<'_>>, SourceError>;
}

/// One lent chunk of a [`TaggedSource`] with its aligned tag slice.
pub type TaggedChunk<'a> = (&'a PacketChunk, &'a [Option<u32>]);

/// Receives every chunk (and its ground-truth tags) as it streams
/// past a [`TapSource`] — the single-pass replacement for the
/// harness's ground-truth pre-pass: truth is observed *during* the
/// one pipeline drain instead of on a drain of its own.
pub trait ChunkConsumer {
    /// Observes one chunk in stream order. `tags` aligns with
    /// `chunk.packets` when the source carries ground truth, and is
    /// empty otherwise.
    fn observe_chunk(&mut self, chunk: &PacketChunk, tags: &[Option<u32>]);
}

impl<C: ChunkConsumer + ?Sized> ChunkConsumer for &mut C {
    fn observe_chunk(&mut self, chunk: &PacketChunk, tags: &[Option<u32>]) {
        (**self).observe_chunk(chunk, tags);
    }
}

/// A [`PacketSource`] adapter that feeds every chunk of a
/// [`TaggedSource`] to a [`ChunkConsumer`] on its way to the draining
/// pipeline. This is what lets `run_days_streaming` collect ground
/// truth and the packet→unit map in the *same* drain the pipeline
/// consumes — no pre-pass, no rewind.
///
/// Rewinding is refused: a replay would feed every chunk to the
/// consumer a second time and silently double-collect.
pub struct TapSource<S, C> {
    inner: S,
    consumer: C,
}

impl<S: TaggedSource, C: ChunkConsumer> TapSource<S, C> {
    /// Taps `inner`, sending each chunk to `consumer` as it passes.
    pub fn new(inner: S, consumer: C) -> Self {
        TapSource { inner, consumer }
    }

    /// Recovers the wrapped source and consumer.
    pub fn into_parts(self) -> (S, C) {
        (self.inner, self.consumer)
    }
}

impl<S: TaggedSource, C: ChunkConsumer> PacketSource for TapSource<S, C> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn bin_us(&self) -> u64 {
        self.inner.bin_us()
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        match self.inner.next_chunk_tagged()? {
            Some((chunk, tags)) => {
                self.consumer.observe_chunk(chunk, tags);
                Ok(Some(chunk))
            }
            None => Ok(None),
        }
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        Err(SourceError::RewindUnsupported("TapSource"))
    }
}

/// The [`ChunkConsumer`] that replaces the harness's ground-truth
/// pre-pass: collects per-packet anomaly tags and traffic-unit ids
/// (via an incremental [`ItemIndex`] driven in stream order, so the
/// ids are exactly the ones the draining pipeline assigns) while the
/// pipeline consumes the same chunks.
pub struct StreamTruthCollector {
    index: ItemIndex,
    ids_buf: Vec<u32>,
    item_ids: Vec<u32>,
    tags: Vec<Option<u32>>,
}

impl StreamTruthCollector {
    /// An empty collector assigning ids at `granularity`.
    pub fn new(granularity: Granularity) -> Self {
        StreamTruthCollector {
            index: ItemIndex::new(granularity),
            ids_buf: Vec::new(),
            item_ids: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Traffic-unit id of every packet seen so far, in stream order.
    pub fn item_ids(&self) -> &[u32] {
        &self.item_ids
    }

    /// Ground-truth tag of every packet seen so far, in stream order.
    pub fn tags(&self) -> &[Option<u32>] {
        &self.tags
    }

    /// Recovers `(item_ids, tags)` once the drain is over.
    pub fn into_parts(self) -> (Vec<u32>, Vec<Option<u32>>) {
        (self.item_ids, self.tags)
    }
}

impl ChunkConsumer for StreamTruthCollector {
    fn observe_chunk(&mut self, chunk: &PacketChunk, tags: &[Option<u32>]) {
        assert!(
            tags.len() == chunk.len() || tags.is_empty(),
            "tag slice must align with the chunk or be absent"
        );
        self.index.ids_of(&chunk.packets, &mut self.ids_buf);
        self.item_ids.extend_from_slice(&self.ids_buf);
        if tags.is_empty() {
            self.tags.resize(self.tags.len() + chunk.len(), None);
        } else {
            self.tags.extend_from_slice(tags);
        }
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

    /// Recovers the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
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

    /// A [`TaggedSource`] over a chunker that tags every odd-index
    /// packet of the whole stream with its running index.
    struct OddTagged {
        inner: TraceChunker,
        emitted: usize,
        tags: Vec<Option<u32>>,
    }

    impl PacketSource for OddTagged {
        fn meta(&self) -> &TraceMeta {
            self.inner.meta()
        }

        fn bin_us(&self) -> u64 {
            self.inner.bin_us()
        }

        fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
            match self.inner.next_chunk()? {
                Some(chunk) => {
                    self.tags.clear();
                    for i in 0..chunk.len() {
                        let n = self.emitted + i;
                        self.tags.push((n % 2 == 1).then_some(n as u32));
                    }
                    self.emitted += chunk.len();
                    Ok(Some(chunk))
                }
                None => Ok(None),
            }
        }

        fn rewind(&mut self) -> Result<(), SourceError> {
            self.emitted = 0;
            self.tags.clear();
            self.inner.rewind()
        }
    }

    impl TaggedSource for OddTagged {
        fn next_chunk_tagged(&mut self) -> Result<Option<TaggedChunk<'_>>, SourceError> {
            if self.next_chunk()?.is_none() {
                return Ok(None);
            }
            Ok(Some((&self.inner.buf, &self.tags)))
        }
    }

    /// Accumulates everything a tap hands it.
    #[derive(Default)]
    struct Collector {
        packets: Vec<Packet>,
        tags: Vec<Option<u32>>,
        chunks: usize,
    }

    impl ChunkConsumer for Collector {
        fn observe_chunk(&mut self, chunk: &PacketChunk, tags: &[Option<u32>]) {
            self.packets.extend_from_slice(&chunk.packets);
            self.tags.extend_from_slice(tags);
            self.chunks += 1;
        }
    }

    #[test]
    fn tap_source_feeds_consumer_every_chunk_in_one_drain() {
        let trace = trace_with_offsets(&[0, 1, 2_000_000, 2_500_000, 9_000_000]);
        let want = trace.packets.clone();
        let tagged = OddTagged {
            inner: TraceChunker::new(trace, 1_000_000),
            emitted: 0,
            tags: Vec::new(),
        };
        let mut collector = Collector::default();
        let mut tap = TapSource::new(tagged, &mut collector);
        let drained = collect_packets(&mut tap).unwrap();
        assert!(matches!(
            tap.rewind(),
            Err(SourceError::RewindUnsupported("TapSource"))
        ));
        drop(tap);
        assert_eq!(drained, want, "tap must be transparent to the drain");
        assert_eq!(collector.packets, want, "consumer saw a different stream");
        assert_eq!(collector.chunks, 3);
        assert_eq!(
            collector.tags,
            vec![None, Some(1), None, Some(3), None],
            "tags must ride along per packet"
        );
    }

    #[test]
    fn no_rewind_source_streams_once_then_refuses_replay() {
        let trace = trace_with_offsets(&[0, 1, 2_000_000]);
        let want = trace.packets.clone();
        let mut src = NoRewindSource::new(TraceChunker::new(trace, 1_000_000));
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
        // drained, recoverable.
        assert!(src.next_chunk().unwrap().is_none());
        let mut inner = src.into_inner();
        inner.rewind().unwrap();
        assert_eq!(collect_packets(&mut inner).unwrap(), want);
    }
}
