//! Classic libpcap (`.pcap`) serialisation, from scratch.
//!
//! The MAWI archive distributes payload-stripped pcap files. To stay
//! interoperable with standard tooling (tcpdump/Wireshark) without an
//! external pcap crate, this module implements the classic format
//! directly: 24-byte global header (magic `0xa1b2c3d4`, microsecond
//! timestamps, link type Ethernet) and 16-byte per-record headers.
//! Packets are wrapped in synthesised Ethernet + IPv4 + TCP/UDP/ICMP
//! headers on write, and parsed back into [`Packet`] records on read
//! (unknown transports are preserved as [`Protocol::Other`]).
//!
//! The reader accepts both byte orders (files written on opposite-
//! endian machines flip the magic) and skips over truncated or
//! non-IPv4 records rather than failing the whole file, mirroring how
//! real capture tooling behaves on damaged archives.

use crate::packet::{Packet, Protocol, TcpFlags};
use crate::source::{chunk_index, chunk_window, PacketChunk, PacketSource, SourceError};
use crate::trace::{Trace, TraceMeta};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_US_SWAPPED: u32 = 0xd4c3_b2a1;
const LINKTYPE_ETHERNET: u32 = 1;
const ETH_HDR: usize = 14;
const IPV4_HDR: usize = 20;
const GLOBAL_HDR_LEN: u64 = 24;

/// Largest captured record the reader will materialise. MAWI traces
/// are payload-stripped, so real records are tiny; a length beyond
/// this is a corrupt header, and honouring it would turn one flipped
/// bit into a multi-GB allocation. Oversized records are skipped (and
/// counted) instead.
pub const MAX_RECORD_BYTES: usize = 256 * 1024;

/// Errors produced by the pcap reader.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// File does not start with a known pcap magic number.
    BadMagic(u32),
    /// File uses a link type other than Ethernet.
    UnsupportedLinkType(u32),
    /// A zero chunk width was requested for streaming reads.
    InvalidChunkWidth(u64),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedLinkType(t) => write!(f, "unsupported pcap link type {t}"),
            PcapError::InvalidChunkWidth(w) => {
                write!(f, "chunk bin width must be positive, got {w}")
            }
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Writes a trace as a classic pcap file.
///
/// Each packet is framed as Ethernet/IPv4/L4 with correct lengths; the
/// record's `orig_len` carries the packet's true wire length so that
/// byte counts survive the round trip even though payload bytes are
/// not materialised (MAWI traces are payload-stripped anyway).
pub fn write_pcap<W: Write>(mut w: W, trace: &Trace) -> io::Result<()> {
    let mut hdr = [0u8; 24];
    hdr[0..4].copy_from_slice(&MAGIC_US.to_le_bytes());
    hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
    hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
                                                    // thiszone, sigfigs = 0
    hdr[16..20].copy_from_slice(&65_535u32.to_le_bytes()); // snaplen
    hdr[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    w.write_all(&hdr)?;

    let mut frame = Vec::with_capacity(ETH_HDR + IPV4_HDR + 20);
    for p in &trace.packets {
        frame.clear();
        encode_frame(p, &mut frame);
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&((p.ts_us / 1_000_000) as u32).to_le_bytes());
        rec[4..8].copy_from_slice(&((p.ts_us % 1_000_000) as u32).to_le_bytes());
        rec[8..12].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        let orig = (p.len as usize + ETH_HDR).max(frame.len()) as u32;
        rec[12..16].copy_from_slice(&orig.to_le_bytes());
        w.write_all(&rec)?;
        w.write_all(&frame)?;
    }
    Ok(())
}

fn encode_frame(p: &Packet, out: &mut Vec<u8>) {
    // Ethernet II: zeroed MACs, EtherType IPv4.
    out.extend_from_slice(&[0u8; 12]);
    out.extend_from_slice(&0x0800u16.to_be_bytes());

    let l4 = match p.proto {
        Protocol::Tcp => 20,
        Protocol::Udp => 8,
        Protocol::Icmp => 8,
        Protocol::Other(_) => 0,
    };
    let total_len = (IPV4_HDR + l4) as u16;

    // IPv4 header.
    let ip_start = out.len();
    out.push(0x45); // version 4, IHL 5
    out.push(0); // DSCP/ECN
    out.extend_from_slice(&total_len.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0x40, 0]); // id, flags: DF
    out.push(64); // TTL
    out.push(p.proto.number());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&p.src.octets());
    out.extend_from_slice(&p.dst.octets());
    let csum = ipv4_checksum(&out[ip_start..ip_start + IPV4_HDR]);
    out[ip_start + 10..ip_start + 12].copy_from_slice(&csum.to_be_bytes());

    match p.proto {
        Protocol::Tcp => {
            out.extend_from_slice(&p.sport.to_be_bytes());
            out.extend_from_slice(&p.dport.to_be_bytes());
            out.extend_from_slice(&[0u8; 8]); // seq, ack
            out.push(0x50); // data offset 5
            out.push(p.flags.0);
            out.extend_from_slice(&[0xff, 0xff]); // window
            out.extend_from_slice(&[0, 0, 0, 0]); // checksum, urgent
        }
        Protocol::Udp => {
            out.extend_from_slice(&p.sport.to_be_bytes());
            out.extend_from_slice(&p.dport.to_be_bytes());
            out.extend_from_slice(&8u16.to_be_bytes()); // length
            out.extend_from_slice(&[0, 0]); // checksum
        }
        Protocol::Icmp => {
            out.push(p.sport as u8); // type
            out.push(p.dport as u8); // code
            out.extend_from_slice(&[0u8; 6]); // checksum + rest
        }
        Protocol::Other(_) => {}
    }
}

fn ipv4_checksum(hdr: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in hdr.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Reads a classic pcap file back into packets.
///
/// `meta` supplies the trace metadata (the pcap format does not carry
/// it). Records that are truncated, non-Ethernet-II/IPv4, or otherwise
/// unparsable are skipped; the count of skipped records is returned
/// alongside the trace.
pub fn read_pcap<R: Read>(mut r: R, meta: TraceMeta) -> Result<(Trace, usize), PcapError> {
    let swapped = read_global_header(&mut r)?;
    let mut packets = Vec::new();
    let mut skipped = 0usize;
    let mut frame = Vec::new();
    loop {
        match read_record(&mut r, swapped, &mut frame)? {
            RecordRead::Packet(p) => packets.push(p),
            RecordRead::Skipped => skipped += 1,
            RecordRead::Truncated => {
                skipped += 1;
                break;
            }
            RecordRead::Eof => break,
        }
    }
    Ok((Trace::new(meta, packets), skipped))
}

/// Parses the 24-byte global header; returns whether the file's byte
/// order is swapped relative to the host's little-endian view.
fn read_global_header<R: Read>(r: &mut R) -> Result<bool, PcapError> {
    let mut hdr = [0u8; 24];
    r.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let swapped = match magic {
        MAGIC_US => false,
        MAGIC_US_SWAPPED => true,
        other => return Err(PcapError::BadMagic(other)),
    };
    let linktype = read_u32(swapped, &hdr[20..24]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::UnsupportedLinkType(linktype));
    }
    Ok(swapped)
}

fn read_u32(swapped: bool, b: &[u8]) -> u32 {
    let arr = [b[0], b[1], b[2], b[3]];
    if swapped {
        u32::from_be_bytes(arr)
    } else {
        u32::from_le_bytes(arr)
    }
}

/// Outcome of reading one pcap record.
enum RecordRead {
    /// A parsed IPv4 packet.
    Packet(Packet),
    /// A record that was present but unusable (non-IPv4, truncated
    /// headers, or an oversized `incl_len`).
    Skipped,
    /// The stream ended inside a record header or frame: a truncated
    /// archive tail. The partial record is unusable but everything
    /// before it is good — degrade to a counted skip at end of
    /// stream, the way capture tooling treats a cut-off file.
    Truncated,
    /// Clean end of stream (EOF at a record-header boundary).
    Eof,
}

/// Reads up to `buf.len()` bytes, looping over short reads; returns
/// how many bytes arrived before EOF.
fn read_fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Reads one record. `frame` is a reusable scratch buffer. A record
/// whose `incl_len` exceeds [`MAX_RECORD_BYTES`] is discarded without
/// being materialised — a corrupt length field must not drive a
/// multi-GB allocation. A stream that ends mid-header or mid-frame
/// yields [`RecordRead::Truncated`], never an error: one cut-off
/// archive day must degrade, not take down a labeling sweep.
fn read_record<R: Read>(
    r: &mut R,
    swapped: bool,
    frame: &mut Vec<u8>,
) -> Result<RecordRead, PcapError> {
    let mut rec = [0u8; 16];
    match read_fill(r, &mut rec)? {
        0 => return Ok(RecordRead::Eof),
        16 => {}
        _ => return Ok(RecordRead::Truncated),
    }
    let ts_sec = read_u32(swapped, &rec[0..4]) as u64;
    let ts_usec = read_u32(swapped, &rec[4..8]) as u64;
    let incl_len = read_u32(swapped, &rec[8..12]) as usize;
    let orig_len = read_u32(swapped, &rec[12..16]) as usize;
    if incl_len > MAX_RECORD_BYTES {
        // Discard without allocating. If the stream ends mid-discard
        // the record was truncated garbage anyway; the next header
        // read reports EOF.
        io::copy(&mut r.by_ref().take(incl_len as u64), &mut io::sink())?;
        return Ok(RecordRead::Skipped);
    }
    frame.resize(incl_len, 0);
    if read_fill(r, frame)? < incl_len {
        return Ok(RecordRead::Truncated);
    }
    Ok(
        match decode_frame(frame, ts_sec * 1_000_000 + ts_usec, orig_len) {
            Some(p) => RecordRead::Packet(p),
            None => RecordRead::Skipped,
        },
    )
}

/// Streaming pcap reader: a [`PacketSource`] that yields time-binned
/// [`PacketChunk`]s without ever materialising the whole trace.
///
/// Records must be in non-decreasing timestamp order (MAWI archive
/// files are). A packet stamped earlier than the current bin — minor
/// capture-clock jitter — is folded into the current chunk rather
/// than reordered. Damaged records are skipped and counted exactly as
/// in [`read_pcap`]; peak packet memory is one chunk plus one
/// look-ahead packet.
pub struct StreamingPcapReader<R: Read + Seek> {
    r: R,
    meta: TraceMeta,
    swapped: bool,
    bin_us: u64,
    buf: PacketChunk,
    frame: Vec<u8>,
    pending: Option<Packet>,
    skipped: usize,
    packets: u64,
    truncated: bool,
    done: bool,
}

impl<R: Read + Seek> StreamingPcapReader<R> {
    /// Opens a pcap stream, validating the global header. `meta`
    /// supplies the archive metadata (the format does not carry it),
    /// `bin_us` the chunk width. A zero `bin_us` is a typed
    /// [`PcapError::InvalidChunkWidth`], not a panic.
    pub fn new(mut r: R, meta: TraceMeta, bin_us: u64) -> Result<Self, PcapError> {
        if bin_us == 0 {
            return Err(PcapError::InvalidChunkWidth(bin_us));
        }
        let swapped = read_global_header(&mut r)?;
        Ok(StreamingPcapReader {
            r,
            meta,
            swapped,
            bin_us,
            buf: PacketChunk::default(),
            frame: Vec::new(),
            pending: None,
            skipped: 0,
            packets: 0,
            truncated: false,
            done: false,
        })
    }

    /// Records skipped so far (damaged, non-IPv4, oversized, or the
    /// truncated tail record).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Packets yielded so far.
    pub fn packets_read(&self) -> u64 {
        self.packets
    }

    /// True when the stream ended inside a record — a cut-off archive
    /// tail that was degraded to end-of-stream rather than an error.
    pub fn truncated_tail(&self) -> bool {
        self.truncated
    }

    /// Reads records until a parsable packet, EOF, or an error.
    fn read_packet(&mut self) -> Result<Option<Packet>, PcapError> {
        loop {
            match read_record(&mut self.r, self.swapped, &mut self.frame)? {
                RecordRead::Packet(p) => return Ok(Some(p)),
                RecordRead::Skipped => self.skipped += 1,
                RecordRead::Truncated => {
                    self.skipped += 1;
                    self.truncated = true;
                    return Ok(None);
                }
                RecordRead::Eof => return Ok(None),
            }
        }
    }
}

impl<R: Read + Seek> PacketSource for StreamingPcapReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn bin_us(&self) -> u64 {
        self.bin_us
    }

    fn next_chunk(&mut self) -> Result<Option<&PacketChunk>, SourceError> {
        if self.done {
            return Ok(None);
        }
        let first = match self.pending.take() {
            Some(p) => p,
            None => match self.read_packet()? {
                Some(p) => p,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            },
        };
        let start_us = self.meta.window().start_us;
        let k = chunk_index(start_us, self.bin_us, first.ts_us);
        self.buf.window = chunk_window(start_us, self.bin_us, k);
        self.buf.packets.clear();
        self.buf.packets.push(first);
        loop {
            match self.read_packet()? {
                Some(p) => {
                    if chunk_index(start_us, self.bin_us, p.ts_us) <= k {
                        self.buf.packets.push(p);
                    } else {
                        self.pending = Some(p);
                        break;
                    }
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        self.packets += self.buf.packets.len() as u64;
        Ok(Some(&self.buf))
    }

    fn rewind(&mut self) -> Result<(), SourceError> {
        self.r
            .seek(SeekFrom::Start(GLOBAL_HDR_LEN))
            .map_err(|e| SourceError::Pcap(PcapError::Io(e)))?;
        self.buf = PacketChunk::default();
        self.pending = None;
        self.skipped = 0;
        self.packets = 0;
        self.truncated = false;
        self.done = false;
        Ok(())
    }
}

fn decode_frame(frame: &[u8], ts_us: u64, orig_len: usize) -> Option<Packet> {
    if frame.len() < ETH_HDR + IPV4_HDR {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None;
    }
    let ip = &frame[ETH_HDR..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = ((ip[0] & 0x0f) as usize) * 4;
    if ihl < IPV4_HDR || ip.len() < ihl {
        return None;
    }
    let proto = Protocol::from_number(ip[9]);
    let src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    let l4 = &ip[ihl..];
    let (sport, dport, flags) = match proto {
        Protocol::Tcp if l4.len() >= 14 => (
            u16::from_be_bytes([l4[0], l4[1]]),
            u16::from_be_bytes([l4[2], l4[3]]),
            TcpFlags(l4[13]),
        ),
        Protocol::Udp if l4.len() >= 4 => (
            u16::from_be_bytes([l4[0], l4[1]]),
            u16::from_be_bytes([l4[2], l4[3]]),
            TcpFlags::empty(),
        ),
        Protocol::Icmp if l4.len() >= 2 => (l4[0] as u16, l4[1] as u16, TcpFlags::empty()),
        Protocol::Other(_) => (0, 0, TcpFlags::empty()),
        _ => return None, // declared transport but truncated header
    };
    let len = orig_len.saturating_sub(ETH_HDR).min(u16::MAX as usize) as u16;
    Some(Packet {
        ts_us,
        src,
        dst,
        sport,
        dport,
        len,
        proto,
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceDate;
    use std::io::Cursor;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, d)
    }

    fn sample_trace() -> Trace {
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        let base = meta.window().start_us;
        Trace::new(
            meta,
            vec![
                Packet::tcp(base, ip(1), 1234, ip(2), 80, TcpFlags::syn(), 60),
                Packet::udp(base + 1, ip(3), 53, ip(4), 9999, 512),
                Packet::icmp(base + 2, ip(5), ip(6), 8, 0, 84),
                Packet {
                    ts_us: base + 3,
                    src: ip(7),
                    dst: ip(8),
                    sport: 0,
                    dport: 0,
                    len: 40,
                    proto: Protocol::Other(47),
                    flags: TcpFlags::empty(),
                },
            ],
        )
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let (back, skipped) = read_pcap(Cursor::new(&buf), trace.meta.clone()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back.packets, trace.packets);
    }

    #[test]
    fn header_magic_and_linktype() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample_trace()).unwrap();
        assert_eq!(
            u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]),
            MAGIC_US
        );
        assert_eq!(
            u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn rejects_garbage_magic() {
        let garbage = vec![0u8; 24];
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        match read_pcap(Cursor::new(&garbage), meta) {
            Err(PcapError::BadMagic(0)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_ethernet_linktype() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample_trace()).unwrap();
        buf[20..24].copy_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        assert!(matches!(
            read_pcap(Cursor::new(&buf), meta),
            Err(PcapError::UnsupportedLinkType(101))
        ));
    }

    #[test]
    fn skips_damaged_records_keeps_good_ones() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        // Corrupt the EtherType of the first record (offset 24 global
        // header + 16 record header + 12 MACs).
        buf[24 + 16 + 12] = 0x86; // 0x86dd = IPv6
        buf[24 + 16 + 13] = 0xdd;
        let (back, skipped) = read_pcap(Cursor::new(&buf), trace.meta.clone()).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(back.packets.len(), trace.packets.len() - 1);
    }

    #[test]
    fn truncated_file_degrades_to_counted_skip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3); // cut mid-frame of the last record
        let meta = trace.meta.clone();
        let (back, skipped) = read_pcap(Cursor::new(&buf), meta).unwrap();
        assert_eq!(skipped, 1, "truncated tail must be counted");
        assert_eq!(back.packets, trace.packets[..trace.packets.len() - 1]);
    }

    #[test]
    fn zero_chunk_width_is_a_typed_error() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        assert!(matches!(
            StreamingPcapReader::new(Cursor::new(&buf), trace.meta.clone(), 0),
            Err(PcapError::InvalidChunkWidth(0))
        ));
    }

    #[test]
    fn ipv4_checksum_validates() {
        // Checksum over a header containing its own checksum = 0.
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let ip_hdr = &buf[24 + 16 + ETH_HDR..24 + 16 + ETH_HDR + IPV4_HDR];
        assert_eq!(ipv4_checksum(ip_hdr), 0);
    }

    #[test]
    fn orig_len_preserves_wire_length() {
        // A 512-byte UDP packet is framed much smaller, but the wire
        // length must round-trip via orig_len.
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let (back, _) = read_pcap(Cursor::new(&buf), trace.meta.clone()).unwrap();
        assert_eq!(back.packets[1].len, 512);
    }

    #[test]
    fn empty_trace_writes_header_only() {
        let meta = TraceMeta::standard(TraceDate::new(2004, 5, 3));
        let trace = Trace::new(meta.clone(), vec![]);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        assert_eq!(buf.len(), 24);
        let (back, skipped) = read_pcap(Cursor::new(&buf), meta).unwrap();
        assert!(back.is_empty());
        assert_eq!(skipped, 0);
    }
}
