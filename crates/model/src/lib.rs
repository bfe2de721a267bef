//! # mawilab-model
//!
//! Traffic-data substrate for the MAWILab reproduction: packet records,
//! unidirectional/bidirectional flow keys and tables, trace containers
//! with archive metadata, traffic feature rules (4-tuples with
//! wildcards), and a from-scratch classic libpcap reader/writer.
//!
//! Everything downstream (detectors, similarity estimator, labeling)
//! consumes these types, so they are deliberately small, `Copy` where
//! possible, and free of external dependencies.
//!
//! ## Layout
//!
//! * [`packet`] — [`Packet`], [`Protocol`], [`TcpFlags`]: one 32-byte
//!   record per captured packet.
//! * [`hash`] — [`FastMap`] / [`FastSet`]: the seeded multiply-mix
//!   hasher every per-packet and per-unit map uses.
//! * [`flow`] — [`FlowKey`] / [`BiflowKey`] 5-tuples and [`FlowTable`],
//!   the dense packet→flow index both traffic granularities share.
//! * [`trace`] — [`Trace`] (time-sorted packets + [`TraceMeta`]) and
//!   [`TimeWindow`] intervals in microseconds.
//! * [`rule`] — [`TrafficRule`]: the `<srcIP, sport, dstIP, dport>`
//!   pattern with wildcards used by alarms and association rules.
//! * [`pcap`] — classic libpcap (`.pcap`) serialisation with
//!   synthesised Ethernet/IPv4/L4 headers, including the streaming
//!   [`StreamingPcapReader`].
//! * [`source`] — [`PacketSource`]/[`PacketChunk`]: time-binned
//!   chunked ingest with constant peak packet memory.

#![forbid(unsafe_code)]

pub mod flow;
pub mod hash;
pub mod packet;
pub mod pcap;
pub mod rule;
pub mod source;
pub mod trace;

pub use flow::{BiflowKey, FlowId, FlowKey, FlowTable, Granularity, ItemIndex};
pub use hash::{FastMap, FastSet, FastState};
pub use packet::{Packet, Protocol, TcpFlags};
pub use pcap::StreamingPcapReader;
pub use rule::TrafficRule;
pub use source::{
    chunk_index, chunk_window, collect_packets, NoRewindSource, PacketChunk, PacketSource,
    SourceError, TraceChunker, DEFAULT_CHUNK_US,
};
pub use trace::{LinkEra, TimeWindow, Trace, TraceDate, TraceMeta};
