//! # mawilab-similarity
//!
//! The graph-based similarity estimator — the paper's first main
//! ingredient (§2.1).
//!
//! Detectors report alarms at incompatible granularities (hosts, flow
//! sets, feature rules), so naive comparison is impossible. The
//! estimator makes them comparable in three steps:
//!
//! 1. **Traffic extraction** ([`extractor`]) — resolve every alarm to
//!    the set of traffic units it designates, at a chosen granularity
//!    (packets, unidirectional flows or bidirectional flows — Fig. 1
//!    shows why the choice matters).
//! 2. **Similarity graph** ([`estimator`]) — one node per alarm, an
//!    edge wherever two alarms' traffic intersects, weighted by a
//!    similarity measure (Simpson by default, the paper's pick).
//! 3. **Community mining** — Louvain modularity optimisation clusters
//!    equivalent alarms; isolated alarms become the *single
//!    communities* whose count is the estimator's quality signal
//!    (Fig. 3(a)).

#![forbid(unsafe_code)]

pub mod estimator;
pub mod extractor;
pub mod horizon;
pub(crate) mod index;
pub(crate) mod shard;

pub use estimator::{AlarmCommunities, SimilarityEstimator, SimilarityMeasure};
pub use extractor::{extract_traffic, extract_traffic_sequential};
pub use horizon::{HorizonExtractor, HorizonStats, HorizonTraffic};
pub use mawilab_graph::Partition;
