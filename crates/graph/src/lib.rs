//! # mawilab-graph
//!
//! Weighted undirected graphs and community mining.
//!
//! The similarity estimator (paper §2.1) turns alarms into nodes of an
//! undirected *similarity graph* whose weighted edges encode traffic
//! overlap, then clusters equivalent alarms by finding communities.
//! The paper selects the Louvain modularity-optimisation algorithm
//! (Blondel et al. 2008) because it works locally — small groups of a
//! few alarms are still found — and is fast on sparse graphs with many
//! isolated nodes.
//!
//! * [`graph`] — [`Graph`]: weighted undirected graph in compressed
//!   sparse row form, built in one pass from an edge list.
//! * [`louvain`](mod@louvain) — the Louvain method plus modularity computation:
//!   one sequential greedy sweep per level.

#![forbid(unsafe_code)]

pub mod graph;
pub mod louvain;

pub use graph::Graph;
pub use louvain::{louvain, modularity, Partition};
