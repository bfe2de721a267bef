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
//! * [`graph`] — [`Graph`]: adjacency-list weighted undirected graph
//!   with parallel-edge merging.
//! * [`csr`] — [`CsrGraph`]: the flat compressed-sparse-row form the
//!   Louvain engine runs on.
//! * [`louvain`] — the Louvain method plus modularity computation:
//!   one sequential greedy sweep per level, every level in CSR form.
//! * [`components`] — connected components (used in tests and as a
//!   degenerate-case baseline).

#![forbid(unsafe_code)]

pub mod components;
pub mod csr;
pub mod graph;
pub mod louvain;

pub use components::connected_components;
pub use csr::CsrGraph;
pub use graph::Graph;
pub use louvain::{louvain, modularity, Partition};
