//! # mawilab-core
//!
//! End-to-end orchestration of the MAWILab methodology — the four
//! steps of the paper's proposed method, wired together:
//!
//! 1. run every detector configuration over the trace
//!    (`mawilab-detectors`),
//! 2. cluster the alarms into communities with the similarity
//!    estimator (`mawilab-similarity`),
//! 3. classify each community accepted/rejected with a combination
//!    strategy (`mawilab-combiner`),
//! 4. label the trace: taxonomy labels, Table-1 heuristics, and
//!    association-rule summaries (`mawilab-label`).
//!
//! [`OnlinePipeline`] is the production labeler: it drains a packet
//! source once and labels the day at end of stream.
//! [`MawilabPipeline`] is the batch form over an in-memory trace and
//! the oracle the single-pass path is tested against, byte for byte.
//! [`benchmark`] hosts the downstream use-case the database exists
//! for — scoring a *new* detector's alarms against the labels through
//! the same similarity machinery (paper §5).

#![forbid(unsafe_code)]

pub mod benchmark;
pub mod online;
pub mod pipeline;

pub use benchmark::{benchmark_alarms, benchmark_alarms_sequential, BenchmarkResult};
pub use online::{OnlinePipeline, OnlineReport, StreamStats, DEFAULT_HORIZON_US, DEFAULT_LAG_US};
pub use pipeline::{LabeledReport, MawilabPipeline, PipelineConfig, PipelineReport, StrategyKind};
