//! # mawilab
//!
//! Umbrella crate re-exporting the full MAWILab reproduction stack.
//!
//! This workspace reimplements, from scratch and in Rust, the system of
//! *"MAWILab: Combining Diverse Anomaly Detectors for Automated Anomaly
//! Labeling and Performance Benchmarking"* (Fontugne, Borgnat, Abry,
//! Fukuda — ACM CoNEXT 2010): four unsupervised backbone anomaly
//! detectors, a graph-based alarm similarity estimator with Louvain
//! community mining, four unsupervised combination strategies (average,
//! minimum, maximum, SCANN), association-rule summarisation, and the
//! MAWILab four-level taxonomy (`Anomalous` / `Suspicious` / `Notice` /
//! `Benign`).
//!
//! Start with [`core::OnlinePipeline`], the production labeler, which
//! drains a packet source once (here an in-memory day, sealed against
//! rewinding); the batch [`core::MawilabPipeline`] is its oracle. See
//! also the `examples/` directory:
//!
//! ```no_run
//! use mawilab::core::{OnlinePipeline, PipelineConfig};
//! use mawilab::model::{NoRewindSource, TraceChunker, DEFAULT_CHUNK_US};
//! use mawilab::synth::{SynthConfig, TraceGenerator};
//!
//! let day = TraceGenerator::new(SynthConfig::default().with_seed(7)).generate();
//! let mut source = NoRewindSource::new(TraceChunker::new(day.trace, DEFAULT_CHUNK_US));
//! let online = OnlinePipeline::new(PipelineConfig::default()).run(&mut source)?;
//! for anomaly in online.report.labeled.anomalies() {
//!     println!("{anomaly}");
//! }
//! # Ok::<(), mawilab::model::SourceError>(())
//! ```

pub use mawilab_combiner as combiner;
pub use mawilab_core as core;
pub use mawilab_detectors as detectors;
pub use mawilab_eval as eval;
pub use mawilab_exec as exec;
pub use mawilab_graph as graph;
pub use mawilab_label as label;
pub use mawilab_linalg as linalg;
pub use mawilab_mining as mining;
pub use mawilab_model as model;
pub use mawilab_similarity as similarity;
pub use mawilab_sketch as sketch;
pub use mawilab_stats as stats;
pub use mawilab_synth as synth;
