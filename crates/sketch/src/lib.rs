//! # mawilab-sketch
//!
//! Random-projection (hash-based) sketches.
//!
//! Two of the paper's detectors depend on sketching: the PCA detector
//! uses sketches to make the subspace method *reversible* — able to
//! name the source IP behind an anomalous residual (paper §3.2,
//! detector 1, citing Li et al. \[23\] and Kanda et al. \[18\]) — and the
//! Gamma detector hashes traffic on source and destination addresses
//! before fitting per-bin Gamma models (detector 2, Dewaele et al.).
//!
//! The scheme is the classic k-ary sketch: `H` independent universal
//! hash rows of width `M`. A key (IP address) maps to one bin per row;
//! a key is *identified* as anomalous when every row flags the bin the
//! key lands in — intersecting across independent rows shrinks the
//! false-identification probability to roughly `(f/M)^H` for `f`
//! flagged bins per row.

#![forbid(unsafe_code)]

pub mod hash;
pub mod kary;

pub use hash::UniversalHash;
pub use kary::SketchFamily;
