//! # mawilab-lint
//!
//! A workspace invariant linter that makes the determinism
//! architecture machine-checked.
//!
//! MAWILab's reproducibility claim rests on conventions this
//! workspace enforces socially: the thread policy is read in exactly
//! one place, there is one fan-out level, kernels never read the wall
//! clock, every parallel or approximate kernel has a sequential
//! oracle pinned by an equivalence test, and hash-container iteration
//! never leaks its order into output. This crate turns those
//! conventions into six lexical rules over the workspace source:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `thread-env-isolation` | `MAWILAB_THREADS` read only in `crates/exec`, set only in bench bins/tests |
//! | `no-ad-hoc-threads` | `std::thread` fan-out only in `crates/exec` |
//! | `no-wall-clock-in-kernels` | `Instant::now`/`SystemTime::now` only in `crates/bench` |
//! | `panic-free-data-plane` | `.unwrap()`/`.expect(`/`panic!` in data-plane crates needs a justified pragma |
//! | `oracle-registry` | `lint/oracles.toml` binds kernel ↔ oracle ↔ equivalence test; all `par_*` call sites covered |
//! | `hashmap-iteration-order` | hash iteration in order-sensitive crates must canonicalise or justify |
//!
//! Escape hatch: `// lint:allow(<rule>): <reason>` on the offending
//! line (or alone on the line above). A pragma without a reason is
//! itself a violation.
//!
//! The linter is dependency-free and lexical by design: no `syn`, no
//! crates.io. The lexer ([`lexer`]) blanks comments and string
//! literals first, so token rules neither miss-fire inside strings
//! nor honour pragmas spelled inside them.

#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod pragma;
pub mod regions;
pub mod registry;
pub mod rules;
pub mod workspace;

pub use engine::{check, render};
pub use rules::Violation;
pub use workspace::Workspace;
