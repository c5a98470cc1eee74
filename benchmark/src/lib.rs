//! # ewc-benchmark — the repo's benchmark
//!
//! Five seeded workloads, nine end-to-end metrics and an outside-in
//! per-layer ledger. Every layer of the stack is measured **from
//! outside**, by timing calls into its public functions; host-time
//! spans inside the program are a later change. See `README.md` for why
//! each workload exists and how to compare two commits.

#![warn(missing_docs)]

pub mod compare;
pub mod env;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
