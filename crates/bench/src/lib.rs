//! # ewc-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each exposing a
//! `run()` that produces typed rows, plus formatters that print the same
//! tables the paper reports. [`experiments::EXPERIMENTS`] is the one list
//! of them (`ewc run <id>` and `ewc run all` are driven from it); the
//! root `tests/` directory asserts the headline *shapes* (who wins, by
//! roughly what factor, where the crossovers fall). Host time is
//! measured in one place only, the standalone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod mix;
pub mod report;
pub mod setups;

pub use mix::Mix;
pub use setups::{
    four_way, run_batch, run_cpu, run_dynamic, run_dynamic_with, run_manual, run_serial, Batch,
    FourWay, SetupResult,
};
