//! # ewc-workloads — the paper's enterprise workloads
//!
//! Table 1's six workloads, each with:
//!
//! * a **real functional implementation** (actual FIPS-197 AES-128,
//!   bitonic sort, substring search, closed-form Black–Scholes,
//!   Monte-Carlo option pricing) that executes inside simulated GPU
//!   kernels against device memory — so tests can assert that a
//!   consolidated launch computes byte-identical results to serial
//!   launches;
//! * a **calibrated cost descriptor** ([`ewc_gpu::KernelDesc`]): the
//!   per-thread instruction mix, register/shared-memory footprint, block
//!   and grid shape that drive the timing and power simulation. Presets
//!   reproduce the configurations of Table 1, the Section III scenarios
//!   and the Section VIII experiments;
//! * a **CPU profile** ([`ewc_cpu::CpuTask`]): the equivalent
//!   OpenMP-parallelised instance for the multicore baseline.
//!
//! All instances are parameterised and deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Kernel bodies run under the backend's shared lock: every device access
// carries an `expect` naming the argument and the bound it relies on
// (same no-panic gate as ewc-core and ewc-gpu; enforced in CI).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aes;
pub mod blackscholes;
pub mod calibrate;
pub mod data;
pub mod matmul;
pub mod montecarlo;
pub mod registry;
pub mod search;
pub mod sort;

pub use aes::AesWorkload;
pub use blackscholes::BlackScholesWorkload;
pub use matmul::MatmulWorkload;
pub use montecarlo::MonteCarloWorkload;
pub use registry::{instance_grid, instance_segment, run_standalone, RunResult, Workload};
pub use search::SearchWorkload;
pub use sort::SortWorkload;
