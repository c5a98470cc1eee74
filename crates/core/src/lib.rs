//! # ewc-core — the energy-aware workload consolidation framework
//!
//! The paper's main system (Section IV): a runtime that intercepts
//! CUDA-style API calls from **multiple user processes**, funnels them to
//! one backend that owns the GPU, and — when enough kernel requests
//! are pending — consolidates them into one large kernel *if the
//! performance and power models predict an energy win*; otherwise the
//! kernels run individually on the GPU or on the CPU, whichever their
//! profiles favour.
//!
//! Faithful structure:
//!
//! * [`frontend::Frontend`] — the per-process shim. Each API call
//!   (`malloc`, `memcpy_h2d`, `configure_call`, `setup_argument`,
//!   `launch`, `memcpy_d2h`, `sync`) is one message to the backend, with
//!   a per-message cost; `setup_argument` calls can be **batched** until
//!   `launch` (Section IV's optimisation). `Frontend::submit` makes one
//!   kernel's whole sequence for a registered workload.
//! * `backend` — the paper's daemon: one `Backend` behind a mutex that
//!   every frontend calls directly. The round trips, staging copies and
//!   coordination the paper's RPC pays are charged to a virtual clock
//!   per message, and the backend runs only inside a frontend's call, so
//!   a run is a function of the order calls arrive in. It owns the
//!   [`ewc_gpu::GpuDevice`], executes every device operation in its own
//!   context, and stages cross-context memcpys through a **pre-allocated
//!   buffer** (two copies: process → buffer → device). Kernel launches
//!   queue; at the **threshold** (10 × number of GPUs pending requests,
//!   Section VII) or on an explicit sync, the backend matches pending
//!   kernels against **precompiled templates**, consults the models, and
//!   dispatches each group to the GPU (consolidated or serial) or to the
//!   CPU.
//! * [`template::TemplateRegistry`] — the precompiled consolidated
//!   kernels: which workload combinations can be merged, and in which
//!   member order the template lays out blocks (the order determines
//!   which SMs become critical).
//! * [`leader::LeaderCoordinator`] — homogeneous batches elect a leader
//!   frontend so only one process talks to the backend during
//!   consolidation, cutting coordination cost.
//! * [`decision::DecisionEngine`] — the Figure 6 logic comparing
//!   consolidated / serial-GPU / CPU energy predictions.
//! * [`optimize`] — constant-data reuse: load-once lookup tables (the
//!   AES T-tables) shared by all consolidated instances.
//! * [`runtime::Runtime`] — owns the backend and hands out
//!   frontends; [`runtime::RuntimeReport`] carries the device activity
//!   profile for energy integration.
//!
//! ```
//! use std::sync::Arc;
//! use ewc_core::{Runtime, RuntimeConfig, Template};
//! use ewc_gpu::GpuConfig;
//! use ewc_workloads::{AesWorkload, Workload};
//!
//! let aes = Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()));
//! let rt = Runtime::builder(RuntimeConfig { force_gpu: true, ..Default::default() })
//!     .workload("encryption", Arc::clone(&aes) as Arc<dyn Workload>)
//!     .template(Template::homogeneous("encryption"))
//!     .build();
//!
//! // Two "user processes" submit (allocate, upload, configure, set the
//! // arguments, launch); the backend consolidates at sync.
//! let mut sessions = Vec::new();
//! for seed in 0..2u64 {
//!     let mut fe = rt.connect();
//!     let bufs = fe.submit("encryption", aes.as_ref(), seed).unwrap();
//!     sessions.push((fe, bufs, seed));
//! }
//! sessions[0].0.sync().unwrap();
//! for (fe, bufs, seed) in &sessions {
//!     let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
//!     assert_eq!(out, aes.expected_output(*seed));
//! }
//! let report = rt.shutdown();
//! assert_eq!(report.stats.kernels_consolidated(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The backend must never panic on a fault path: unwraps, `panic!` and
// `unreachable!` are banned in shipping code (tests are free to use
// them).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::unreachable, clippy::panic)
)]

pub mod admission;
mod backend;
pub mod config;
pub mod decision;
pub mod frontend;
pub mod leader;
pub mod optimize;
pub mod protocol;
pub mod resilience;
pub mod runtime;
pub mod stats;
pub mod template;

pub use admission::{AdmissionConfig, AdmissionDecision, Priority, ShedCause};
pub use config::{PowerStatesConfig, RuntimeConfig};
pub use decision::{Choice, DecisionEngine, StateDecision, CONSOLIDATION_MARGIN};
pub use frontend::Frontend;
pub use protocol::{CoreError, KernelRequest, RegisteredKernel};
pub use resilience::{ResiliencePolicy, RuntimeFaultInjector};
pub use runtime::{Runtime, RuntimeReport};
pub use stats::{BackendStats, ConsolidationRecord};
pub use template::{Template, TemplateRegistry};
