//! # ewc-load — open-loop traffic, the overload harness and the fault soak
//!
//! The paper assumes "a large number of users simultaneously sending
//! their requests" but only ever drives the framework closed-loop: each
//! harness submits, waits, submits again, so the offered load can never
//! exceed the service rate. This crate generates **open-loop** arrivals —
//! requests arrive on a schedule that does not care whether the backend
//! keeps up — which is the regime where bounded queues, admission
//! control and graceful degradation (`ewc_core::admission`) earn their
//! keep. It also holds the framework's other scenario driver, the
//! resilience soak, and the deterministic fault plan it injects.
//!
//! * [`process`] — seeded arrival processes: Poisson, bursty
//!   (Markov-modulated), and diurnal (sinusoidally rate-varying via
//!   thinning). Each stream draws from its own [`ewc_gpu::SimRng`], so
//!   a storm of 10⁵ concurrent request streams is bitwise-reproducible.
//! * [`openloop`] — the harness: every arrival is a cheap
//!   [`ewc_exec::SimTask`] on the discrete-event executor, so stream
//!   count is an event-count problem, not a thread-count problem. `Busy`
//!   backpressure answers re-arm the arrival with seeded-jitter backoff
//!   on the same virtual clock; at the end the harness drains every
//!   stream and checks the **conservation invariant**: every generated
//!   request is accounted for exactly once (completed, failed with an
//!   audit, shed with an audit, or drained).
//! * [`plan`] — a [`FaultPlan`] turns one seed into a reproducible
//!   schedule of device OOMs, DMA failures and stalls, kernel hangs,
//!   degraded-SM slowdowns, dropped channel messages, and frontend
//!   process deaths — one deterministic random stream *per injection
//!   site*, so fault classes ([`config`]) can be toggled independently
//!   without perturbing each other. [`SharedFaultPlan`] adapts the plan
//!   to the injection traits the rest of the workspace consumes
//!   ([`ewc_gpu::DeviceFaultInjector`] and
//!   [`ewc_core::RuntimeFaultInjector`]).
//! * [`soak`] — drives the full runtime under fault pressure while
//!   verifying every output that survives.
//!
//! ```
//! use ewc_load::{soak, FaultConfig, SoakConfig};
//!
//! let report = soak::run(&SoakConfig {
//!     seed: 7,
//!     processes: 2,
//!     requests_per_process: 2,
//!     faults: FaultConfig::light(),
//!     ..SoakConfig::default()
//! });
//! assert!(report.balanced(), "{}", report.render());
//! assert_eq!(report.mismatched, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The harnesses run inside benches and CI gates: unwraps are banned in
// shipping code (tests are free to use them).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod openloop;
pub mod plan;
pub mod process;
pub mod soak;

pub use config::FaultConfig;
pub use openloop::{LoadConfig, LoadReport};
pub use plan::{FaultPlan, FaultRecord, FaultSite, SharedFaultPlan};
pub use process::{ArrivalGen, ArrivalProcess};
pub use soak::{SoakConfig, SoakReport};
