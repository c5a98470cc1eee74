//! # ewc-exec — the deterministic execution substrate
//!
//! Every layer of the consolidation stack is a timing study in disguise:
//! the GPU engine advances launches event by event, the backend charges
//! channel and staging costs against a host clock, retries back off on
//! the device clock, and the experiment harnesses fan work out across
//! threads while promising bitwise-identical output. This crate is the
//! one place all of that machinery lives:
//!
//! * [`VirtualClock`] — a monotonic simulated clock, cheaply clonable;
//!   clones share the same instant, so a span recorder and the component
//!   advancing time read the same timeline.
//! * [`EventQueue`] — a discrete-event queue keyed by `(time, schedule
//!   order)`: events at equal timestamps pop in the order they were
//!   scheduled, pinned by test, so iteration order never depends on
//!   heap internals.
//! * [`SimTask`] and [`Executor`] — the classic discrete-event driver:
//!   tasks fire at their scheduled instant, may schedule more tasks, and
//!   the clock only ever moves forward.
//! * [`fan_out`] — the one parallel fan-out (soak matrix, experiment
//!   ledger). No work stealing: workers pull indices from a shared
//!   counter and results merge positionally, so any parallelism level
//!   produces the same bytes as a serial run.
//! * [`FxHasher`] — the one fast hasher, for map keys the runtime builds
//!   itself (context ids, kernel addresses, launch shapes).
//! * [`Memo`] — a bounded memo for a pure function called with the same
//!   arguments over and over; debug builds check every hit against a
//!   fresh call.
//!
//! The crate is dependency-free and knows nothing about GPUs, energy or
//! telemetry — it is the seam the rest of the workspace plugs into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The substrate underpins a daemon that must never die on a fault;
// recoverable errors are typed, invariants use expect with a reason.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod clock;
mod hash;
mod memo;
mod pool;
mod queue;
mod task;

pub use clock::VirtualClock;
pub use hash::{FxBuildHasher, FxHasher};
pub use memo::Memo;
pub use pool::fan_out;
pub use queue::{Event, EventQueue};
pub use task::{Executor, SimTask};
