//! # ewc-telemetry — runtime observability for the consolidation framework
//!
//! The paper's framework is a simulated distributed system: frontends issue
//! RPCs to a backend, the backend stages arguments, consults the decision
//! engine, and launches consolidated kernels on a simulated GPU.  Everything
//! runs on *simulated* clocks, so an off-the-shelf tracing library (which
//! timestamps with the wall clock) would record nonsense.  This crate is a
//! purpose-built observability layer that is aware of the simulation:
//!
//! * [`metrics`] — a registry of counters, gauges and log-bucketed
//!   [`metrics::Histogram`]s.  Histograms answer percentile queries,
//!   replacing the ad-hoc sort-and-index code that previously lived in
//!   the bench crate.
//! * [`span`] — structured spans over simulated time with parent/child
//!   nesting and per-span key/value attributes, modeling the request
//!   lifecycle `frontend call → RPC → backend queue → decision → staging
//!   copy → launch → block completion`.
//! * [`store`] — where recorded spans live: interned strings, fixed-size
//!   rows and one attribute arena, shared with each snapshot as a
//!   [`SpanTable`].
//! * [`audit`] — a decision audit log: every consolidate/serial/CPU verdict
//!   together with the model predictions that justified it.
//! * [`export`] — exporters: JSON-lines, Chrome trace-event format (load the
//!   file in <https://ui.perfetto.dev>), and a plain-text summary table.
//! * [`json`] — a dependency-free JSON writer and validating parser used by
//!   the exporters and their tests.
//!
//! The entry point is [`TelemetrySink`], a cheaply clonable handle that
//! every instrumented component holds.  A default-constructed sink is
//! disabled and every recording call is a branch on an `Option` — the hot
//! path of the simulator is unchanged when telemetry is off, and building
//! a span on it allocates nothing (span builders borrow their strings).
//!
//! ```
//! use ewc_telemetry::TelemetrySink;
//!
//! let sink = TelemetrySink::enabled();
//! sink.span("host", "backend", "decision", 0.10, 0.25)
//!     .attr("choice", "consolidate")
//!     .emit();
//! sink.histogram_record("latency_s", 0.15);
//! let snap = sink.snapshot().unwrap();
//! assert_eq!(snap.spans.len(), 1);
//! ```

#![forbid(unsafe_code)]
// Telemetry records from inside the backend and the engine hot
// loop; an observability layer must never be what panics the process.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod store;

pub use audit::{DecisionRecord, Verdict};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{Recorder, TelemetrySink, TelemetrySnapshot};
pub use span::{AttrValue, Span, SpanBuilder};
pub use store::SpanTable;
