//! Fleet layer: placement of contexts onto a heterogeneous GPU fleet.
//!
//! The paper consolidates workloads onto a single Tesla C1060; a
//! datacenter runs many cards of mixed generations. This crate adds the
//! layer *above* the per-device consolidator:
//!
//! - [`FleetConfig`] describes N optionally heterogeneous devices
//!   ([`DeviceSpec`]: per-device SM count, bandwidth, and power-curve
//!   scaling, all derived from the `GpuConfig::tesla_c1060()` preset);
//! - [`PolicyKind`] names the deterministic context→device binding
//!   strategy: round-robin, or frag-aware, which packs contexts onto
//!   busy cards by the fragmentation score of arXiv 2412.17484;
//! - [`FleetGovernor`] places with one `match` over the policy, and owns
//!   an optional fleet-level power cap and **per-device**
//!   [`CircuitBreaker`]s so one sick card no longer closes the GPU path
//!   for the whole fleet — its contexts are drained and re-placed on
//!   healthy devices instead.
//!
//! Everything is pure bookkeeping over values read from
//! [`ewc_exec::VirtualClock`] handles: same-seed runs replay
//! byte-identically, and the crate has no dependency on the backend it
//! serves (`ewc-core` depends on `ewc-fleet`, not the other way round).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod breaker;
mod config;
mod governor;
mod policy;

pub use breaker::{CircuitBreaker, ResiliencePolicy};
pub use config::{DeviceSpec, FleetConfig, PolicyKind};
pub use governor::{FleetGovernor, PlacementReason, PlacementRecord, StateChangeRecord};
