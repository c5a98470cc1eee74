//! # ewc-models — GPU performance and power prediction for consolidation
//!
//! The paper's analytical contribution (Sections V and VI): given the
//! *descriptors* of a set of kernels (no execution), predict the
//! execution time, average power and energy of their consolidation so the
//! backend can decide whether consolidating is worthwhile.
//!
//! * [`plan::ConsolidationPlan`] — the input: an ordered list of member
//!   kernels (order = template block order, which determines placement).
//! * [`placement::analyze`] — a static reconstruction of the GPU block
//!   dispatcher: round-robin waves under occupancy limits, plus the
//!   bulk redistribution of untouched blocks to the first SMs that go
//!   idle. This is how the model identifies the **critical SMs**.
//! * [`perf::PerfModel`] — per-SM time estimates. Co-resident blocks on
//!   one SM are treated "as one single big workload": elapsed time is
//!   `max(Σ dᵢ·tᵢ, max tᵢ)` — issue-demand-weighted serialisation with
//!   free warp interleaving below saturation — scaled by a static
//!   bandwidth-sharing penalty (the model assumes bandwidth sharing
//!   always happens; the engine relaxes contention as blocks finish,
//!   which is the paper's stated source of prediction error).
//!   Consolidations where no SM holds more than one block degenerate to
//!   the paper's *type 1* formula automatically.
//! * [`power::PowerModel`] — Eq. 11 over a **virtual SM** whose event
//!   rates are the average over all SMs, with the trained coefficients
//!   from `ewc-energy`. The per-SM-summation variant the paper rejects
//!   (9× off) is provided for the ablation benches.
//! * [`energy::EnergyModel`] — E = P̄ × T, composed with idle and thermal
//!   terms into whole-system joules, the quantity the decision engine
//!   compares across alternatives. Its [`Prediction`]s are scalars; the
//!   per-SM detail comes from [`PerfModel::predict`]. One placement
//!   serves every operating point of a DVFS ladder
//!   ([`EnergyModel::predict_placed`]).
//! * [`policy`] — the power-policy knob over the `ewc-energy` state
//!   ladder: race-to-idle, pace-to-deadline, or cap-aware state choice
//!   scored over a common horizon ([`policy::choose_state`]).
//!
//! ```
//! use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
//! use ewc_gpu::{GpuConfig, KernelDesc};
//! use ewc_models::{ConsolidationPlan, EnergyModel, PowerModel};
//!
//! let cfg = GpuConfig::tesla_c1060();
//! let coeffs = PowerCoefficients::train(
//!     &cfg,
//!     &GpuPowerGroundTruth::tesla_c1060(),
//!     &TrainingBenchmark::rodinia_suite(),
//!     42,
//! )
//! .unwrap();
//! let model = EnergyModel::new(
//!     cfg.clone(),
//!     PowerModel::new(coeffs, ThermalModel::gt200(), cfg.clone()),
//!     200.0,
//! );
//!
//! // Nine tiny 3-block kernels: consolidation must crush serial.
//! let kernel = KernelDesc::builder("tiny")
//!     .threads_per_block(256)
//!     .comp_insts(1e7)
//!     .build();
//! let plan = ConsolidationPlan::homogeneous(kernel, 3, 9);
//! let consolidated = model.predict(&plan);
//! let serial = model.predict_serial(&plan);
//! assert!(consolidated.system_energy_j < serial.system_energy_j / 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod energy;
pub mod perf;
pub mod placement;
pub mod plan;
pub mod policy;
pub mod power;

pub use energy::{EnergyModel, Prediction};
pub use perf::{PerfModel, PerfPrediction};
pub use placement::{analyze, analyze_serial, Placement};
pub use plan::{ConsolidationPlan, KernelSpec};
pub use policy::{choose_state, horizon_s, PolicyKnob, StateChoice};
pub use power::PowerModel;
