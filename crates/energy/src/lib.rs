//! # ewc-energy — power and energy instrumentation
//!
//! The measurement side of the reproduction. The paper measures
//! whole-system power at the wall with a WattsUp PRO ES meter and
//! isolates GPU power as `P_sys − P_idle`; its power model (Section VI)
//! splits GPU power into static, temperature-dependent and dynamic terms
//! and fits the dynamic term by linear regression over training
//! benchmarks. This crate provides every piece of that methodology:
//!
//! * [`meter::PowerMeter`] — a sampling wall-power meter with trapezoidal
//!   energy integration and a repeat-and-average mode for short runs;
//! * [`thermal::ThermalModel`] — first-order RC chip-temperature dynamics
//!   and the linear leakage term `P_T(ΔT)`;
//! * [`ground_truth::GpuPowerGroundTruth`] — the simulator's "real"
//!   per-event power behaviour, including a mild nonlinearity and seeded
//!   measurement noise so that fitted models have honest errors;
//! * [`regression::LinearRegression`] — ordinary least squares via normal
//!   equations, enough for the model's two-feature fit;
//! * [`training`] — a Rodinia-like synthetic training-benchmark suite and
//!   the fitting procedure producing [`training::PowerCoefficients`];
//! * [`system::GpuSystemPower`] — composition of idle floor, thermal and
//!   dynamic terms over a device activity profile, yielding the
//!   whole-system energy the experiments report;
//! * [`states`] — the composable power-state stack: an ordered ladder of
//!   sleep / idle / DVFS states over the same ground truth
//!   (`rate × f`, `power × f·V²`), with the one-state
//!   [`states::PowerStateModel::single`] instance byte-identical to the
//!   flat model.

#![forbid(unsafe_code)]
// The meter integrates inside the runtime's shutdown: a panic there
// loses the run's report.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod ground_truth;
pub mod meter;
pub mod regression;
pub mod states;
pub mod system;
pub mod thermal;
pub mod training;

pub use ground_truth::GpuPowerGroundTruth;
pub use meter::{Measurement, PowerMeter, PowerSource};
pub use regression::LinearRegression;
pub use states::{PowerState, PowerStateModel, PowerStateTable, StateKind};
pub use system::GpuSystemPower;
pub use thermal::ThermalModel;
pub use training::{PowerCoefficients, TrainingBenchmark};
