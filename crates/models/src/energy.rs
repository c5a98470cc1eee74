//! Energy prediction: `E = P̄ × T` (Section VII).
//!
//! The decision engine compares whole-system joules across alternatives
//! (consolidate on GPU / run serially on GPU / run on CPU), so the
//! energy model composes the performance and power models with the
//! system idle floor.

use ewc_energy::PowerState;
use ewc_gpu::{GpuConfig, KernelDesc};

use crate::perf::{PerfModel, PerfPrediction};
use crate::placement::analyze;
use crate::plan::{ConsolidationPlan, KernelSpec};
use crate::power::PowerModel;

/// A complete prediction for one consolidation plan.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted execution time.
    pub time_s: f64,
    /// Predicted average GPU dynamic power.
    pub dyn_power_w: f64,
    /// Predicted thermal (leakage) power at steady state.
    pub thermal_w: f64,
    /// Predicted GPU-attributed energy (dynamic + thermal).
    pub gpu_energy_j: f64,
    /// Predicted whole-system energy (idle floor included).
    pub system_energy_j: f64,
    /// The DVFS state this prediction was evaluated in (`None` = the
    /// flat single-state path, which is the P0 anchor).
    pub state: Option<PowerState>,
    /// The underlying performance prediction.
    pub perf: PerfPrediction,
}

/// A prediction bracketed by descriptor uncertainty.
///
/// PTX-derived instruction counts are estimates (the paper extracts them
/// by static analysis, which misses data-dependent control flow), so the
/// backend can ask for a bracket: every member's dynamic counts scaled
/// down/up by a relative `eps`. If even the optimistic consolidated
/// bound does not beat the pessimistic serial bound, the decision is
/// robust to descriptor error.
#[derive(Debug, Clone)]
pub struct PredictionRange {
    /// All dynamic counts scaled by `1 − eps`.
    pub low: Prediction,
    /// The unperturbed prediction.
    pub nominal: Prediction,
    /// All dynamic counts scaled by `1 + eps`.
    pub high: Prediction,
}

/// Combined time/power/energy model.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    perf: PerfModel,
    power: PowerModel,
    idle_w: f64,
    /// The DVFS state the models are bound to (`None` = the flat model,
    /// which is the P0 anchor).
    state: Option<PowerState>,
}

/// Whether two members get the same solo prediction: every descriptor
/// field the models read has the same bits and the block counts match
/// (the name is a label only).
fn same_work(a: &KernelSpec, b: &KernelSpec) -> bool {
    let key = |m: &KernelSpec| {
        let KernelDesc {
            name: _,
            threads_per_block,
            regs_per_thread,
            shared_mem_per_block,
            comp_insts,
            coalesced_mem,
            uncoalesced_mem,
            sync_insts,
        } = &m.desc;
        (
            [
                m.blocks,
                *threads_per_block,
                *regs_per_thread,
                *shared_mem_per_block,
            ],
            [comp_insts, coalesced_mem, uncoalesced_mem, sync_insts].map(|f| f.to_bits()),
        )
    };
    key(a) == key(b)
}

impl EnergyModel {
    /// Compose the models with the system idle power.
    pub fn new(cfg: GpuConfig, power: PowerModel, idle_w: f64) -> Self {
        EnergyModel {
            perf: PerfModel::new(cfg),
            power,
            idle_w,
            state: None,
        }
    }

    /// This (flat) model rebound to DVFS state `state`: the performance
    /// model runs on a clock-scaled configuration (compute time ∝ `1/f`,
    /// DRAM bandwidth unchanged) and the rate-derived dynamic power —
    /// which already carries the `f` factor through the slower rates —
    /// is scaled by `V²`, giving the classic `f·V²` dynamic law relative
    /// to P0. Build it once per operating point and predict many plans.
    pub fn in_state(&self, state: &PowerState) -> EnergyModel {
        let mut cfg = self.perf.config().clone();
        cfg.clock_hz *= state.freq_scale;
        EnergyModel {
            perf: PerfModel::new(cfg.clone()),
            power: self.power.with_config(cfg),
            idle_w: self.idle_w,
            state: Some(*state),
        }
    }

    /// The system idle power used for composition.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// The inner performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The inner power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Predict time, power and energy for a consolidated launch of `plan`.
    pub fn predict(&self, plan: &ConsolidationPlan) -> Prediction {
        let placement = analyze(plan, self.perf.config());
        let perf = self.perf.predict_placed(plan, &placement);
        let rates = self
            .power
            .predicted_rates(plan, &placement, perf.time_s, &perf.per_sm_finish);
        let mut dyn_power_w = self.power.predict_dyn_power_w(&rates);
        if let Some(state) = &self.state {
            dyn_power_w *= state.volt_sq();
        }
        let thermal_w = self.power.predict_thermal_w(dyn_power_w);
        let gpu_energy_j = (dyn_power_w + thermal_w) * perf.time_s;
        let system_energy_j = gpu_energy_j + self.idle_w * perf.time_s;
        Prediction {
            time_s: perf.time_s,
            dyn_power_w,
            thermal_w,
            gpu_energy_j,
            system_energy_j,
            state: self.state,
            perf,
        }
    }

    /// Predict a consolidated launch with the device held at DVFS state
    /// `state` (see [`EnergyModel::in_state`], which callers predicting
    /// many plans in one state should hold on to instead). At the P0
    /// anchor (`f = V = 1`) the scalings multiply by one, so this is
    /// bit-identical to [`EnergyModel::predict`].
    pub fn predict_in_state(&self, plan: &ConsolidationPlan, state: &PowerState) -> Prediction {
        self.in_state(state).predict(plan)
    }

    /// The serial alternative evaluated at DVFS state `state` (mirrors
    /// [`EnergyModel::predict_serial`]).
    pub fn predict_serial_in_state(
        &self,
        plan: &ConsolidationPlan,
        state: &PowerState,
    ) -> Prediction {
        self.in_state(state).predict_serial(plan)
    }

    /// Predict with a ±`eps` relative uncertainty on every member's
    /// dynamic instruction counts.
    pub fn predict_with_uncertainty(&self, plan: &ConsolidationPlan, eps: f64) -> PredictionRange {
        assert!((0.0..1.0).contains(&eps), "eps must be in [0, 1)");
        let scaled = |factor: f64| {
            let mut p = ConsolidationPlan::new();
            for m in &plan.members {
                p.push(crate::plan::KernelSpec::new(
                    m.desc.scaled(factor),
                    m.blocks,
                ));
            }
            p
        };
        PredictionRange {
            low: self.predict(&scaled(1.0 - eps)),
            nominal: self.predict(plan),
            high: self.predict(&scaled(1.0 + eps)),
        }
    }

    /// Predict the serial (one launch after another) alternative: same
    /// total work, but each member runs alone — time sums, and each
    /// launch's power reflects its own low utilisation. A run of
    /// consecutive members with the same work is predicted once; the
    /// sums still accumulate member by member, so they are the floats
    /// the member-at-a-time loop gives.
    pub fn predict_serial(&self, plan: &ConsolidationPlan) -> Prediction {
        let mut time = 0.0;
        let mut gpu_energy = 0.0;
        let mut last: Option<(&KernelSpec, Prediction)> = None;
        for m in &plan.members {
            let p = match last {
                Some((prev, p)) if same_work(prev, m) => p,
                _ => self.predict(&ConsolidationPlan::new().with(m.clone())),
            };
            time += p.time_s;
            gpu_energy += p.gpu_energy_j;
            last = Some((m, p));
        }
        let system = gpu_energy + self.idle_w * time;
        Prediction {
            time_s: time,
            dyn_power_w: if time > 0.0 { gpu_energy / time } else { 0.0 },
            thermal_w: 0.0,
            gpu_energy_j: gpu_energy,
            system_energy_j: system,
            state: self.state,
            perf: match last {
                Some((_, p)) => p.perf,
                None => self.perf.predict(&ConsolidationPlan::new()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c1060()
    }

    fn energy_model() -> EnergyModel {
        let coeffs = PowerCoefficients::train(
            &cfg(),
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        EnergyModel::new(
            cfg(),
            PowerModel::new(coeffs, ThermalModel::gt200(), cfg()),
            200.0,
        )
    }

    fn compute(name: &str, secs: f64) -> KernelDesc {
        let c = cfg();
        KernelDesc::builder(name)
            .threads_per_block(256)
            .comp_insts(secs * c.clock_hz / (8.0 * c.warp_issue_cycles()))
            .build()
    }

    #[test]
    fn consolidation_saves_energy_for_underutilising_kernels() {
        // Nine 3-block encryption instances: consolidated time ≈ single
        // instance time; serial time = 9×. Energy must follow.
        let m = energy_model();
        let plan = ConsolidationPlan::homogeneous(compute("enc", 8.4), 3, 9);
        let cons = m.predict(&plan);
        let serial = m.predict_serial(&plan);
        assert!(cons.time_s < serial.time_s / 5.0);
        assert!(cons.system_energy_j < serial.system_energy_j / 3.0);
        // Power while consolidated is higher (more SMs busy)…
        assert!(cons.dyn_power_w > serial.gpu_energy_j / serial.time_s);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = energy_model();
        let plan = ConsolidationPlan::new().with(KernelSpec::new(compute("k", 5.0), 20));
        let p = m.predict(&plan);
        let expect = (p.dyn_power_w + p.thermal_w + 200.0) * p.time_s;
        assert!((p.system_energy_j - expect).abs() < 1e-6);
        assert!(p.gpu_energy_j < p.system_energy_j);
    }

    #[test]
    fn bad_consolidation_predicted_worse_than_serial() {
        // The scenario-1 shape: both compute-bound, the long kernel
        // occupancy-1 — consolidation serialises on the critical SMs and
        // adds contention, so predicted energy must NOT beat serial.
        let mut enc = compute("enc", 19.5);
        enc.regs_per_thread = 40;
        let mc = {
            let c = cfg();
            KernelDesc::builder("mc")
                .threads_per_block(128)
                .regs_per_thread(68)
                .comp_insts(31.2 * c.clock_hz / (4.0 * c.warp_issue_cycles()))
                .build()
        };
        let m = energy_model();
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(enc, 15))
            .with(KernelSpec::new(mc, 45));
        let cons = m.predict(&plan);
        let serial = m.predict_serial(&plan);
        assert!(
            cons.time_s > 0.95 * serial.time_s,
            "scenario 1 consolidation should not beat serial: {} vs {}",
            cons.time_s,
            serial.time_s
        );
    }

    #[test]
    fn uncertainty_brackets_the_nominal_prediction() {
        let m = energy_model();
        let plan = ConsolidationPlan::homogeneous(compute("enc", 8.4), 3, 6);
        let r = m.predict_with_uncertainty(&plan, 0.10);
        assert!(r.low.time_s <= r.nominal.time_s);
        assert!(r.nominal.time_s <= r.high.time_s);
        assert!(r.low.system_energy_j < r.high.system_energy_j);
        // A 10% count error is ~10% time error for compute-bound kernels.
        assert!((r.high.time_s / r.nominal.time_s - 1.1).abs() < 0.02);
        // Wider eps, wider bracket.
        let wide = m.predict_with_uncertainty(&plan, 0.25);
        assert!(wide.high.time_s > r.high.time_s);
        assert!(wide.low.time_s < r.low.time_s);
    }

    #[test]
    fn adding_a_member_never_reduces_predicted_time() {
        let m = energy_model();
        let mut plan = ConsolidationPlan::new();
        let mut last = 0.0;
        for i in 0..12 {
            plan.push(KernelSpec::new(compute("k", 2.0 + f64::from(i % 3)), 5));
            let t = m.predict(&plan).time_s;
            assert!(t >= last - 1e-9, "member {i}: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn empty_plan_predicts_zero() {
        let m = energy_model();
        let p = m.predict(&ConsolidationPlan::new());
        assert_eq!(p.time_s, 0.0);
        assert_eq!(p.system_energy_j, 0.0);
    }
}
