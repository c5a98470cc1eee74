//! Energy prediction: `E = P̄ × T` (Section VII).
//!
//! The decision engine compares whole-system joules across alternatives
//! (consolidate on GPU / run serially on GPU / run on CPU), so the
//! energy model composes the performance and power models with the
//! system idle floor.

use ewc_energy::PowerState;
use ewc_gpu::{BlockCost, GpuConfig};

use crate::perf::{sm_pass, PerfModel};
use crate::placement::{analyze, analyze_serial, class_costs, place, same_work, Placement};
use crate::plan::{ConsolidationPlan, KernelSpec};
use crate::power::PowerModel;

/// A complete prediction for one consolidation plan: scalars only. The
/// per-SM and per-member detail comes from [`PerfModel::predict`].
///
/// A plan with a member that fits no SM cannot run: its prediction is
/// +∞ in every field, so it never wins a comparison.
#[derive(Debug, Clone, Copy)]
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
}

impl Prediction {
    /// The prediction of a plan that cannot run.
    const UNSCHEDULABLE: Prediction = Prediction {
        time_s: f64::INFINITY,
        dyn_power_w: f64::INFINITY,
        thermal_w: f64::INFINITY,
        gpu_energy_j: f64::INFINITY,
        system_energy_j: f64::INFINITY,
    };
}

/// Combined time/power/energy model.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    perf: PerfModel,
    power: PowerModel,
    idle_w: f64,
    /// The `V²` dynamic-power scale of the DVFS state the models are
    /// bound to: 1.0 on the flat model, which is the P0 anchor.
    volt_sq: f64,
}

impl EnergyModel {
    /// Compose the models with the system idle power.
    pub fn new(cfg: GpuConfig, power: PowerModel, idle_w: f64) -> Self {
        EnergyModel {
            perf: PerfModel::new(cfg),
            power,
            idle_w,
            volt_sq: 1.0,
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
            volt_sq: state.volt_sq(),
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
        self.predict_placed(plan, &analyze(plan, self.perf.config()))
    }

    /// [`Self::predict`] from `placement`, a placement of `plan` on this
    /// model's device made at any of its clocks — how one placement
    /// serves a whole DVFS ladder. The wave placement reads occupancy
    /// only, so it holds at every clock, and the block costs are derived
    /// again at this model's clock when they were derived at another. A
    /// placement that redistributed is placed afresh instead, because
    /// redistribution reads the costs. Bit-identical to
    /// [`Self::predict`].
    pub fn predict_placed(&self, plan: &ConsolidationPlan, placement: &Placement) -> Prediction {
        self.predict_members(&plan.members, placement)
    }

    /// [`Self::predict_placed`] over a member list.
    fn predict_members(&self, members: &[KernelSpec], placement: &Placement) -> Prediction {
        let cfg = self.perf.config();
        debug_assert_eq!(placement.class_of.len(), members.len());
        if !placement.schedulable {
            Prediction::UNSCHEDULABLE
        } else if placement.clock_hz == cfg.clock_hz {
            self.compose(members, placement, &placement.costs)
        } else if placement.redistributed {
            let fresh = place(members, cfg);
            self.compose(members, &fresh, &fresh.costs)
        } else {
            let costs = class_costs(members, &placement.class_of, cfg);
            self.compose(members, placement, &costs)
        }
    }

    /// Time, power and energy of a schedulable placement of `members`
    /// with per-class block `costs` at this model's clock.
    fn compose(
        &self,
        members: &[KernelSpec],
        placement: &Placement,
        costs: &[BlockCost],
    ) -> Prediction {
        let cfg = self.perf.config();
        let pass = sm_pass(placement, costs, cfg.dram_bandwidth, |_, _, _| {});
        let rates = self.power.rates(
            members,
            &placement.class_of,
            costs,
            pass.time_s,
            pass.busy_s,
        );
        let dyn_power_w = self.power.predict_dyn_power_w(&rates) * self.volt_sq;
        let thermal_w = self.power.predict_thermal_w(dyn_power_w);
        let gpu_energy_j = (dyn_power_w + thermal_w) * pass.time_s;
        let system_energy_j = gpu_energy_j + self.idle_w * pass.time_s;
        Prediction {
            time_s: pass.time_s,
            dyn_power_w,
            thermal_w,
            gpu_energy_j,
            system_energy_j,
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

    /// Predict the serial (one launch after another) alternative: same
    /// total work, but each member runs alone — time sums, and each
    /// launch's power reflects its own low utilisation. A run of
    /// consecutive members with the same work is predicted once; the
    /// sums still accumulate member by member, so they are the floats
    /// the member-at-a-time loop gives.
    pub fn predict_serial(&self, plan: &ConsolidationPlan) -> Prediction {
        self.predict_serial_placed(plan, &analyze_serial(plan, self.perf.config()))
    }

    /// [`Self::predict_serial`] from `runs`, the [`analyze_serial`]
    /// placements of `plan` on this model's device at any of its clocks,
    /// each shared as [`Self::predict_placed`] shares one. Bit-identical
    /// to [`Self::predict_serial`].
    ///
    /// # Panics
    /// If `runs` holds fewer placements than [`analyze_serial`] makes for
    /// `plan`.
    pub fn predict_serial_placed(
        &self,
        plan: &ConsolidationPlan,
        runs: &[Placement],
    ) -> Prediction {
        if runs.iter().any(|run| !run.schedulable) {
            return Prediction::UNSCHEDULABLE;
        }
        let mut runs = runs.iter();
        let mut time = 0.0;
        let mut gpu_energy = 0.0;
        let mut last: Option<(&KernelSpec, Prediction)> = None;
        for m in &plan.members {
            let p = match last {
                Some((prev, p)) if same_work(prev, m) => p,
                _ => {
                    let run = runs.next().expect("one placement per run of members");
                    self.predict_members(std::slice::from_ref(m), run)
                }
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
    use ewc_gpu::KernelDesc;

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

    #[test]
    fn a_redistributed_placement_is_placed_afresh_at_another_clock() {
        // On a bandwidth-starved card a streaming block's time is set by
        // DRAM bandwidth, not the clock: halving the clock doubles the
        // compute block's 1 s and leaves the streaming block's 1.4 s. So
        // which SMs free up first — where the 30 blocks that fit nowhere
        // are redistributed — depends on the clock.
        let mut cfg = cfg();
        cfg.dram_bandwidth = 22e9;
        let model = EnergyModel::new(
            cfg.clone(),
            energy_model().power().with_config(cfg.clone()),
            200.0,
        );
        let half_clock = PowerState::operating("p2", 30.0, 0.5, 0.7, 20e-6);
        let slow = model.in_state(&half_clock);
        let big = |name: &str, comp_insts: f64, coalesced_mem: f64| {
            let desc = KernelDesc::builder(name)
                .threads_per_block(512)
                .shared_mem_per_block(12 << 10)
                .comp_insts(comp_insts)
                .coalesced_mem(coalesced_mem)
                .build();
            KernelSpec::new(desc, 15)
        };
        let small = KernelDesc::builder("small")
            .threads_per_block(64)
            .shared_mem_per_block(8 << 10)
            .comp_insts(1e5)
            .build();
        let plan = ConsolidationPlan::new()
            .with(big(
                "compute",
                cfg.clock_hz / (16.0 * cfg.warp_issue_cycles()),
                0.0,
            ))
            .with(big("stream", 0.0, 1e6))
            .with(KernelSpec::new(small, 30));

        let shared = analyze(&plan, &cfg);
        let own = analyze(&plan, slow.perf().config());
        assert!(shared.redistributed && own.redistributed);
        let members = |p: &Placement| -> Vec<Vec<usize>> {
            p.per_sm()
                .map(|sm| sm.iter().map(|b| b.member).collect())
                .collect()
        };
        assert_ne!(members(&shared), members(&own), "the clock moves blocks");
        let bits = |p: Prediction| p.system_energy_j.to_bits();
        assert_eq!(
            bits(slow.predict_placed(&plan, &shared)),
            bits(slow.predict(&plan))
        );
    }
}
