//! The power model (Section VI).
//!
//! Dynamic power is Eq. 11 — `P_dyn = Σ aᵢ·eᵢ + λ` — evaluated on a
//! **virtual SM** whose event rates are the average over all SMs: total
//! predicted events divided by predicted time and SM count. The paper
//! motivates the averaging with a failed alternative (estimating each SM
//! separately and summing was 9× off for encryption+MC); that rejected
//! variant is kept here as [`PowerModel::predict_per_sm_sum_w`] for the
//! ablation benches.

use ewc_energy::{PowerCoefficients, ThermalModel};
use ewc_gpu::{BlockCost, EventRates, GpuConfig};

use crate::placement::Placement;
use crate::plan::{ConsolidationPlan, KernelSpec};

/// The consolidated-workload power model.
#[derive(Debug, Clone)]
pub struct PowerModel {
    coeffs: PowerCoefficients,
    thermal: ThermalModel,
    cfg: GpuConfig,
}

impl PowerModel {
    /// Build from trained coefficients.
    pub fn new(coeffs: PowerCoefficients, thermal: ThermalModel, cfg: GpuConfig) -> Self {
        PowerModel {
            coeffs,
            thermal,
            cfg,
        }
    }

    /// The trained coefficients.
    pub fn coefficients(&self) -> &PowerCoefficients {
        &self.coeffs
    }

    /// The same trained coefficients and thermal model rebound to a
    /// (typically clock-scaled) configuration — how a DVFS state reuses
    /// the P0 fit: the linear model evaluated at the slower rates
    /// carries the `f` factor for free.
    pub fn with_config(&self, cfg: GpuConfig) -> PowerModel {
        PowerModel {
            coeffs: self.coeffs.clone(),
            thermal: self.thermal.clone(),
            cfg,
        }
    }

    /// Predicted device-wide average event rates for a plan expected to
    /// run for `time_s` seconds, each SM busy until its `per_sm_finish`.
    pub fn predicted_rates(
        &self,
        plan: &ConsolidationPlan,
        placement: &Placement,
        time_s: f64,
        per_sm_finish: &[f64],
    ) -> EventRates {
        let busy: f64 = per_sm_finish.iter().sum();
        self.rates(
            &plan.members,
            &placement.class_of,
            &placement.costs,
            time_s,
            busy,
        )
    }

    /// [`Self::predicted_rates`] from the busy sum `busy_s` (Σ per-SM
    /// finish) and per-class `costs`.
    pub(crate) fn rates(
        &self,
        members: &[KernelSpec],
        class_of: &[usize],
        costs: &[BlockCost],
        time_s: f64,
        busy: f64,
    ) -> EventRates {
        let mut comp_ops = 0.0;
        let mut mem_txn = 0.0;
        let mut mem_bytes = 0.0;
        for (m, &class) in members.iter().zip(class_of) {
            let (blocks, cost) = (f64::from(m.blocks), &costs[class]);
            comp_ops += blocks * cost.comp_ops;
            mem_txn += blocks * cost.mem_requests;
            mem_bytes += blocks * cost.mem_bytes;
        }
        // Time-weighted active-SM fraction: each SM is active for its
        // predicted finish time out of the makespan.
        let active_frac = if time_s > 0.0 {
            (busy / (time_s * f64::from(self.cfg.num_sms))).min(1.0)
        } else {
            0.0
        };
        EventRates {
            comp_ops_per_s: comp_ops / time_s.max(1e-12),
            mem_txn_per_s: mem_txn / time_s.max(1e-12),
            bytes_per_s: mem_bytes / time_s.max(1e-12),
            active_sm_frac: active_frac,
            resident_warps: 0.0,
        }
    }

    /// Predict average dynamic power (virtual-SM method).
    pub fn predict_dyn_power_w(&self, rates: &EventRates) -> f64 {
        self.coeffs.predict_w(rates)
    }

    /// Predicted thermal (leakage) power at the steady state the dynamic
    /// power would drive the die to.
    pub fn predict_thermal_w(&self, p_dyn_w: f64) -> f64 {
        self.thermal
            .leakage_w(self.thermal.steady_state_dt(p_dyn_w))
    }

    /// The rejected per-SM-summation estimate: evaluate Eq. 11 per SM on
    /// that SM's own rates and add everything up. Kept for the ablation;
    /// grossly overestimates because the intercept and activity terms
    /// are paid once per SM ("prediction error ... 9X times different
    /// from the actual measurement").
    pub fn predict_per_sm_sum_w(
        &self,
        plan: &ConsolidationPlan,
        placement: &Placement,
        per_sm_finish: &[f64],
    ) -> f64 {
        let mut total = 0.0;
        for (sm, blocks) in placement.per_sm().enumerate() {
            if blocks.is_empty() {
                continue;
            }
            let t = per_sm_finish[sm].max(1e-12);
            let mut comp = 0.0;
            let mut txn = 0.0;
            for b in blocks {
                let c = &placement.costs[b.class];
                comp += c.comp_ops;
                txn += c.mem_requests;
            }
            let _ = plan;
            // Per-SM rates dressed up as "device" rates for one SM.
            let rates = EventRates {
                comp_ops_per_s: comp / t * f64::from(self.cfg.num_sms),
                mem_txn_per_s: txn / t * f64::from(self.cfg.num_sms),
                bytes_per_s: 0.0,
                active_sm_frac: 1.0,
                resident_warps: 0.0,
            };
            total += self.coeffs.predict_w(&rates);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::placement::analyze;
    use crate::plan::KernelSpec;
    use ewc_energy::{GpuPowerGroundTruth, TrainingBenchmark};
    use ewc_gpu::{DispatchPolicy, ExecutionEngine, GpuConfig, KernelDesc};

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c1060()
    }

    fn model() -> PowerModel {
        let coeffs = PowerCoefficients::train(
            &cfg(),
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        PowerModel::new(coeffs, ThermalModel::gt200(), cfg())
    }

    fn compute(name: &str, tpb: u32, secs: f64) -> KernelDesc {
        let c = cfg();
        let warps = f64::from(tpb.div_ceil(32));
        KernelDesc::builder(name)
            .threads_per_block(tpb)
            .comp_insts(secs * c.clock_hz / (warps * c.warp_issue_cycles()))
            .build()
    }

    /// Model-predicted vs ground-truth average power for a plan.
    fn predicted_vs_truth(plan: &ConsolidationPlan) -> (f64, f64) {
        let pm = model();
        let perf = PerfModel::new(cfg()).predict(plan);
        let placement = analyze(plan, &cfg());
        let rates = pm.predicted_rates(plan, &placement, perf.time_s, &perf.per_sm_finish);
        let predicted = pm.predict_dyn_power_w(&rates);

        // Ground truth from an actual engine run.
        let engine = ExecutionEngine::new(cfg());
        let out = engine
            .run(&plan.to_grid(), DispatchPolicy::default())
            .unwrap();
        let truth_src = GpuPowerGroundTruth::tesla_c1060();
        let mut e = 0.0;
        for iv in &out.intervals {
            e += truth_src.dyn_power_w(&iv.rates) * iv.dur_s;
        }
        (predicted, e / out.elapsed_s)
    }

    #[test]
    fn homogeneous_consolidation_power_within_10_percent() {
        for n in [1u32, 3, 6, 9] {
            let plan = ConsolidationPlan::homogeneous(compute("enc", 256, 8.4), 3, n);
            let (pred, truth) = predicted_vs_truth(&plan);
            let err = (pred - truth).abs() / truth;
            assert!(
                err < 0.10,
                "n={n}: pred {pred:.1} truth {truth:.1} ({:.1}%)",
                err * 100.0
            );
        }
    }

    #[test]
    fn heterogeneous_consolidation_power_within_10_percent() {
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(compute("a", 256, 10.0), 12))
            .with(KernelSpec::new(compute("b", 128, 5.0), 18));
        let (pred, truth) = predicted_vs_truth(&plan);
        let err = (pred - truth).abs() / truth;
        assert!(
            err < 0.10,
            "pred {pred:.1} truth {truth:.1} ({:.1}%)",
            err * 100.0
        );
    }

    #[test]
    fn per_sm_summation_grossly_overestimates() {
        let plan = ConsolidationPlan::homogeneous(compute("enc", 256, 8.4), 3, 6);
        let pm = model();
        let perf = PerfModel::new(cfg()).predict(&plan);
        let placement = analyze(&plan, &cfg());
        let rates = pm.predicted_rates(&plan, &placement, perf.time_s, &perf.per_sm_finish);
        let virtual_sm = pm.predict_dyn_power_w(&rates);
        let summed = pm.predict_per_sm_sum_w(&plan, &placement, &perf.per_sm_finish);
        assert!(
            summed > 4.0 * virtual_sm,
            "summation {summed:.0} W should dwarf virtual-SM {virtual_sm:.0} W"
        );
    }

    #[test]
    fn thermal_prediction_scales_with_power() {
        let pm = model();
        assert_eq!(pm.predict_thermal_w(0.0), 0.0);
        assert!(pm.predict_thermal_w(200.0) > pm.predict_thermal_w(100.0));
    }
}
