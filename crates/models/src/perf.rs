//! The performance model (Section V).
//!
//! Given a plan, the model:
//!
//! 1. statically places blocks with [`crate::placement::analyze`];
//! 2. estimates each SM's busy time phase by phase with the
//!    "one big workload" formula `max(Σ dᵢ·tᵢ, max tᵢ)`;
//! 3. applies a *static* global-bandwidth-sharing penalty: the total
//!    bandwidth demand of all placed blocks, assumed concurrent for the
//!    whole run ("our model assumes bandwidth sharing always happens" —
//!    the paper's acknowledged source of error vs. reality, where SMs
//!    that finish early relieve the pressure);
//! 4. reports the makespan (the critical SMs' finish time) and
//!    per-member completion estimates.

use ewc_gpu::{BlockCost, GpuConfig};

use crate::placement::{analyze, same_blocks, PlacedBlock, Placement};
use crate::plan::ConsolidationPlan;

/// What one pass over a placement's SMs folds: the scalars every
/// prediction needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmPass {
    /// The makespan: the latest SM finish.
    pub time_s: f64,
    /// Σ finish over the busy SMs, in SM order.
    pub busy_s: f64,
    /// The static bandwidth over-subscription factor applied (≥ 1).
    pub bw_stretch: f64,
}

/// One phase of one SM: the interleaving-aware time of its co-scheduled
/// blocks, `max(Σ dᵢ·tᵢ, max tᵢ)` — treat them "as one single big
/// workload" (Section V) — stretched on its memory-bound share by the
/// static bandwidth penalty.
fn phase_time<'a>(blocks: impl Iterator<Item = &'a BlockCost>, bw_stretch: f64) -> f64 {
    let (mut issue, mut longest, mut mem, mut solo) = (0.0_f64, 0.0_f64, 0.0, 0.0);
    for c in blocks {
        issue += c.issue_demand * c.t_solo_s;
        longest = longest.max(c.t_solo_s);
        mem += c.mem_fraction * c.t_solo_s;
        solo += c.t_solo_s;
    }
    let t_base = issue.max(longest);
    let mem_weight = mem / solo;
    t_base * ((1.0 - mem_weight) + mem_weight * bw_stretch)
}

/// The performance model's one per-SM pass: each busy SM's finish time
/// from `costs` (per cost class) under the static bandwidth penalty,
/// handed to `each` with the SM's index and blocks, and folded into an
/// [`SmPass`]. An SM holding the same work as the previous busy SM
/// reuses its finish, so a homogeneous plan costs one SM's arithmetic.
pub(crate) fn sm_pass(
    placement: &Placement,
    costs: &[BlockCost],
    dram_bandwidth: f64,
    mut each: impl FnMut(usize, &[PlacedBlock], f64),
) -> SmPass {
    // Static bandwidth demand: every placed block assumed streaming
    // concurrently at its issue-shared rate.
    let mut demand = 0.0;
    let mut prev: (&[PlacedBlock], f64) = (&[], 1.0);
    for blocks in placement.per_sm().filter(|b| !b.is_empty()) {
        if !same_blocks(blocks, prev.0) {
            let sum_d: f64 = blocks.iter().map(|b| costs[b.class].issue_demand).sum();
            prev = (blocks, if sum_d > 1.0 { 1.0 / sum_d } else { 1.0 });
        }
        for b in blocks {
            demand += costs[b.class].bw_solo * prev.1;
        }
    }
    let bw_stretch = (demand / dram_bandwidth).max(1.0);

    let (mut time_s, mut busy_s) = (0.0_f64, 0.0);
    let mut prev: (&[PlacedBlock], f64) = (&[], 0.0);
    for (sm, blocks) in placement.per_sm().enumerate() {
        if blocks.is_empty() {
            continue;
        }
        if !same_blocks(blocks, prev.0) {
            // An SM's phase-0 blocks precede its phase-1 blocks.
            let (initial, redistributed) =
                blocks.split_at(blocks.partition_point(|b| b.phase == 0));
            let mut finish = 0.0;
            for phase in [initial, redistributed] {
                if !phase.is_empty() {
                    finish += phase_time(phase.iter().map(|b| &costs[b.class]), bw_stretch);
                }
            }
            prev = (blocks, finish);
        }
        let finish = prev.1;
        time_s = time_s.max(finish);
        busy_s += finish;
        each(sm, blocks, finish);
    }
    SmPass {
        time_s,
        busy_s,
        bw_stretch,
    }
}

/// Output of the performance model.
#[derive(Debug, Clone)]
pub struct PerfPrediction {
    /// Predicted execution time of the consolidated kernel (seconds).
    pub time_s: f64,
    /// Predicted finish time per SM.
    pub per_sm_finish: Vec<f64>,
    /// The critical SMs (argmax of finish).
    pub critical_sms: Vec<u32>,
    /// Predicted finish time per plan member.
    pub member_finish: Vec<f64>,
    /// SMs holding at least one block.
    pub sms_used: usize,
    /// True if no SM holds more than one block (the paper's type 1).
    pub is_type1: bool,
    /// The static bandwidth over-subscription factor applied (≥ 1).
    pub bw_stretch: f64,
}

/// The analytical performance model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: GpuConfig,
}

impl PerfModel {
    /// Model for a device configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        PerfModel { cfg }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Predict the consolidated execution time of `plan`.
    pub fn predict(&self, plan: &ConsolidationPlan) -> PerfPrediction {
        let placement = analyze(plan, &self.cfg);
        self.predict_placed(plan, &placement)
    }

    /// Predict from an existing placement (lets callers reuse one
    /// placement across the performance and power models).
    pub fn predict_placed(
        &self,
        plan: &ConsolidationPlan,
        placement: &Placement,
    ) -> PerfPrediction {
        let mut per_sm_finish = vec![0.0_f64; self.cfg.num_sms as usize];
        let mut member_finish = vec![0.0_f64; plan.members.len()];
        let pass = sm_pass(
            placement,
            &placement.costs,
            self.cfg.dram_bandwidth,
            |sm, blocks, finish| {
                per_sm_finish[sm] = finish;
                for b in blocks {
                    member_finish[b.member] = member_finish[b.member].max(finish);
                }
            },
        );

        let time_s = pass.time_s;
        let critical = |t: &f64| *t > 0.0 && (time_s - t) <= time_s * 1e-9;
        let mut critical_sms =
            Vec::with_capacity(per_sm_finish.iter().filter(|t| critical(t)).count());
        critical_sms.extend(
            (0u32..)
                .zip(&per_sm_finish)
                .filter(|(_, t)| critical(t))
                .map(|(sm, _)| sm),
        );
        PerfPrediction {
            time_s,
            critical_sms,
            member_finish,
            sms_used: placement.sms_used(),
            is_type1: placement.is_type1(),
            bw_stretch: pass.bw_stretch,
            per_sm_finish,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;
    use crate::plan::KernelSpec;
    use crate::power::PowerModel;
    use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
    use ewc_gpu::{DispatchPolicy, ExecutionEngine, KernelDesc};

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c1060()
    }

    fn compute(name: &str, tpb: u32, regs: u32, secs: f64) -> KernelDesc {
        let c = cfg();
        let warps = f64::from(tpb.div_ceil(32));
        KernelDesc::builder(name)
            .threads_per_block(tpb)
            .regs_per_thread(regs)
            .comp_insts(secs * c.clock_hz / (warps * c.warp_issue_cycles()))
            .build()
    }

    /// Relative error of the model against the engine for a plan.
    fn model_vs_engine(plan: &ConsolidationPlan) -> (f64, f64, f64) {
        let model = PerfModel::new(cfg());
        let predicted = model.predict(plan).time_s;
        let engine = ExecutionEngine::new(cfg());
        let measured = engine
            .run(&plan.to_grid(), DispatchPolicy::default())
            .unwrap()
            .elapsed_s;
        ((predicted - measured).abs() / measured, predicted, measured)
    }

    #[test]
    fn type1_single_kernel_is_exact() {
        let plan = ConsolidationPlan::new().with(KernelSpec::new(compute("k", 256, 16, 2.0), 30));
        let (err, p, m) = model_vs_engine(&plan);
        assert!(err < 1e-6, "pred {p} vs meas {m}");
        let pred = PerfModel::new(cfg()).predict(&plan);
        assert!(pred.is_type1);
        assert_eq!(pred.sms_used, 30);
    }

    #[test]
    fn type1_pair_within_tolerance() {
        // Two kernels, ≤ 30 blocks total: the Figure 3 configuration.
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(compute("a", 256, 16, 3.0), 12))
            .with(KernelSpec::new(compute("b", 128, 16, 1.5), 18));
        let pred = PerfModel::new(cfg()).predict(&plan);
        assert!(pred.is_type1);
        let (err, p, m) = model_vs_engine(&plan);
        assert!(err < 0.05, "pred {p} vs meas {m}");
    }

    #[test]
    fn type2_scenario1_shape_within_12_percent() {
        // The Table 2 shape: short register-heavy kernel + long
        // occupancy-1 kernel. The paper reports < 12% error for type 2.
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(compute("enc", 256, 40, 19.5), 15))
            .with(KernelSpec::new(compute("mc", 128, 68, 31.2), 45));
        let (err, p, m) = model_vs_engine(&plan);
        assert!(err < 0.12, "pred {p} vs meas {m} (err {:.1}%)", err * 100.0);
        // Critical SMs are the first 15.
        let pred = PerfModel::new(cfg()).predict(&plan);
        assert_eq!(pred.critical_sms, (0..15).collect::<Vec<u32>>());
    }

    #[test]
    fn type2_interleaving_shape_within_12_percent() {
        // The Table 3 shape: latency-bound kernel + compute-bound kernel.
        let mut search = KernelDesc::builder("search").threads_per_block(256).build();
        search.uncoalesced_mem = 3.0e6;
        search.regs_per_thread = 16;
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(search, 15))
            .with(KernelSpec::new(compute("bs", 256, 28, 13.2), 45));
        let (err, p, m) = model_vs_engine(&plan);
        assert!(err < 0.12, "pred {p} vs meas {m} (err {:.1}%)", err * 100.0);
    }

    /// The serial alternative's time, from the energy model that owns it.
    fn serial_time_s(plan: &ConsolidationPlan) -> f64 {
        let coeffs = PowerCoefficients::train(
            &cfg(),
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        let power = PowerModel::new(coeffs, ThermalModel::gt200(), cfg());
        EnergyModel::new(cfg(), power, 200.0)
            .predict_serial(plan)
            .time_s
    }

    #[test]
    fn serial_prediction_sums_members() {
        let a = KernelSpec::new(compute("a", 256, 16, 2.0), 10);
        let b = KernelSpec::new(compute("b", 256, 16, 3.0), 10);
        let serial = serial_time_s(&ConsolidationPlan::new().with(a.clone()).with(b.clone()));
        assert!((serial - 5.0).abs() < 1e-6);
    }

    #[test]
    fn consolidation_beats_serial_for_underutilising_kernels() {
        // Nine 3-block instances: serial = 9 × t, consolidated ≈ t.
        let model = PerfModel::new(cfg());
        let plan = ConsolidationPlan::homogeneous(compute("enc", 256, 20, 8.4), 3, 9);
        let pred = model.predict(&plan);
        let serial = serial_time_s(&plan);
        assert!(
            (pred.time_s - 8.4).abs() / 8.4 < 0.02,
            "consolidated {}",
            pred.time_s
        );
        assert!((serial - 9.0 * 8.4).abs() / (9.0 * 8.4) < 0.02);
    }

    #[test]
    fn phase_time_interleaves_below_saturation() {
        let c = cfg();
        let mem = {
            let mut d = KernelDesc::builder("m").threads_per_block(64).build();
            d.uncoalesced_mem = 1e5;
            BlockCost::derive(&d, &c)
        };
        let comp = BlockCost::derive(&compute("c", 64, 16, mem.t_solo_s * 0.4), &c);
        let t = phase_time([&mem, &comp].into_iter(), 1.0);
        // Σd·t small; the long memory block dominates.
        assert!((t - mem.t_solo_s).abs() / mem.t_solo_s < 0.2);
        // Two compute blocks serialise.
        let t2 = phase_time([&comp, &comp].into_iter(), 1.0);
        assert!((t2 - 2.0 * comp.t_solo_s).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_stretch_reported_when_oversubscribed() {
        let mut k = KernelDesc::builder("stream").threads_per_block(512).build();
        k.coalesced_mem = 1e6;
        let plan = ConsolidationPlan::new().with(KernelSpec::new(k, 60));
        let pred = PerfModel::new(cfg()).predict(&plan);
        assert!(
            pred.bw_stretch > 1.0,
            "60 streaming blocks must oversubscribe DRAM"
        );
    }
}
