//! The energy-aware decision engine (Section VII, Figure 6).
//!
//! For a candidate group the backend predicts three alternatives and
//! picks the lowest whole-system energy:
//!
//! * **Consolidate** — one merged kernel, time/power from the Section
//!   V/VI models;
//! * **SerialGpu** — the kernels one after another on the GPU (how GPUs
//!   are conventionally shared);
//! * **Cpu** — the instances on the multicore CPU under the OS scheduler
//!   (the paper assumes CPU performance and energy profiles are known;
//!   ours come from the per-workload [`ewc_cpu::CpuTask`] profiles).

use ewc_cpu::{CpuEngine, CpuPowerModel, CpuTask};
use ewc_models::{
    analyze, analyze_serial, choose_state, ConsolidationPlan, EnergyModel, PolicyKnob, Prediction,
    StateChoice,
};

use crate::config::PowerStatesConfig;

/// The predicted-energy margin consolidation must win by: merging
/// kernels has real coordination and contention costs the models cannot
/// see, so a predicted tie is not worth taking (the scenario-1 lesson).
pub const CONSOLIDATION_MARGIN: f64 = 0.02;

/// The chosen execution alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Merge into one kernel on the GPU.
    Consolidate,
    /// Run each kernel individually on the GPU.
    SerialGpu,
    /// Run the instances on the CPU.
    Cpu,
}

/// The power-state verdicts for the GPU alternatives, present only when
/// a [`PowerStatesConfig`] is wired into the engine.
#[derive(Debug, Clone)]
pub struct StateDecision {
    /// The knob that produced the verdicts.
    pub knob: PolicyKnob,
    /// Chosen operating point for the consolidated alternative.
    pub consolidated: StateChoice,
    /// Chosen operating point for the serial alternative.
    pub serial: StateChoice,
}

impl StateDecision {
    /// The state choice for the chosen GPU alternative (`None` for CPU).
    pub fn chosen(&self, choice: Choice) -> Option<&StateChoice> {
        match choice {
            Choice::Consolidate => Some(&self.consolidated),
            Choice::SerialGpu => Some(&self.serial),
            Choice::Cpu => None,
        }
    }
}

/// Predictions for all alternatives plus the verdict.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// The verdict.
    pub choice: Choice,
    /// Consolidated-GPU prediction.
    pub consolidated: Prediction,
    /// Serial-GPU prediction.
    pub serial: Prediction,
    /// CPU makespan prediction, seconds.
    pub cpu_time_s: f64,
    /// CPU whole-system energy prediction, joules.
    pub cpu_energy_j: f64,
    /// The energies the verdict compared, joules: consolidated with
    /// [`CONSOLIDATION_MARGIN`] applied, serial, CPU. Under a power
    /// policy the GPU two are the knob-chosen horizon energies.
    pub compared_j: [f64; 3],
    /// Power-state verdicts for the GPU alternatives (`None` when the
    /// engine runs without a power-state stack — the flat behaviour).
    pub state: Option<StateDecision>,
}

impl Assessment {
    /// Predicted time of the chosen alternative (in its chosen power
    /// state, when a state stack is active).
    pub fn chosen_time_s(&self) -> f64 {
        if let Some(c) = self.state.as_ref().and_then(|s| s.chosen(self.choice)) {
            return c.time_s;
        }
        match self.choice {
            Choice::Consolidate => self.consolidated.time_s,
            Choice::SerialGpu => self.serial.time_s,
            Choice::Cpu => self.cpu_time_s,
        }
    }

    /// Predicted whole-system energy of the chosen alternative (over the
    /// policy horizon, when a state stack is active).
    pub fn chosen_energy_j(&self) -> f64 {
        if let Some(c) = self.state.as_ref().and_then(|s| s.chosen(self.choice)) {
            return c.horizon_energy_j;
        }
        match self.choice {
            Choice::Consolidate => self.consolidated.system_energy_j,
            Choice::SerialGpu => self.serial.system_energy_j,
            Choice::Cpu => self.cpu_energy_j,
        }
    }
}

/// The decision engine.
pub struct DecisionEngine {
    energy: EnergyModel,
    cpu: CpuEngine,
    cpu_power: CpuPowerModel,
    power_states: Option<PowerPolicy>,
}

/// A wired power-state stack.
struct PowerPolicy {
    cfg: PowerStatesConfig,
    /// Per operating point, in ladder order: its level and the energy
    /// model rebound to it — `None` at the P0 anchor (`f = V = 1`), whose
    /// predictions are the flat ones every assessment already makes.
    points: Vec<(usize, Option<EnergyModel>)>,
}

impl PowerPolicy {
    /// One alternative at every operating point, ladder order: `p0` is
    /// its flat prediction, `predict` evaluates it on a rebound model.
    fn across(
        &self,
        p0: &Prediction,
        predict: impl Fn(&EnergyModel) -> Prediction,
    ) -> Vec<(usize, Prediction)> {
        self.points
            .iter()
            .map(|(level, model)| {
                let p = match model {
                    Some(m) => predict(m),
                    None => *p0,
                };
                (*level, p)
            })
            .collect()
    }
}

impl DecisionEngine {
    /// Compose from the GPU energy model and CPU simulator + power model.
    /// Consolidation must beat the alternatives by
    /// [`CONSOLIDATION_MARGIN`].
    pub fn new(energy: EnergyModel, cpu: CpuEngine, cpu_power: CpuPowerModel) -> Self {
        DecisionEngine {
            energy,
            cpu,
            cpu_power,
            power_states: None,
        }
    }

    /// Wire in a power-state stack: GPU alternatives are then evaluated
    /// across the ladder's operating points and compared at their
    /// knob-chosen states' horizon energies. Without this the engine is
    /// bit-identical to the flat (P0-only) behaviour.
    pub fn with_power_policy(mut self, cfg: PowerStatesConfig) -> Self {
        let points = cfg
            .table
            .operating_points()
            .map(|(level, state)| {
                let model = (!state.is_anchor()).then(|| self.energy.in_state(state));
                (level, model)
            })
            .collect();
        self.power_states = Some(PowerPolicy { cfg, points });
        self
    }

    /// The wired power-state stack, if any.
    pub fn power_policy(&self) -> Option<&PowerStatesConfig> {
        self.power_states.as_ref().map(|pp| &pp.cfg)
    }

    /// The GPU-side energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Assess a candidate group: `plan` describes the GPU side (template
    /// layout order), `cpu_tasks` the same instances as CPU jobs.
    pub fn assess(&self, plan: &ConsolidationPlan, cpu_tasks: &[CpuTask]) -> Assessment {
        // Three pure functions of about a microsecond each, evaluated
        // inline: handing them to threads costs more than running them.
        let cfg = self.energy.perf().config();
        let placement = analyze(plan, cfg);
        let runs = analyze_serial(plan, cfg);
        let consolidated = self.energy.predict_placed(plan, &placement);
        let serial = self.energy.predict_serial_placed(plan, &runs);
        let cpu_out = self.cpu.run(cpu_tasks);
        let cpu_energy = self.cpu_power.energy_j(&cpu_out);

        // Power-state pass, gated on the config so the flat path stays
        // bit-identical: evaluate both GPU alternatives across the
        // ladder's operating points and let the knob pick; the verdict
        // below then compares the knob-chosen horizon energies. Both
        // alternatives are placed once, above, for the whole ladder, and
        // nothing outlives this call.
        let state = self.power_states.as_ref().map(|pp| {
            let ps = &pp.cfg;
            let evals_c = pp.across(&consolidated, |m| m.predict_placed(plan, &placement));
            let evals_s = pp.across(&serial, |m| m.predict_serial_placed(plan, &runs));
            let idle_w = self.energy.idle_w();
            StateDecision {
                knob: ps.knob,
                consolidated: choose_state(&ps.table, &ps.knob, &evals_c, idle_w),
                serial: choose_state(&ps.table, &ps.knob, &evals_s, idle_w),
            }
        });
        let (cons_e, serial_e) = match &state {
            Some(sd) => (sd.consolidated.horizon_energy_j, sd.serial.horizon_energy_j),
            None => (consolidated.system_energy_j, serial.system_energy_j),
        };

        // Consolidation pays a benefit margin: it must clearly win.
        let compared_j = [cons_e * (1.0 + CONSOLIDATION_MARGIN), serial_e, cpu_energy];
        // total_cmp: a NaN prediction (degenerate model input) must not
        // panic the daemon — it sorts above every real energy and simply
        // never wins.
        let choice = [Choice::Consolidate, Choice::SerialGpu, Choice::Cpu]
            .into_iter()
            .zip(compared_j)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .unwrap_or(Choice::SerialGpu);

        Assessment {
            choice,
            consolidated,
            serial,
            cpu_time_s: cpu_out.makespan_s,
            cpu_energy_j: cpu_energy,
            compared_j,
            state,
        }
    }

    /// Simulate a CPU run (used when the verdict is [`Choice::Cpu`]).
    pub fn run_on_cpu(&self, tasks: &[CpuTask]) -> (f64, f64) {
        let out = self.cpu.run(tasks);
        (out.makespan_s, self.cpu_power.energy_j(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_cpu::CpuConfig;
    use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
    use ewc_gpu::{GpuConfig, KernelDesc};
    use ewc_models::{KernelSpec, PowerModel};

    fn engine() -> DecisionEngine {
        let cfg = GpuConfig::tesla_c1060();
        let coeffs = PowerCoefficients::train(
            &cfg,
            &GpuPowerGroundTruth::tesla_c1060(),
            &TrainingBenchmark::rodinia_suite(),
            42,
        )
        .unwrap();
        let energy = EnergyModel::new(
            cfg.clone(),
            PowerModel::new(coeffs, ThermalModel::gt200(), cfg),
            200.0,
        );
        DecisionEngine::new(
            energy,
            CpuEngine::new(CpuConfig::xeon_e5520_x2()),
            CpuPowerModel::xeon_e5520_x2(),
        )
    }

    fn compute(name: &str, secs: f64, blocks: u32) -> KernelSpec {
        let c = GpuConfig::tesla_c1060();
        KernelSpec::new(
            KernelDesc::builder(name)
                .threads_per_block(256)
                .comp_insts(secs * c.clock_hz / (8.0 * c.warp_issue_cycles()))
                .build(),
            blocks,
        )
    }

    #[test]
    fn many_small_instances_choose_consolidation() {
        let e = engine();
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::new();
        for _ in 0..9 {
            plan.push(compute("enc", 8.4, 3));
            tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
        }
        let a = e.assess(&plan, &tasks);
        assert_eq!(a.choice, Choice::Consolidate, "assessment: {a:?}");
        assert!(a.consolidated.system_energy_j < a.cpu_energy_j);
        assert!(a.consolidated.system_energy_j < a.serial.system_energy_j);
    }

    #[test]
    fn single_cpu_friendly_instance_chooses_cpu() {
        // One encryption instance: CPU is faster *and* the GPU system
        // idles at a higher floor — CPU must win.
        let e = engine();
        let plan = ConsolidationPlan::new().with(compute("enc", 8.4, 3));
        let tasks = [CpuTask::new("enc", 14.4, 2, 8 << 20)];
        let a = e.assess(&plan, &tasks);
        assert_eq!(a.choice, Choice::Cpu, "assessment: {a:?}");
    }

    #[test]
    fn gpu_friendly_instance_prefers_gpu() {
        // A MonteCarlo-like instance: 43 s GPU vs 306 s CPU.
        let e = engine();
        let plan = ConsolidationPlan::new().with(compute("mc", 43.2, 1));
        let tasks = [CpuTask::new("mc", 306.0, 1, 12 << 20)];
        let a = e.assess(&plan, &tasks);
        assert_ne!(a.choice, Choice::Cpu, "assessment: {a:?}");
    }

    /// The serial alternative assembled from public single-member
    /// calls: one prediction per member, sums in member order.
    fn serial_by_member(
        model: &EnergyModel,
        plan: &ConsolidationPlan,
        predict_one: impl Fn(&ConsolidationPlan) -> Prediction,
    ) -> Prediction {
        let (mut time_s, mut gpu_energy_j) = (0.0, 0.0);
        let mut last = predict_one(&ConsolidationPlan::new());
        for m in &plan.members {
            last = predict_one(&ConsolidationPlan::new().with(m.clone()));
            time_s += last.time_s;
            gpu_energy_j += last.gpu_energy_j;
        }
        Prediction {
            time_s,
            gpu_energy_j,
            system_energy_j: gpu_energy_j + model.idle_w() * time_s,
            ..last
        }
    }

    /// A state choice as exact bits: its labels, and the level, times
    /// and energies of the pick and of every candidate.
    fn state_choice_bits(c: &StateChoice) -> (Vec<&'static str>, Vec<u64>) {
        let mut names = vec![c.state];
        let mut bits = vec![
            c.level as u64,
            c.time_s.to_bits(),
            c.horizon_energy_j.to_bits(),
        ];
        for &(name, t, e) in &c.candidates {
            names.push(name);
            bits.extend([t.to_bits(), e.to_bits()]);
        }
        (names, bits)
    }

    #[test]
    fn assessment_equals_the_per_member_assembly() {
        let (a, b) = (compute("a", 6.0, 4), compute("b", 3.0, 2));
        let plans = [
            ConsolidationPlan::homogeneous(a.desc.clone(), 3, 9),
            ConsolidationPlan::new().with(a.clone()).with(b.clone()),
            ConsolidationPlan::new()
                .with(a.clone())
                .with(a.clone())
                .with(b.clone())
                .with(a.clone()),
            ConsolidationPlan::new().with(b.clone()),
        ];
        let deadline_s = 3.0 * engine().assess(&plans[0], &[]).consolidated.time_s;
        let policies = [
            None,
            Some(PowerStatesConfig::race()),
            Some(PowerStatesConfig::pace(deadline_s)),
            Some(PowerStatesConfig::cap(420.0)),
        ];
        let cpu = CpuEngine::new(CpuConfig::xeon_e5520_x2());
        for plan in &plans {
            let tasks: Vec<CpuTask> = plan
                .members
                .iter()
                .map(|m| CpuTask::new(&m.desc.name, 12.0, 2, 4 << 20))
                .collect();
            for policy in &policies {
                let e = match policy {
                    Some(ps) => engine().with_power_policy(ps.clone()),
                    None => engine(),
                };
                let got = e.assess(plan, &tasks);

                let model = e.energy_model();
                let consolidated = model.predict(plan);
                let serial = serial_by_member(model, plan, |p| model.predict(p));
                let cpu_out = cpu.run(&tasks);
                let cpu_energy_j = CpuPowerModel::xeon_e5520_x2().energy_j(&cpu_out);
                let state = policy.as_ref().map(|ps| {
                    let points = || ps.table.operating_points();
                    let evals_c: Vec<_> = points()
                        .map(|(l, s)| (l, model.predict_in_state(plan, s)))
                        .collect();
                    let evals_s: Vec<_> = points()
                        .map(|(l, s)| {
                            let one = |p: &ConsolidationPlan| model.predict_in_state(p, s);
                            (l, serial_by_member(model, plan, one))
                        })
                        .collect();
                    (
                        choose_state(&ps.table, &ps.knob, &evals_c, model.idle_w()),
                        choose_state(&ps.table, &ps.knob, &evals_s, model.idle_w()),
                    )
                });
                let (cons_e, serial_e) = match &state {
                    Some((c, s)) => (c.horizon_energy_j, s.horizon_energy_j),
                    None => (consolidated.system_energy_j, serial.system_energy_j),
                };
                let compared_j = [cons_e * 1.02, serial_e, cpu_energy_j];
                let choice = [Choice::Consolidate, Choice::SerialGpu, Choice::Cpu]
                    .into_iter()
                    .zip(compared_j)
                    .min_by(|x, y| x.1.total_cmp(&y.1))
                    .map(|(c, _)| c);

                assert_eq!(Some(got.choice), choice);
                // What the verdict compared is what the record shows:
                // under a policy, the knob-chosen horizon energies.
                assert_eq!(
                    got.compared_j.map(f64::to_bits),
                    compared_j.map(f64::to_bits)
                );
                for (g, want) in [(&got.consolidated, &consolidated), (&got.serial, &serial)] {
                    assert_eq!(g.time_s.to_bits(), want.time_s.to_bits());
                    assert_eq!(g.gpu_energy_j.to_bits(), want.gpu_energy_j.to_bits());
                    assert_eq!(g.system_energy_j.to_bits(), want.system_energy_j.to_bits());
                }
                assert_eq!(got.cpu_time_s.to_bits(), cpu_out.makespan_s.to_bits());
                assert_eq!(got.cpu_energy_j.to_bits(), cpu_energy_j.to_bits());
                assert_eq!(got.state.is_some(), state.is_some());
                if let (Some(g), Some((c, s))) = (&got.state, &state) {
                    assert_eq!(state_choice_bits(&g.consolidated), state_choice_bits(c));
                    assert_eq!(state_choice_bits(&g.serial), state_choice_bits(s));
                }
            }
        }
    }

    #[test]
    fn nan_descriptor_still_yields_a_verdict() {
        let mut bad = compute("nan", 6.0, 4);
        bad.desc.comp_insts = f64::NAN;
        let plan = ConsolidationPlan::new()
            .with(bad.clone())
            .with(bad)
            .with(compute("ok", 3.0, 2));
        let tasks = [CpuTask::new("nan", 12.0, 2, 4 << 20)];
        for e in [
            engine(),
            engine().with_power_policy(PowerStatesConfig::race()),
            engine().with_power_policy(PowerStatesConfig::cap(420.0)),
        ] {
            let a = e.assess(&plan, &tasks);
            assert!(a.cpu_energy_j.is_finite(), "assessment: {a:?}");
        }
    }

    #[test]
    fn an_unschedulable_plan_never_gets_a_gpu_verdict() {
        // 512 threads × 64 registers = 32,768 registers a block, where an
        // SM has 16,384: no block of this kernel can ever run.
        let mut huge = compute("huge", 6.0, 4).desc;
        huge.threads_per_block = 512;
        huge.regs_per_thread = 64;
        let plan = ConsolidationPlan::homogeneous(huge, 4, 3);
        let tasks: Vec<CpuTask> = (0..3)
            .map(|_| CpuTask::new("huge", 12.0, 2, 4 << 20))
            .collect();
        for e in [
            engine(),
            engine().with_power_policy(PowerStatesConfig::race()),
            engine().with_power_policy(PowerStatesConfig::pace(10.0)),
            engine().with_power_policy(PowerStatesConfig::cap(420.0)),
        ] {
            let a = e.assess(&plan, &tasks);
            assert_eq!(a.choice, Choice::Cpu, "assessment: {a:?}");
            for p in [&a.consolidated, &a.serial] {
                for v in [p.time_s, p.gpu_energy_j, p.system_energy_j] {
                    assert_eq!(v, f64::INFINITY, "assessment: {a:?}");
                }
            }
            if let Some(sd) = &a.state {
                for c in [&sd.consolidated, &sd.serial] {
                    assert_eq!(c.horizon_energy_j, f64::INFINITY, "{c:?}");
                    assert!(c
                        .candidates
                        .iter()
                        .all(|&(_, t, e)| t == f64::INFINITY && e == f64::INFINITY));
                }
            }
        }
    }

    #[test]
    fn power_policy_none_leaves_the_assessment_flat() {
        let plan = ConsolidationPlan::new().with(compute("a", 6.0, 4));
        let tasks = [CpuTask::new("a", 12.0, 2, 4 << 20)];
        let a = engine().assess(&plan, &tasks);
        assert!(a.state.is_none());
        assert_eq!(a.chosen_energy_j().to_bits(), {
            match a.choice {
                Choice::Consolidate => a.consolidated.system_energy_j.to_bits(),
                Choice::SerialGpu => a.serial.system_energy_j.to_bits(),
                Choice::Cpu => a.cpu_energy_j.to_bits(),
            }
        });
    }

    #[test]
    fn race_and_pace_pick_different_states_for_heavy_work() {
        // A full-tilt compute-heavy group: race pins P0, pace drops to a
        // lower operating point under a relaxed deadline.
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::new();
        for _ in 0..9 {
            plan.push(compute("enc", 8.4, 3));
            tasks.push(CpuTask::new("enc", 14.4, 2, 8 << 20));
        }
        let race = engine()
            .with_power_policy(PowerStatesConfig::race())
            .assess(&plan, &tasks);
        let rd = race.state.as_ref().expect("policy wired");
        assert_eq!(rd.consolidated.state, "p0");

        let deadline = race.consolidated.time_s * 3.0;
        let pace = engine()
            .with_power_policy(PowerStatesConfig::pace(deadline))
            .assess(&plan, &tasks);
        let pd = pace.state.as_ref().expect("policy wired");
        assert_ne!(pd.consolidated.state, "p0", "pace throttles under slack");
        assert!(pd.consolidated.time_s > rd.consolidated.time_s);
    }

    #[test]
    fn chosen_accessors_track_choice() {
        let e = engine();
        let plan = ConsolidationPlan::new()
            .with(compute("a", 5.0, 3))
            .with(compute("b", 5.0, 3));
        let tasks = [
            CpuTask::new("a", 10.0, 2, 1 << 20),
            CpuTask::new("b", 10.0, 2, 1 << 20),
        ];
        let a = e.assess(&plan, &tasks);
        let t = a.chosen_time_s();
        let en = a.chosen_energy_j();
        match a.choice {
            Choice::Consolidate => {
                assert_eq!(t, a.consolidated.time_s);
                assert_eq!(en, a.consolidated.system_energy_j);
            }
            Choice::SerialGpu => assert_eq!(t, a.serial.time_s),
            Choice::Cpu => assert_eq!(t, a.cpu_time_s),
        }
        assert!(en > 0.0);
    }
}
