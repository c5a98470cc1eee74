//! `policy_storm`: `DecisionEngine::assess` and nothing else.
//!
//! The 64 consolidation groups are those of
//! `ewc_bench::microbench::policy_storm_case` (2–9 members, 2–3 s solo
//! kernels), with each group's solo time jittered ±5 % from the seed.
//! Every pass assesses each group under four engines — flat (no power
//! states), race-to-idle, pace (3× the slowest group's top-state time)
//! and cap (10 W under the hungriest group's top-state draw). Flat
//! beside the three knobs is the "same layer used differently" pair: a
//! change that memoises or prunes the per-state fan-out must speed the
//! knob engines and leave the flat one where it was.

use std::hint::black_box;
use std::time::Instant;

use ewc_core::{DecisionEngine, PowerStatesConfig};
use ewc_cpu::{CpuConfig, CpuEngine, CpuTask};
use ewc_gpu::SimRng;
use ewc_models::{choose_state, ConsolidationPlan, PolicyKnob};

use crate::replay;
use crate::run::{Fingerprint, LayerReport, Rep, Workload};
use crate::spans::SpanLog;
use crate::stats::{latency_summary, median, sorted, tail_percentile};
use crate::workloads::compute_kernel;

/// Engine labels, in assessment order; the span names carry them.
const ENGINES: [&str; 4] = [
    "DecisionEngine::assess[flat]",
    "DecisionEngine::assess[race]",
    "DecisionEngine::assess[pace]",
    "DecisionEngine::assess[cap]",
];

/// The decision-only workload.
pub struct PolicyStorm {
    groups: Vec<(ConsolidationPlan, Vec<CpuTask>)>,
    engines: Vec<DecisionEngine>,
    passes: usize,
    train_s: f64,
}

impl PolicyStorm {
    /// Generate the groups from `seed`, train the power model once and
    /// compose the four engines.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x706f_6c69_6379);
        let groups: Vec<(ConsolidationPlan, Vec<CpuTask>)> = (0..64u32)
            .map(|i| {
                let members = 2 + i % 8;
                let secs = (2.0 + 0.25 * f64::from(i % 5)) * rng.range_f64(0.95, 1.05);
                let plan = ConsolidationPlan::homogeneous(
                    compute_kernel("policy", 128, secs)
                        .coalesced_mem(50.0)
                        .build(),
                    3,
                    members,
                );
                let tasks = (0..members)
                    .map(|_| CpuTask::new("policy", secs * 1.7, 2, 8 << 20))
                    .collect();
                (plan, tasks)
            })
            .collect();

        // Probe the race verdicts to place the pace deadline and the
        // cap where they bite: every group has slack under the deadline,
        // and the cap forces the hungriest groups off the top state.
        let (coeffs, train_s) = replay::train_power_model();
        let flat = replay::decision_engine(&coeffs, None);
        let table = PowerStatesConfig::race().table;
        let (mut slowest_s, mut hungriest_w) = (0.0f64, 0.0f64);
        for (plan, _) in &groups {
            let evals: Vec<_> = table
                .operating_points()
                .map(|(l, s)| (l, flat.energy_model().predict_in_state(plan, s)))
                .collect();
            let race = choose_state(
                &table,
                &PolicyKnob::RaceToIdle,
                &evals,
                flat.energy_model().idle_w(),
            );
            slowest_s = slowest_s.max(race.time_s);
            hungriest_w = hungriest_w.max(race.horizon_energy_j / race.time_s);
        }
        let engines = vec![
            flat,
            replay::decision_engine(&coeffs, Some(&PowerStatesConfig::race())),
            replay::decision_engine(&coeffs, Some(&PowerStatesConfig::pace(3.0 * slowest_s))),
            replay::decision_engine(&coeffs, Some(&PowerStatesConfig::cap(hungriest_w - 10.0))),
        ];
        PolicyStorm {
            groups,
            engines,
            passes: if smoke { 2 } else { 50 },
            train_s,
        }
    }
}

impl Workload for PolicyStorm {
    fn rep(&mut self, mut spans: Option<&mut SpanLog>) -> Rep {
        let per_pass = self.engines.len() * self.groups.len();
        let mut assess_us = Vec::with_capacity(self.passes * per_pass);
        let mut chosen = Vec::with_capacity(per_pass);
        let mut non_finite = 0u64;
        let t_run = Instant::now();
        for pass in 0..self.passes {
            for (e, engine) in self.engines.iter().enumerate() {
                for (g, (plan, tasks)) in self.groups.iter().enumerate() {
                    let t = Instant::now();
                    let a = engine.assess(plan, tasks);
                    let t_end = Instant::now();
                    assess_us.push((t_end - t).as_secs_f64() * 1e6);
                    if let Some(log) = spans.as_deref_mut() {
                        log.push(0, g as u32 + 1, ENGINES[e], t, t_end);
                    }
                    let (time_s, energy_j) = (a.chosen_time_s(), a.chosen_energy_j());
                    if !(time_s.is_finite() && energy_j.is_finite()) {
                        non_finite += 1;
                    }
                    if pass == 0 {
                        chosen.push((time_s, energy_j, a.choice));
                    }
                    black_box(a);
                }
            }
        }
        let wall_s = t_run.elapsed().as_secs_f64();

        let mut h = Fingerprint::default();
        for (t, e, c) in &chosen {
            h.bits(&[*t, *e]);
            h.debug(c);
        }
        let times: Vec<f64> = chosen.iter().map(|c| c.0).collect();
        Rep {
            wall_s,
            attempted: (self.passes * per_pass) as u64,
            completed: per_pass as u64,
            failed: non_finite,
            refused: 0,
            op_us: latency_summary(&assess_us),
            sim_time_s: times.iter().sum(),
            sim_energy_j: chosen.iter().map(|c| c.1).sum(),
            sim_p99_latency_s: tail_percentile(&sorted(&times)).0,
            fingerprint: h.finish(),
            violations: Vec::new(),
        }
    }

    fn span_capacity(&self) -> usize {
        self.passes * self.engines.len() * self.groups.len()
    }

    fn layers(&mut self, spans: &SpanLog, out: &mut LayerReport) {
        let us = |name: &str| spans.durations_us(name);
        let (p50, tail, _) = latency_summary(&us("DecisionEngine::assess"));
        let v = &mut out.values;
        v.insert("decision.count", spans.spans().len() as f64);
        v.insert("decision.assess_us_p50", p50);
        v.insert("decision.assess_us_p99", tail);
        v.insert("decision.assess_us_flat", median(&us(ENGINES[0])));
        v.insert("decision.assess_us_race", median(&us(ENGINES[1])));
        v.insert("decision.assess_us_pace", median(&us(ENGINES[2])));
        v.insert("decision.assess_us_cap", median(&us(ENGINES[3])));
        v.insert("energy.train_s", self.train_s);

        let (mut candidates, mut gpu_choices, mut n) = (0usize, 0usize, 0usize);
        for engine in &self.engines {
            for (plan, tasks) in &self.groups {
                let a = engine.assess(plan, tasks);
                candidates += a.state.as_ref().map_or(3, |s| {
                    s.consolidated.candidates.len() + s.serial.candidates.len() + 1
                });
                gpu_choices += usize::from(a.choice != ewc_core::Choice::Cpu);
                n += 1;
            }
        }
        v.insert(
            "decision.candidates_per_assess",
            candidates as f64 / n as f64,
        );
        v.insert("decision.gpu_choice_frac", gpu_choices as f64 / n as f64);

        // The CPU simulation inside every `assess`, alone.
        let cpu = CpuEngine::new(CpuConfig::xeon_e5520_x2());
        let cpu_us: Vec<f64> = self
            .groups
            .iter()
            .map(|(_, tasks)| {
                let t = Instant::now();
                black_box(cpu.run(tasks));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        v.insert("cpu.run_us_p50", median(&cpu_us));

        let plans: Vec<ConsolidationPlan> = self.groups.iter().map(|g| g.0.clone()).collect();
        replay::model_probes(self.engines[0].energy_model(), &plans, out);
    }
}
