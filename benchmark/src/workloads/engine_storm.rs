//! `engine_storm`: `ExecutionEngine::run` and nothing else.
//!
//! One pass = `storm1024` ×1, `storm64` ×16, `single_large` ×24 — equal
//! host-time thirds. The grids are built as in
//! `ewc_bench::microbench::cases` (same segment counts, geometry and
//! memory mix), with every segment's solo time jittered ±2 % from the
//! seed so the event order — the engine's input — comes from the seed.
//! Transport, admission and decision do no work here, so a change to the
//! stack above the engine predicts *no change* on this workload. The
//! single-segment grid rides beside the storms because storm-shaped
//! engine work has regressed it before.

use std::hint::black_box;
use std::time::Instant;

use ewc_energy::GpuSystemPower;
use ewc_gpu::{
    ConsolidatedGrid, DispatchPolicy, ExecutionEngine, GpuConfig, Grid, SimOutcome, SimRng,
};

use crate::run::{Fingerprint, LayerReport, Rep, Workload};
use crate::spans::SpanLog;
use crate::stats::{latency_summary, median, sorted, tail_percentile};
use crate::workloads::compute_kernel;

/// The engine-only workload.
pub struct EngineStorm {
    engine: ExecutionEngine,
    /// `(span name, grid, runs per pass)`.
    cases: Vec<(&'static str, Grid, usize)>,
    passes: usize,
    seed: u64,
    /// Simulated joules of one pass; computed (untimed) by the first
    /// repetition, which also checks `run` against `run_reference`.
    energy_j: Option<f64>,
}

/// A `segments`-kernel consolidated storm with mixed compute/memory
/// intensity, block sizes and block counts.
fn storm_grid(segments: u32, rng: &mut SimRng) -> Grid {
    let mut storm = ConsolidatedGrid::new();
    for i in 0..segments {
        let tpb = 64 << (i % 3);
        let secs = (0.002 + 0.000131 * f64::from(i)) * rng.range_f64(0.98, 1.02);
        let mut b = compute_kernel("storm", tpb, secs);
        if i % 2 == 0 {
            b = b.coalesced_mem(2_000.0 + 500.0 * f64::from(i % 7));
        }
        if i % 4 == 3 {
            b = b.uncoalesced_mem(100.0);
        }
        storm = storm.add(Grid::single(b.build(), 17 + (i * 7) % 23));
    }
    storm.build()
}

impl EngineStorm {
    /// Build the three grids from `seed`.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x656e_6769_6e65);
        let single = Grid::single(
            compute_kernel("storm", 256, 0.01 * rng.range_f64(0.98, 1.02))
                .coalesced_mem(50.0)
                .build(),
            3840,
        );
        let (big, storm64_runs, single_runs) = if smoke { (128, 2, 2) } else { (1024, 16, 24) };
        EngineStorm {
            engine: ExecutionEngine::new(GpuConfig::tesla_c1060()),
            cases: vec![
                (
                    "ExecutionEngine::run[storm1024]",
                    storm_grid(big, &mut rng),
                    1,
                ),
                (
                    "ExecutionEngine::run[storm64]",
                    storm_grid(64, &mut rng),
                    storm64_runs,
                ),
                ("ExecutionEngine::run[single_large]", single, single_runs),
            ],
            passes: if smoke { 1 } else { 50 },
            seed,
            energy_j: None,
        }
    }

    /// Untimed, once: `run` must equal `run_reference` bit for bit on
    /// every grid, and the pass's simulated energy is the system integral
    /// of each run's activity profile.
    fn check_and_integrate(&mut self, violations: &mut Vec<String>) -> f64 {
        let sys = GpuSystemPower::tesla_system();
        let mut energy_j = 0.0;
        for (name, grid, runs) in &self.cases {
            let run = |reference: bool| -> SimOutcome {
                let policy = DispatchPolicy::default();
                if reference {
                    self.engine.run_reference(grid, policy)
                } else {
                    self.engine.run(grid, policy)
                }
                .expect("the storm grids are schedulable")
            };
            let outcome = run(false);
            if outcome != run(true) {
                violations.push(format!("{name}: run differs from run_reference"));
            }
            let e = sys.integrate(&outcome.intervals, outcome.elapsed_s, Some(self.seed));
            energy_j += e.energy_j * *runs as f64;
        }
        energy_j
    }
}

impl Workload for EngineStorm {
    fn rep(&mut self, mut spans: Option<&mut SpanLog>) -> Rep {
        let mut violations = Vec::new();
        let energy_j = match self.energy_j {
            Some(e) => e,
            None => {
                let e = self.check_and_integrate(&mut violations);
                self.energy_j = Some(e);
                e
            }
        };
        let blocks_per_pass: u64 = self
            .cases
            .iter()
            .map(|(_, g, runs)| u64::from(g.total_blocks()) * *runs as u64)
            .sum();
        let mut pass_us = Vec::with_capacity(self.passes);
        let mut run_s = Vec::new();
        let mut h = Fingerprint::default();
        let t_run = Instant::now();
        for pass in 0..self.passes {
            let t_pass = Instant::now();
            for (c, (name, grid, runs)) in self.cases.iter().enumerate() {
                for _ in 0..*runs {
                    let t = Instant::now();
                    let outcome = self
                        .engine
                        .run(grid, DispatchPolicy::default())
                        .expect("the storm grids are schedulable");
                    if let Some(log) = spans.as_deref_mut() {
                        log.push(0, c as u32 + 1, name, t, Instant::now());
                    }
                    if pass == 0 {
                        run_s.push(outcome.elapsed_s);
                        h.bits(&[outcome.elapsed_s]);
                        for iv in &outcome.intervals {
                            h.bits(&[iv.start_s, iv.dur_s]);
                        }
                    }
                    black_box(outcome);
                }
            }
            pass_us.push(t_pass.elapsed().as_secs_f64() * 1e6);
        }
        let wall_s = t_run.elapsed().as_secs_f64();
        Rep {
            wall_s,
            attempted: blocks_per_pass * self.passes as u64,
            completed: blocks_per_pass,
            failed: 0,
            refused: 0,
            op_us: latency_summary(&pass_us),
            sim_time_s: run_s.iter().sum(),
            sim_energy_j: energy_j,
            sim_p99_latency_s: tail_percentile(&sorted(&run_s)).0,
            fingerprint: h.finish(),
            violations,
        }
    }

    fn span_capacity(&self) -> usize {
        self.passes * self.cases.iter().map(|c| c.2).sum::<usize>()
    }

    fn layers(&mut self, spans: &SpanLog, out: &mut LayerReport) {
        let us = |name: &str| spans.durations_us(name);
        let v = &mut out.values;
        v.insert("gpu.run_us_storm1024", median(&us(self.cases[0].0)));
        v.insert("gpu.run_us_storm64", median(&us(self.cases[1].0)));
        v.insert("gpu.run_us_single_large", median(&us(self.cases[2].0)));
        let total_ns: u64 = spans.spans().iter().map(|s| s.end_ns - s.start_ns).sum();
        let blocks: u64 = self
            .cases
            .iter()
            .map(|(_, g, runs)| u64::from(g.total_blocks()) * *runs as u64)
            .sum::<u64>()
            * self.passes as u64;
        v.insert("gpu.launches", spans.spans().len() as f64);
        v.insert("gpu.ns_per_block", total_ns as f64 / blocks.max(1) as f64);
        v.insert(
            "gpu.replay_ns_per_op",
            total_ns as f64 / blocks.max(1) as f64,
        );

        // The energy layer on this workload's own activity profiles.
        let sys = GpuSystemPower::tesla_system();
        let integrate_us: Vec<f64> = self
            .cases
            .iter()
            .map(|(_, grid, _)| {
                let o = self
                    .engine
                    .run(grid, DispatchPolicy::default())
                    .expect("the storm grids are schedulable");
                let t = Instant::now();
                black_box(sys.integrate(&o.intervals, o.elapsed_s, Some(self.seed)));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        v.insert("energy.integrate_us_p50", median(&integrate_us));
    }
}
