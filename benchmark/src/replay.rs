//! Replays and isolated probes of single layers, through their public
//! entry points.
//!
//! The backend's work happens on its own thread behind `launch_with`, so
//! the driver cannot put a span around admission or a decision. Instead
//! the traced run feeds each backend-side layer the inputs the run
//! recorded — the admit sequence, one `assess` per consolidation record,
//! one `ExecutionEngine::run` per flushed grid, one `integrate` per
//! launch, one `place` per context — and times that.
//!
//! What these numbers can say: how much host time the layer's own code
//! needs for this workload's inputs, and how that moves between two
//! commits. What they cannot say: how long work *waited* for the layer,
//! or what the layer costs with the rest of the stack evicting its cache
//! lines — a replay runs hot and alone.

use std::hint::black_box;
use std::time::Instant;

use ewc_core::admission::AdmissionState;
use ewc_core::{
    AdmissionConfig, BackendStats, Choice, ConsolidationRecord, DecisionEngine, PowerStatesConfig,
    Priority, Runtime, RuntimeConfig,
};
use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel, CpuTask};
use ewc_energy::{
    GpuSystemPower, PowerCoefficients, PowerStateModel, ThermalModel, TrainingBenchmark,
};
use ewc_exec::{EventQueue, VirtualClock};
use ewc_fleet::{FleetConfig, FleetGovernor, ResiliencePolicy};
use ewc_gpu::{DispatchPolicy, ExecutionEngine, GpuConfig, Grid};
use ewc_models::{choose_state, ConsolidationPlan, EnergyModel, KernelSpec, PowerModel};
use ewc_telemetry::TelemetrySink;
use ewc_workloads::Workload as Kernel;

use crate::run::LayerReport;
use crate::stats::{latency_summary, median};

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Train the power model as `RuntimeBuilder::build` does (same suite,
/// same training seed). Returns the coefficients and the host seconds
/// training took.
pub fn train_power_model() -> (PowerCoefficients, f64) {
    let cfg = GpuConfig::tesla_c1060();
    let t = Instant::now();
    let coeffs = PowerCoefficients::train(
        &cfg,
        &GpuSystemPower::tesla_system().truth,
        &TrainingBenchmark::rodinia_suite(),
        42,
    )
    .expect("power-model training must converge");
    (coeffs, t.elapsed().as_secs_f64())
}

/// Compose the decision engine exactly as `RuntimeBuilder::build` does.
pub fn decision_engine(
    coeffs: &PowerCoefficients,
    power: Option<&PowerStatesConfig>,
) -> DecisionEngine {
    let cfg = GpuConfig::tesla_c1060();
    let energy = EnergyModel::new(
        cfg.clone(),
        PowerModel::new(coeffs.clone(), ThermalModel::gt200(), cfg),
        GpuSystemPower::tesla_system().idle_w,
    );
    let engine = DecisionEngine::new(
        energy,
        CpuEngine::new(CpuConfig::xeon_e5520_x2()),
        CpuPowerModel::xeon_e5520_x2(),
    );
    match power {
        Some(ps) => engine.with_power_policy(ps.clone()),
        None => engine,
    }
}

/// `EventQueue::schedule` + `pop` in isolation, at the workload's peak
/// queue length (every arrival is scheduled before the first fires):
/// fill with the run's own arrival instants, then pop one / schedule one
/// `len` times. Returns ns per schedule+pop pair.
pub fn queue_ns_per_op(due_s: &[f64]) -> f64 {
    if due_s.is_empty() {
        return 0.0;
    }
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &t) in due_s.iter().enumerate() {
        q.schedule(t, i as u32);
    }
    let horizon = due_s.iter().copied().fold(0.0, f64::max);
    let t = Instant::now();
    for i in 0..due_s.len() {
        let ev = q.pop().expect("the queue stays full");
        q.schedule(ev.time_s + horizon, i as u32);
    }
    elapsed_ns(t) / due_s.len() as f64
}

/// Host↔device staging copies through a frontend, MB per host second:
/// `bytes`-sized `memcpy_h2d` + `memcpy_d2h` pairs on an otherwise idle
/// runtime.
pub fn memcpy_mb_per_s(bytes: usize) -> f64 {
    const PAIRS: usize = 64;
    let rt = Runtime::builder(RuntimeConfig::default()).build();
    let fe = rt.connect();
    let data = vec![0xA5u8; bytes];
    let ptr = fe.malloc(bytes as u64).expect("probe malloc");
    let t = Instant::now();
    for _ in 0..PAIRS {
        fe.memcpy_h2d(ptr, 0, &data).expect("probe h2d");
        black_box(fe.memcpy_d2h(ptr, 0, bytes as u64).expect("probe d2h"));
    }
    let secs = t.elapsed().as_secs_f64();
    drop(fe);
    rt.shutdown();
    (2 * PAIRS * bytes) as f64 / 1e6 / secs
}

/// One backend session to replay: its statistics and the workloads it
/// registered, by registry name.
pub struct Session<'a> {
    /// What the backend reported at shutdown.
    pub stats: &'a BackendStats,
    /// Registry name → workload.
    pub kernels: Vec<(&'a str, &'a dyn Kernel)>,
}

impl<'a> Session<'a> {
    fn kernel(&self, name: &str) -> &'a dyn Kernel {
        self.kernels
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .expect("every recorded kernel was registered")
    }

    /// The plan and CPU tasks the backend built for `rec`'s group.
    fn group(&self, rec: &ConsolidationRecord) -> (ConsolidationPlan, Vec<CpuTask>) {
        let mut plan = ConsolidationPlan::new();
        let mut tasks = Vec::with_capacity(rec.kernels.len());
        for name in &rec.kernels {
            let w = self.kernel(name);
            plan.push(KernelSpec::new(w.desc(), w.blocks()));
            tasks.push(w.cpu_task());
        }
        (plan, tasks)
    }
}

/// Counts the backend keeps itself (they repeat exactly for a seed),
/// summed over the sessions.
pub fn backend_counts(sessions: &[Session], out: &mut LayerReport) {
    let sum = |f: &dyn Fn(&BackendStats) -> u64| -> f64 {
        sessions.iter().map(|s| f(s.stats)).sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let flushes = sum(&|s| s.records.len() as u64);
    let members = sum(&|s| s.records.iter().map(|r| r.kernels.len() as u64).sum());
    let launches = sum(&|s| s.launches);
    let v = &mut out.values;
    v.insert("backend.flushes", flushes);
    v.insert("backend.mean_batch", ratio(members, flushes));
    v.insert(
        "backend.consolidated_frac",
        ratio(sum(&|s| s.consolidated_launches), launches),
    );
    v.insert("backend.cpu_fallbacks", sum(&|s| s.cpu_fallbacks));
    v.insert("gpu.launches", launches);
    v.insert("cpu.executions", sum(&|s| s.cpu_executions));
    v.insert("fleet.placements", sum(&|s| s.placements.len() as u64));
    v.insert("fleet.state_changes", sum(&|s| s.state_changes));
    v.insert("fleet.cap_redirects", sum(&|s| s.cap_redirects));
    v.insert("fleet.migrations", sum(&|s| s.migrations));
    // The repo's only reference for model accuracy is its own simulator:
    // this is predicted-vs-simulated, not predicted-vs-hardware.
    let errs: Vec<f64> = sessions
        .iter()
        .flat_map(|s| &s.stats.records)
        .filter(|r| r.actual_time_s > 0.0)
        .map(|r| (r.predicted_time_s - r.actual_time_s).abs() / r.actual_time_s)
        .collect();
    let (p50, tail, _) = latency_summary(&errs);
    v.insert("models.time_err_p50", p50);
    v.insert("models.time_err_p99", tail);
}

/// Replay `AdmissionState::admit` on the recorded attempt sequence.
/// Queue depths are invisible from outside the backend, so they replay
/// as zero: the priority filter and the token bucket run as recorded,
/// the two depth compares always pass. Returns the total in ns.
pub fn admission(
    cfg: &AdmissionConfig,
    attempts: &[(f64, Priority, u32)],
    out: &mut LayerReport,
) -> f64 {
    let mut state = AdmissionState::new(cfg.clone());
    let t = Instant::now();
    for &(now_s, priority, attempt) in attempts {
        black_box(state.admit(now_s, 0, 0, priority, attempt));
    }
    let total = elapsed_ns(t);
    out.values
        .insert("admission.admit_ns", total / attempts.len().max(1) as f64);
    total
}

/// Host nanoseconds the replayed backend-side layers took in total.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendNs {
    /// Σ `DecisionEngine::assess`.
    pub decision_ns: f64,
    /// Σ `ExecutionEngine::run`.
    pub gpu_ns: f64,
    /// Σ `CpuEngine::run` for groups the backend sent to the CPU.
    pub cpu_ns: f64,
    /// Σ `GpuSystemPower::integrate`.
    pub energy_ns: f64,
}

/// Replay decision, GPU engine, CPU engine and energy integration on the
/// sessions' consolidation records. The replay uses the C1060 preset for
/// every device and the top operating point, as the decision engine does;
/// a fleet's scaled devices and DVFS-slowed launches are not re-created.
pub fn backend_layers(
    sessions: &[Session],
    power: Option<&PowerStatesConfig>,
    seed: u64,
    ops: f64,
    out: &mut LayerReport,
) -> BackendNs {
    let (coeffs, train_s) = train_power_model();
    let decision = decision_engine(&coeffs, power);
    let gpu = ExecutionEngine::new(GpuConfig::tesla_c1060());
    let cpu = CpuEngine::new(CpuConfig::xeon_e5520_x2());
    let sys = GpuSystemPower::tesla_system();

    let mut ns = BackendNs::default();
    let (mut assess_us, mut cpu_us, mut integrate_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut records, mut candidates, mut gpu_choices, mut blocks) = (0usize, 0usize, 0usize, 0u64);
    let mut launch = |grid: &Grid, ns: &mut BackendNs| {
        blocks += u64::from(grid.total_blocks());
        let t = Instant::now();
        let o = gpu
            .run(grid, DispatchPolicy::default())
            .expect("replayed grid runs");
        ns.gpu_ns += elapsed_ns(t);
        let t = Instant::now();
        black_box(sys.integrate(&o.intervals, o.elapsed_s, Some(seed)));
        let dt = elapsed_ns(t);
        ns.energy_ns += dt;
        integrate_us.push(dt / 1e3);
    };
    for session in sessions {
        for rec in &session.stats.records {
            records += 1;
            let (plan, tasks) = session.group(rec);
            let t = Instant::now();
            let a = decision.assess(&plan, &tasks);
            let dt = elapsed_ns(t);
            ns.decision_ns += dt;
            assess_us.push(dt / 1e3);
            candidates += a.state.as_ref().map_or(3, |s| {
                s.consolidated.candidates.len() + s.serial.candidates.len() + 1
            });
            black_box(a);

            match rec.choice {
                Choice::Consolidate => {
                    gpu_choices += 1;
                    launch(&plan.to_grid(), &mut ns);
                }
                Choice::SerialGpu => {
                    gpu_choices += 1;
                    for name in &rec.kernels {
                        let w = session.kernel(name);
                        launch(&Grid::single(w.desc(), w.blocks()), &mut ns);
                    }
                }
                Choice::Cpu => {
                    let t = Instant::now();
                    black_box(cpu.run(&tasks));
                    let dt = elapsed_ns(t);
                    ns.cpu_ns += dt;
                    cpu_us.push(dt / 1e3);
                }
            }
        }
    }

    let n = records.max(1) as f64;
    let v = &mut out.values;
    let (p50, tail, _) = latency_summary(&assess_us);
    v.insert("decision.count", records as f64);
    v.insert("decision.assess_us_p50", p50);
    v.insert("decision.assess_us_p99", tail);
    v.insert("decision.candidates_per_assess", candidates as f64 / n);
    v.insert("decision.gpu_choice_frac", gpu_choices as f64 / n);
    v.insert("gpu.replay_ns_per_op", ns.gpu_ns / ops);
    v.insert(
        "gpu.ns_per_block",
        if blocks > 0 {
            ns.gpu_ns / blocks as f64
        } else {
            0.0
        },
    );
    v.insert("cpu.run_us_p50", median(&cpu_us));
    v.insert("energy.train_s", train_s);
    v.insert("energy.integrate_us_p50", median(&integrate_us));

    // The model calls an `assess` is made of, alone, on the first plans.
    const PLANS: usize = 512;
    let plans: Vec<ConsolidationPlan> = sessions
        .iter()
        .flat_map(|s| s.stats.records.iter().map(move |r| s.group(r).0))
        .take(PLANS)
        .collect();
    if !plans.is_empty() {
        model_probes(decision.energy_model(), &plans, out);
    }
    ns
}

/// Time `predict`, `predict_in_state` (top state) and `choose_state`
/// (race-to-idle over the testbed ladder) on `plans`.
pub fn model_probes(model: &EnergyModel, plans: &[ConsolidationPlan], out: &mut LayerReport) {
    let table = PowerStateModel::tesla_dvfs().table;
    let n = plans.len().max(1) as f64;
    let t = Instant::now();
    for p in plans {
        black_box(model.predict(p));
    }
    out.values.insert("models.predict_ns", elapsed_ns(t) / n);

    let top = table
        .operating_points()
        .last()
        .map(|(_, s)| *s)
        .expect("the ladder has an operating point");
    let t = Instant::now();
    for p in plans {
        black_box(model.predict_in_state(p, &top));
    }
    out.values
        .insert("models.predict_in_state_ns", elapsed_ns(t) / n);

    let evals: Vec<Vec<_>> = plans
        .iter()
        .map(|p| {
            table
                .operating_points()
                .map(|(l, s)| (l, model.predict_in_state(p, s)))
                .collect()
        })
        .collect();
    let knob = ewc_models::PolicyKnob::RaceToIdle;
    let t = Instant::now();
    for e in &evals {
        black_box(choose_state(&table, &knob, e, model.idle_w()));
    }
    out.values
        .insert("models.choose_state_ns", elapsed_ns(t) / n);
}

/// `FleetGovernor::place`, once per context, on a fresh governor.
pub fn fleet(cfg: &FleetConfig, contexts: u64, out: &mut LayerReport) {
    let clock = VirtualClock::new();
    let mut governor = FleetGovernor::new(cfg, &ResiliencePolicy::default());
    let t = Instant::now();
    for ctx in 1..=contexts {
        black_box(governor.place(ctx, &clock));
    }
    out.values
        .insert("fleet.place_ns", elapsed_ns(t) / contexts.max(1) as f64);
}

/// One span recorded into an enabled sink, ns.
pub fn telemetry_record_ns() -> f64 {
    const SPANS: usize = 100_000;
    let sink = TelemetrySink::enabled_virtual(VirtualClock::new());
    let t = Instant::now();
    for i in 0..SPANS {
        let at = i as f64 * 1e-3;
        black_box(sink.span("host", "backend", "probe", at, at + 5e-4).emit());
    }
    elapsed_ns(t) / SPANS as f64
}
