//! Subcommand dispatch and implementations.

use std::sync::Arc;

use ewc_bench::experiments as ex;
use ewc_bench::{run_batch, Mix};
use ewc_core::{Choice, DecisionEngine};
use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel};
use ewc_energy::{GpuPowerGroundTruth, PowerCoefficients, ThermalModel, TrainingBenchmark};
use ewc_fleet::{FleetConfig, PolicyKind};
use ewc_gpu::{ConsolidatedGrid, DispatchPolicy, ExecutionEngine, GpuConfig, Grid};
use ewc_models::{ConsolidationPlan, EnergyModel, PowerModel};
use ewc_telemetry::{export, TelemetrySink};
use ewc_workloads::{
    AesWorkload, BlackScholesWorkload, MatmulWorkload, MonteCarloWorkload, SearchWorkload,
    SortWorkload, Workload,
};

/// Usage text.
pub fn usage() -> String {
    let mut s = String::from(
        "usage: ewc <command> [args]\n\
         \n\
         commands:\n\
         \x20 experiments            list reproducible tables and figures\n\
         \x20 run <id>               regenerate one experiment (see `ewc experiments`)\n\
         \x20 run all [parallelism]  regenerate the whole EXPERIMENTS.md ledger across\n\
         \x20                        parallelism workers (default one per core)\n\
         \x20 predict <w> <n>        predict consolidating n instances of workload w\n\
         \x20                        (w: enc | sort | search | bs | mc | matmul)\n\
         \x20 devices                show the simulated GPU presets\n\
         \x20 gantt <1|2>            per-SM schedule of a paper scenario\n\
         \x20 telemetry [fmt] [path] replay the Poisson trace with telemetry on and\n\
         \x20                        export it (fmt: summary | chrome | jsonl;\n\
         \x20                        chrome output opens in Perfetto / chrome://tracing)\n\
         \x20 faults [preset] [seed] soak the runtime under seeded fault injection and\n\
         \x20                        report recovery behaviour (preset: quiet | light |\n\
         \x20                        storm | overload; default light, seed 42)\n\
         \x20 fleet [n] [policy] [seed]\n\
         \x20                        place AES contexts on a heterogeneous n-device\n\
         \x20                        fleet and compare placement policies on energy\n\
         \x20                        and latency (policy: round-robin | least-loaded |\n\
         \x20                        power-aware | frag-aware | all; default 4 all 42)\n\
         \x20 load [process] [mult] [seed] [knob]\n\
         \x20                        drive an open-loop arrival storm (process:\n\
         \x20                        poisson | bursty | diurnal; mult x the base\n\
         \x20                        rate) against the admission-controlled backend\n\
         \x20                        and verify conservation and bounded queues\n\
         \x20                        (default poisson 2 42; knob: race | pace | cap\n\
         \x20                        additionally runs the DVFS policy engine)\n\
         \x20 policy [race|pace|cap|all] [watts]\n\
         \x20                        run the DVFS policy engine over one consolidated\n\
         \x20                        encryption batch and compare the knob's chosen\n\
         \x20                        operating points and measured energy against the\n\
         \x20                        flat baseline (watts overrides the cap budget;\n\
         \x20                        default all, budget just under the P0 draw)\n",
    );
    s.push_str("\nexperiment ids: ");
    s.push_str(
        &ex::EXPERIMENTS
            .iter()
            .map(|e| e.id)
            .collect::<Vec<_>>()
            .join(", "),
    );
    s
}

/// Dispatch an argument vector to its command.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("experiments") => Ok(list_experiments()),
        Some("run") => {
            let id = args.get(1).ok_or("run: missing experiment id")?;
            run_experiment(id, args.get(2).map(String::as_str))
        }
        Some("predict") => {
            let w = args.get(2).is_none();
            if w {
                return Err("predict: need <workload> <instances>".into());
            }
            let name = &args[1];
            let n: u32 = args[2]
                .parse()
                .map_err(|_| "predict: instances must be a number")?;
            predict(name, n)
        }
        Some("devices") => Ok(devices()),
        Some("telemetry") => telemetry(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("gantt") => {
            let which = args.get(1).ok_or("gantt: need a scenario (1 or 2)")?;
            gantt(which)
        }
        Some("faults") => faults(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("fleet") => fleet(&args[1..]),
        Some("load") => load(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
            args.get(3).map(String::as_str),
            args.get(4).map(String::as_str),
        ),
        Some("policy") => policy(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn list_experiments() -> String {
    let mut out = String::from("reproducible experiments:\n");
    for e in ex::EXPERIMENTS {
        out.push_str(&format!("  {:<10} {}\n", e.id, e.description));
    }
    out
}

fn run_experiment(id: &str, parallelism: Option<&str>) -> Result<String, String> {
    if id == "all" {
        let parallelism = match parallelism {
            Some(p) => p
                .parse()
                .map_err(|_| "run all: parallelism must be a number")?,
            None => 0,
        };
        return Ok(ex::render_all(parallelism));
    }
    ex::EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| (e.render)())
        .ok_or_else(|| format!("unknown experiment '{id}'"))
}

/// Look up a workload by short name.
fn workload(name: &str) -> Result<Arc<dyn Workload>, String> {
    let cfg = GpuConfig::tesla_c1060();
    Ok(match name {
        "enc" | "encryption" => Arc::new(AesWorkload::fig7(&cfg)),
        "sort" | "sorting" => Arc::new(SortWorkload::fig8(&cfg)),
        "search" => Arc::new(SearchWorkload::tables56(&cfg)),
        "bs" | "blackscholes" => Arc::new(BlackScholesWorkload::tables56(&cfg)),
        "mc" | "montecarlo" => Arc::new(MonteCarloWorkload::tables78(&cfg)),
        "matmul" => Arc::new(MatmulWorkload::scalability_limited(&cfg)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (enc|sort|search|bs|mc|matmul)"
            ))
        }
    })
}

/// The decision engine the runtime builds by default: the paper
/// testbed's trained energy model beside the dual-Xeon CPU baseline.
fn decision_engine() -> Result<DecisionEngine, String> {
    let cfg = GpuConfig::tesla_c1060();
    let coeffs = PowerCoefficients::train(
        &cfg,
        &GpuPowerGroundTruth::tesla_c1060(),
        &TrainingBenchmark::rodinia_suite(),
        42,
    )
    .ok_or("power-model training failed")?;
    let model = EnergyModel::new(
        cfg.clone(),
        PowerModel::new(coeffs, ThermalModel::gt200(), cfg),
        200.0,
    );
    Ok(DecisionEngine::new(
        model,
        CpuEngine::new(CpuConfig::xeon_e5520_x2()),
        CpuPowerModel::xeon_e5520_x2(),
    ))
}

fn predict(name: &str, n: u32) -> Result<String, String> {
    if n == 0 {
        return Err("predict: need at least one instance".into());
    }
    let w = workload(name)?;
    Ok(predict_with(&decision_engine()?, w.as_ref(), n))
}

/// Render `engine`'s assessment of `n` consolidated instances of `w`:
/// the three alternatives' predictions and the verdict the runtime
/// would act on.
fn predict_with(engine: &DecisionEngine, w: &dyn Workload, n: u32) -> String {
    let plan = ConsolidationPlan::homogeneous(w.desc(), w.blocks(), n);
    let tasks: Vec<_> = (0..n).map(|_| w.cpu_task()).collect();
    let a = engine.assess(&plan, &tasks);
    let perf = engine.energy_model().perf().predict(&plan);
    let verdict = match a.choice {
        Choice::Consolidate => "CONSOLIDATE on GPU",
        Choice::Cpu => "run on CPU",
        Choice::SerialGpu => "run serially on GPU",
    };

    format!(
        "prediction for {n} x {} ({} blocks each):\n\
         \x20 consolidated GPU: {:>8.2} s  {:>9.0} J  (avg dyn power {:.1} W, {} SMs, critical SM{})\n\
         \x20 serial GPU:       {:>8.2} s  {:>9.0} J\n\
         \x20 multicore CPU:    {:>8.2} s  {:>9.0} J\n\
         \x20 verdict: {}",
        w.name(),
        w.blocks(),
        a.consolidated.time_s,
        a.consolidated.system_energy_j,
        a.consolidated.dyn_power_w,
        perf.sms_used,
        perf.critical_sms.first().copied().unwrap_or(0),
        a.serial.time_s,
        a.serial.system_energy_j,
        a.cpu_time_s,
        a.cpu_energy_j,
        verdict,
    )
}

fn telemetry(format: Option<&str>, path: Option<&str>) -> Result<String, String> {
    let format = format.unwrap_or("summary");
    let trace = ex::trace::generate(&ex::trace::TraceSpec::default());
    let (row, snap) = ex::trace::replay_with(&trace, 4, 120.0, TelemetrySink::enabled());
    let snap = snap.ok_or("telemetry sink produced no snapshot")?;
    let body = match format {
        "summary" => export::summary::render(&snap),
        "chrome" => export::chrome::render(&snap),
        "jsonl" => export::jsonl::render(&snap),
        other => {
            return Err(format!(
                "telemetry: unknown format '{other}' (summary|chrome|jsonl)"
            ))
        }
    };
    match path {
        Some(p) => {
            std::fs::write(p, &body).map_err(|e| format!("telemetry: writing {p}: {e}"))?;
            Ok(format!(
                "wrote {} bytes of {format} telemetry to {p}\n\
                 (replayed {} requests: elapsed {:.2} s, energy {:.0} J, \
                 {} spans, {} decisions)",
                body.len(),
                trace.len(),
                row.elapsed_s,
                row.energy_j,
                snap.spans.len(),
                snap.audit.len(),
            ))
        }
        None => Ok(body),
    }
}

fn devices() -> String {
    let mut out = String::from("simulated devices:\n");
    for (name, cfg) in [
        ("tesla_c1060 (paper testbed)", GpuConfig::tesla_c1060()),
        ("tesla_c2050 (Fermi-class)", GpuConfig::tesla_c2050()),
    ] {
        out.push_str(&format!(
            "  {name}\n    {} SMs @ {:.2} GHz, {} lanes/SM, {} KiB smem/SM, {} regs/SM\n    {:.0} GB/s DRAM, {:.1} GB/s PCIe, {} MiB global\n",
            cfg.num_sms,
            cfg.clock_hz / 1e9,
            cfg.sp_per_sm,
            cfg.shared_mem_per_sm / 1024,
            cfg.registers_per_sm,
            cfg.dram_bandwidth / 1e9,
            cfg.pcie_bandwidth / 1e9,
            cfg.global_mem_bytes >> 20,
        ));
    }
    out
}

fn gantt(which: &str) -> Result<String, String> {
    let cfg = GpuConfig::tesla_c1060();
    let (label, grid) = match which {
        "1" => {
            let enc = AesWorkload::scenario1(&cfg);
            let mc = MonteCarloWorkload::scenario1(&cfg);
            (
                "scenario 1: encryption (0) + MonteCarlo (1) — the bad consolidation",
                ConsolidatedGrid::new()
                    .add(Grid::single(enc.desc(), enc.blocks()))
                    .add(Grid::single(mc.desc(), mc.blocks()))
                    .build(),
            )
        }
        "2" => {
            let search = SearchWorkload::scenario2(&cfg);
            let bs = BlackScholesWorkload::scenario2(&cfg);
            (
                "scenario 2: search (0) + BlackScholes (1) — the good consolidation",
                ConsolidatedGrid::new()
                    .add(Grid::single(search.desc(), search.blocks()))
                    .add(Grid::single(bs.desc(), bs.blocks()))
                    .build(),
            )
        }
        other => return Err(format!("gantt: unknown scenario '{other}' (1 or 2)")),
    };
    let engine = ExecutionEngine::new(cfg.clone());
    let out = engine
        .run(&grid, DispatchPolicy::default())
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "{label}\nmakespan {:.2} s, critical SMs start at SM{}\n\n{}",
        out.elapsed_s,
        out.trace
            .critical_sms(cfg.num_sms, 1e-6)
            .first()
            .copied()
            .unwrap_or(0),
        out.trace.ascii_gantt(cfg.num_sms, 72)
    ))
}

fn faults(preset: Option<&str>, seed: Option<&str>) -> Result<String, String> {
    let seed: u64 = seed
        .unwrap_or("42")
        .parse()
        .map_err(|_| "faults: seed must be a number")?;
    let base = |faults| ewc_load::SoakConfig {
        seed,
        processes: 4,
        requests_per_process: 10,
        sync_every: 2,
        faults,
        ..ewc_load::SoakConfig::default()
    };
    let cfg = match preset.unwrap_or("light") {
        "quiet" => base(ewc_load::FaultConfig::quiet()),
        "light" => base(ewc_load::FaultConfig::light()),
        "storm" => base(ewc_load::FaultConfig::storm()),
        // Light faults under a deliberately tight admission controller:
        // Busy/retry/shed and fault recovery exercised together.
        "overload" => ewc_load::SoakConfig::overload(seed),
        other => {
            return Err(format!(
                "faults: unknown preset '{other}' (quiet | light | storm | overload)"
            ))
        }
    };
    let report = ewc_load::soak::run(&cfg);
    let mut out = format!(
        "fault soak (preset {}, seed {seed}): {} processes x {} requests\n\n",
        preset.unwrap_or("light"),
        cfg.processes,
        cfg.requests_per_process,
    );
    out.push_str(&report.render());
    if !report.balanced() {
        return Err(format!("soak lost requests!\n{}", report.render()));
    }
    if report.mismatched > 0 {
        return Err(format!("soak produced wrong outputs!\n{}", report.render()));
    }
    Ok(out)
}

fn fleet(args: &[String]) -> Result<String, String> {
    let devices: usize = args
        .first()
        .map(String::as_str)
        .unwrap_or("4")
        .parse()
        .map_err(|_| "fleet: devices must be a number")?;
    if devices == 0 || devices > 64 {
        return Err("fleet: devices must be between 1 and 64".into());
    }
    let policy_arg = args.get(1).map(String::as_str).unwrap_or("all");
    let kinds: Vec<PolicyKind> = if policy_arg == "all" {
        PolicyKind::ALL.to_vec()
    } else {
        vec![PolicyKind::parse(policy_arg).ok_or_else(|| {
            format!(
                "fleet: unknown policy '{policy_arg}' \
                 (round-robin | least-loaded | power-aware | frag-aware | all)"
            )
        })?]
    };
    let seed: u64 = args
        .get(2)
        .map(String::as_str)
        .unwrap_or("42")
        .parse()
        .map_err(|_| "fleet: seed must be a number")?;

    let roster = FleetConfig::heterogeneous(devices);
    let instances = 3 * devices;
    let mut out = format!(
        "fleet placement comparison: {devices} heterogeneous device(s), \
         {instances} AES instances, seed {seed}\n  roster:"
    );
    for (d, spec) in roster.devices.iter().enumerate() {
        out.push_str(&format!(
            "  gpu{d}={} ({} SMs)",
            spec.name, spec.gpu.num_sms
        ));
    }
    out.push_str(&format!(
        "\n\n  {:<14} {:<20} {:>12} {:>11} {:>15}\n",
        "policy", "ctxs per device", "energy_j", "elapsed_s", "p99_latency_s"
    ));
    for kind in kinds {
        out.push_str(&fleet_row(devices, kind, seed)?);
    }
    Ok(out)
}

/// Run one policy over the heterogeneous fleet: a closed batch of
/// `3 × devices` verified AES instances, then report where they landed
/// and what the run cost. Everything is seeded, so same arguments render
/// the same table byte-for-byte.
fn fleet_row(devices: usize, kind: PolicyKind, seed: u64) -> Result<String, String> {
    let cfg = ewc_core::RuntimeConfig {
        threshold_factor: 3,
        noise_seed: Some(seed),
        fleet: Some(FleetConfig::heterogeneous(devices).with_policy(kind)),
        ..ewc_core::RuntimeConfig::default()
    };
    let mix = Mix::encryption(&GpuConfig::tesla_c1060(), 3 * devices as u32);
    let batch = run_batch(cfg, TelemetrySink::disabled(), &mix);
    if !batch.correct {
        return Err(format!(
            "fleet ({}): an instance produced the wrong bytes",
            kind.label()
        ));
    }
    let report = batch.report;
    let mut per_device = vec![0u64; devices];
    for rec in &report.stats.placements {
        per_device[rec.device as usize] += 1;
    }
    let placed = per_device
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join("/");
    let p99 = report.stats.latency_percentile(99.0).unwrap_or(0.0);
    Ok(format!(
        "  {:<14} {:<20} {:>12.1} {:>11.3} {:>15.6}\n",
        kind.label(),
        placed,
        report.energy.energy_j,
        report.elapsed_s,
        p99,
    ))
}

/// `ewc load`: one open-loop storm, with the robustness invariants
/// checked on the way out (this is what the CI overload matrix runs).
fn load(
    process: Option<&str>,
    mult: Option<&str>,
    seed: Option<&str>,
    knob: Option<&str>,
) -> Result<String, String> {
    use ewc_load::openloop::{run as run_load, LoadConfig};
    let process = match process.unwrap_or("poisson") {
        "poisson" => LoadConfig::poisson(),
        "bursty" => LoadConfig::bursty(),
        "diurnal" => LoadConfig::diurnal(),
        other => {
            return Err(format!(
                "load: unknown process '{other}' (poisson|bursty|diurnal)"
            ))
        }
    };
    let mult: f64 = mult
        .unwrap_or("2")
        .parse()
        .map_err(|_| "load: mult must be a number")?;
    if mult <= 0.0 || !mult.is_finite() {
        return Err("load: mult must be positive".into());
    }
    let seed: u64 = seed
        .unwrap_or("42")
        .parse()
        .map_err(|_| "load: seed must be a number")?;
    let mut cfg = LoadConfig::scaled(seed, process, mult);
    // Optional DVFS policy engine under the storm: a generous pace
    // deadline (the staleness flush bound) and a cap just above the
    // idle floor, so both knobs genuinely move off the top state.
    let knob_label = match knob {
        None | Some("off") => "off",
        Some("race") => {
            cfg.power_states = Some(ewc_core::PowerStatesConfig::race());
            "race"
        }
        Some("pace") => {
            cfg.power_states = Some(ewc_core::PowerStatesConfig::pace(0.25));
            "pace"
        }
        Some("cap") => {
            cfg.power_states = Some(ewc_core::PowerStatesConfig::cap(220.0));
            "cap"
        }
        Some(other) => {
            return Err(format!(
                "load: unknown policy knob '{other}' (race|pace|cap|off)"
            ))
        }
    };
    let r = run_load(&cfg);
    if !r.conserved() {
        return Err(format!(
            "load: conservation violated: generated {} != completed {} + failed {} \
             + shed {} + drained {}",
            r.generated, r.completed, r.failed, r.shed, r.drained
        ));
    }
    if !r.shed_accounted() {
        return Err(format!(
            "load: shed accounting violated: shed {} != {} at admission + {} notices",
            r.shed, r.client.shed_at_admission, r.client.shed_notices
        ));
    }
    if r.client.client_errors > 0 {
        return Err(format!(
            "load: {} unexpected client errors: {:?}",
            r.client.client_errors, r.client
        ));
    }
    let bound = cfg
        .admission
        .as_ref()
        .map(|a| a.max_per_device as u64)
        .unwrap_or(u64::MAX);
    if r.max_pending_depth > bound {
        return Err(format!(
            "load: pending depth {} exceeded the admission bound {bound}",
            r.max_pending_depth
        ));
    }
    Ok(format!(
        "open-loop {} at {mult}x (seed {seed}, policy {knob_label}): conserved\n\
         \x20 generated {}  completed {}  shed {} ({:.1}%)  drained {}\n\
         \x20 busy answers {}  max queue depth {}  max ladder level {}\n\
         \x20 goodput {:.1}/s  p99 {:.4}s  {:.3} J/request  state transitions {}\n",
        cfg.process.label(),
        r.generated,
        r.completed,
        r.shed,
        100.0 * r.shed_rate(),
        r.drained,
        r.client.busy_answers,
        r.max_pending_depth,
        r.max_degradation_level,
        r.goodput_hz(),
        r.p99_latency_s,
        r.joules_per_request(),
        r.stats.state_changes,
    ))
}

/// `ewc policy`: the DVFS policy engine over one consolidated batch,
/// each knob against the flat (stack-off) baseline.
fn policy(which: Option<&str>, watts: Option<&str>) -> Result<String, String> {
    let which = which.unwrap_or("all");
    let watts = watts
        .map(|w| {
            w.parse::<f64>()
                .map_err(|_| "policy: watts must be a number".to_string())
        })
        .transpose()?;
    if let Some(w) = watts {
        if !w.is_finite() || w <= 0.0 {
            return Err("policy: watts must be positive".into());
        }
    }
    let rows = ex::policy::run_named(which, watts)?;
    Ok(ex::policy::render(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn faults_soak_renders_balanced_report() {
        let out = dispatch(&args(&["faults", "storm", "7"])).unwrap();
        assert!(out.contains("soak report"), "{out}");
        assert!(out.contains("faults injected"), "{out}");
        assert!(dispatch(&args(&["faults", "bogus"])).is_err());
        assert!(dispatch(&args(&["faults", "light", "x"])).is_err());
    }

    #[test]
    fn fleet_compares_policies_deterministically() {
        let a = dispatch(&args(&["fleet", "3", "all", "7"])).unwrap();
        let b = dispatch(&args(&["fleet", "3", "all", "7"])).unwrap();
        assert_eq!(a, b, "same arguments must render the same table");
        for label in ["round-robin", "least-loaded", "power-aware", "frag-aware"] {
            assert!(a.contains(label), "missing {label}: {a}");
        }
        for device in ["c1060#0", "c1060-half#1", "c1060-wide#2"] {
            assert!(a.contains(device), "missing {device}: {a}");
        }
    }

    #[test]
    fn fleet_rejects_bad_arguments() {
        assert!(dispatch(&args(&["fleet", "0"])).is_err());
        assert!(dispatch(&args(&["fleet", "x"])).is_err());
        assert!(dispatch(&args(&["fleet", "2", "bogus"])).is_err());
        assert!(dispatch(&args(&["fleet", "2", "all", "x"])).is_err());
    }

    #[test]
    fn load_storm_conserves_and_rejects_bad_args() {
        let out = dispatch(&args(&["load", "poisson", "2", "7"])).unwrap();
        assert!(out.contains("conserved"), "{out}");
        assert!(out.contains("shed"), "{out}");
        assert!(dispatch(&args(&["load", "bogus"])).is_err());
        assert!(dispatch(&args(&["load", "poisson", "0"])).is_err());
        assert!(dispatch(&args(&["load", "poisson", "-2"])).is_err());
        assert!(dispatch(&args(&["load", "poisson", "2", "x"])).is_err());
        assert!(dispatch(&args(&["load", "poisson", "2", "7", "bogus"])).is_err());
    }

    #[test]
    fn load_storm_runs_under_a_policy_knob() {
        let out = dispatch(&args(&["load", "poisson", "2", "7", "race"])).unwrap();
        assert!(out.contains("policy race"), "{out}");
        assert!(out.contains("conserved"), "{out}");
        let transitions: u64 = out
            .split("state transitions ")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .and_then(|t| t.parse().ok())
            .unwrap();
        assert!(transitions > 0, "race must change device states: {out}");
    }

    #[test]
    fn policy_compares_knobs_against_the_flat_baseline() {
        let out = dispatch(&args(&["policy", "race"])).unwrap();
        assert!(out.contains("flat"), "{out}");
        assert!(out.contains("race"), "{out}");
        assert!(out.contains("sleep"), "race must park: {out}");
        assert!(dispatch(&args(&["policy", "bogus"])).is_err());
        assert!(dispatch(&args(&["policy", "cap", "x"])).is_err());
        assert!(dispatch(&args(&["policy", "cap", "-5"])).is_err());
    }

    #[test]
    fn help_and_listing() {
        assert!(dispatch(&args(&["help"])).unwrap().contains("usage"));
        assert!(dispatch(&[]).unwrap().contains("usage"));
        let listing = dispatch(&args(&["experiments"])).unwrap();
        for e in ex::EXPERIMENTS {
            assert!(listing.contains(e.id), "missing {}", e.id);
        }
    }

    #[test]
    fn unknown_commands_error() {
        assert!(dispatch(&args(&["bogus"])).is_err());
        assert!(dispatch(&args(&["bench"])).is_err());
        assert!(dispatch(&args(&["run", "nope"])).is_err());
        assert!(dispatch(&args(&["run"])).is_err());
        assert!(dispatch(&args(&["run", "all", "many"])).is_err());
        assert!(dispatch(&args(&["predict", "enc"])).is_err());
        assert!(dispatch(&args(&["predict", "nope", "3"])).is_err());
        assert!(dispatch(&args(&["gantt", "9"])).is_err());
        assert!(dispatch(&args(&["telemetry", "bogus"])).is_err());
    }

    #[test]
    fn telemetry_summary_reports_decisions() {
        let out = dispatch(&args(&["telemetry"])).unwrap();
        assert!(out.contains("decisions"), "{out}");
        assert!(out.contains("request_latency_s"), "{out}");
    }

    #[test]
    fn devices_lists_both_presets() {
        let d = devices();
        assert!(d.contains("tesla_c1060"));
        assert!(d.contains("tesla_c2050"));
    }

    #[test]
    fn predict_renders_a_verdict() {
        let p = dispatch(&args(&["predict", "enc", "9"])).unwrap();
        assert!(p.contains("consolidated GPU"), "{p}");
        assert!(
            p.contains("verdict: CONSOLIDATE"),
            "9 encs should consolidate: {p}"
        );
        let p = dispatch(&args(&["predict", "enc", "1"])).unwrap();
        assert!(
            p.contains("verdict: run on CPU"),
            "1 enc should go to CPU: {p}"
        );
    }

    #[test]
    fn predict_prints_the_engines_verdict() {
        let engine = decision_engine().unwrap();
        for name in ["enc", "sort", "search", "bs", "mc", "matmul"] {
            let w = workload(name).unwrap();
            for n in 1..=12 {
                let plan = ConsolidationPlan::homogeneous(w.desc(), w.blocks(), n);
                let tasks: Vec<_> = (0..n).map(|_| w.cpu_task()).collect();
                let expected = match engine.assess(&plan, &tasks).choice {
                    Choice::Consolidate => "verdict: CONSOLIDATE on GPU",
                    Choice::SerialGpu => "verdict: run serially on GPU",
                    Choice::Cpu => "verdict: run on CPU",
                };
                let out = predict_with(&engine, w.as_ref(), n);
                assert!(out.ends_with(expected), "{name} x {n}: {out}");
            }
        }
    }

    #[test]
    fn gantt_renders_scenarios() {
        let g = dispatch(&args(&["gantt", "1"])).unwrap();
        assert!(g.contains("SM00 |"));
        assert!(g.contains("makespan 81.90"));
        let g = dispatch(&args(&["gantt", "2"])).unwrap();
        assert!(g.contains("SM29 |"));
    }

    #[test]
    fn run_fast_experiments() {
        // Only the model-validation experiments (fast) in unit tests; the
        // heavy sweeps are covered by the bench crate's own tests.
        for id in ["fig3", "fig4", "fig5"] {
            let out = dispatch(&args(&["run", id])).unwrap();
            assert!(
                out.contains("prediction") || out.contains("validation"),
                "{id}: {out}"
            );
        }
    }
}
