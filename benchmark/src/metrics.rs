//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! (unit, direction, regression bound) and per-layer metrics. The same
//! tables are written out in `/BENCHMARK.json`; `tests/contract.rs`
//! fails when the two drift apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric (no bound: it explains, it does not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Stable name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Workload names with the reason each exists (one line; the long form
/// is in `benchmark/README.md`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "openloop_storm",
        "Minimal-config full stack: 64k open-loop Poisson requests at 2x, one GPU, no fleet/power/telemetry; transport, admission and executor dominate",
    ),
    (
        "fleet_policy_burst",
        "Maximal-config full stack: bursty 8x load, 4-GPU heterogeneous fleet, DVFS race policy, queue-bound admission, telemetry on and exported; decision/fleet/cpu/telemetry dominate",
    ),
    (
        "paper_mix",
        "The paper's closed batches (cpu/serial/manual/dynamic over six mixes, outputs verified): few large transport messages, real kernels, meter integration",
    ),
    (
        "policy_storm",
        "DecisionEngine::assess alone on 64 groups under flat/race/pace/cap engines: decision+models only, flat beside the knobs",
    ),
    (
        "engine_storm",
        "ExecutionEngine::run alone on storm1024/storm64/single_large: GPU engine only, so a stack optimisation predicts no change here",
    ),
];

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order. Every workload prints
/// every one of them.
///
/// The bounds are what this host allows, not what one would like. Host
/// times: ten same-commit runs spread 1–4 % on a quiet host and 12 %
/// through an interference phase, and a bound has to clear the latter.
/// Simulated results repeat bit for bit for a seed, so their bound only
/// has to clear how far they move from one seed to the next (up to 5 %,
/// 12 % for the latency tail); compare them at equal seeds, where any
/// difference at all is a real change.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_us_p99",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_time_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_j_per_op",
        unit: "sim_J",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p99_latency_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_goodput_hz",
        unit: "1/sim_s",
        better: Higher,
        bound: 0.15,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, grouped by the module they measure. A workload
/// that does not exercise a layer prints zero for it.
pub const PER_LAYER: &[PerLayer] = &[
    // ewc-load
    layer("load.gen_ns_per_arrival", "ns", Lower),
    layer("load.sim_lag_p99_s", "sim_s", Lower),
    // ewc-exec
    layer("exec.events", "count", Lower),
    layer("exec.self_ns_per_event", "ns", Lower),
    layer("exec.queue_ns_per_op", "ns", Lower),
    // core::frontend + core::protocol
    layer("transport.msgs_per_op", "count", Lower),
    layer("transport.staged_bytes_per_op", "B", Lower),
    layer("transport.configure_us_p50", "us", Lower),
    layer("transport.launch_us_p50", "us", Lower),
    layer("transport.launch_us_p99", "us", Lower),
    layer("transport.sync_us_p50", "us", Lower),
    layer("transport.memcpy_mb_per_s", "MB/s", Higher),
    layer("transport.vol_ctx_switches_per_op", "count", Lower),
    layer("transport.residual_ns_per_op", "ns", Lower),
    // core::admission
    layer("admission.admit_ns", "ns", Lower),
    layer("admission.busy_per_op", "count", Lower),
    layer("admission.shed_frac", "share", Lower),
    layer("admission.max_pending_depth", "count", Lower),
    layer("admission.degradation_steps", "count", Lower),
    // core::backend
    layer("backend.flushes", "count", Lower),
    layer("backend.mean_batch", "count", Higher),
    layer("backend.consolidated_frac", "share", Higher),
    layer("backend.cpu_fallbacks", "count", Lower),
    // core::decision
    layer("decision.count", "count", Lower),
    layer("decision.assess_us_p50", "us", Lower),
    layer("decision.assess_us_p99", "us", Lower),
    layer("decision.assess_us_flat", "us", Lower),
    layer("decision.assess_us_race", "us", Lower),
    layer("decision.assess_us_pace", "us", Lower),
    layer("decision.assess_us_cap", "us", Lower),
    layer("decision.candidates_per_assess", "count", Lower),
    layer("decision.gpu_choice_frac", "share", Higher),
    // ewc-models
    layer("models.predict_ns", "ns", Lower),
    layer("models.predict_in_state_ns", "ns", Lower),
    layer("models.choose_state_ns", "ns", Lower),
    layer("models.time_err_p50", "share", Lower),
    layer("models.time_err_p99", "share", Lower),
    // ewc-gpu
    layer("gpu.run_us_single_large", "us", Lower),
    layer("gpu.run_us_storm64", "us", Lower),
    layer("gpu.run_us_storm1024", "us", Lower),
    layer("gpu.ns_per_block", "ns", Lower),
    layer("gpu.launches", "count", Lower),
    layer("gpu.replay_ns_per_op", "ns", Lower),
    // ewc-cpu
    layer("cpu.executions", "count", Lower),
    layer("cpu.run_us_p50", "us", Lower),
    // ewc-energy
    layer("energy.train_s", "s", Lower),
    layer("energy.integrate_us_p50", "us", Lower),
    layer("energy.meter_samples", "count", Lower),
    // ewc-fleet
    layer("fleet.place_ns", "ns", Lower),
    layer("fleet.placements", "count", Lower),
    layer("fleet.state_changes", "count", Lower),
    layer("fleet.cap_redirects", "count", Lower),
    layer("fleet.migrations", "count", Lower),
    // ewc-telemetry
    layer("telemetry.on_wall_ratio", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.rss_bytes_per_event", "B", Lower),
    layer("telemetry.record_ns", "ns", Lower),
    layer("telemetry.export_s", "s", Lower),
    layer("telemetry.export_mb", "MB", Lower),
    // ewc-workloads
    layer("workloads.build_args_us", "us", Lower),
    layer("workloads.reference_us", "us", Lower),
    // ewc-bench setups
    layer("experiments.cpu_us", "us", Lower),
    layer("experiments.serial_us", "us", Lower),
    layer("experiments.manual_us", "us", Lower),
    layer("experiments.dynamic_us", "us", Lower),
    layer("experiments.dynamic_vs_cpu_energy", "ratio", Lower),
    // the benchmark itself: can the run be trusted?
    layer("bench.pinned_cpu", "count", Lower),
    layer("bench.rep_iqr_frac", "share", Lower),
    layer("bench.trace_overhead_frac", "share", Lower),
    layer("bench.fail_frac", "share", Lower),
    layer("bench.refused_frac", "share", Lower),
];

/// The command `/BENCHMARK.json` names, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Run length the benchmark fixes, host seconds.
pub const RUN_SECONDS: u32 = 15;

/// `/BENCHMARK.json`, rendered from the tables above (`-- manifest`
/// prints it; `tests/contract.rs` fails when the committed file differs).
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n",
        quoted(COMMAND)
    );
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
