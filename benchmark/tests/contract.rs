//! The benchmark's contract with its driver: `/BENCHMARK.json` is what
//! the metric tables render, every name and unit is well-formed, and a
//! `--smoke` run of each workload prints exactly the promised metrics.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use ewc_benchmark::metrics::{manifest_json, Better, END_TO_END, PER_LAYER, WORKLOADS};
use ewc_benchmark::run::Workload;
use ewc_benchmark::workloads::openloop::OpenLoop;
use ewc_telemetry::json::{self, Value};

fn name_ok(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_manifest_is_what_the_tables_render() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest_json(),
        "BENCHMARK.json drifted from src/metrics.rs; regenerate it with `-- manifest`"
    );
    let doc = json::parse(&committed).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = BTreeSet::new();
    for (name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
        assert!(seen.insert(*name), "{name} used twice");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

fn smoke(workload: &str, trace: bool) -> Value {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_ewc-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is one JSON object");
    // Every metric is also printed by name with its unit.
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
    {
        let unit = m.get("unit").and_then(Value::as_str).expect("unit");
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{workload} {name} ")) && l.contains(unit)),
            "{workload}: no printed line for {name}"
        );
    }
    if trace {
        let spans = out_dir.join(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("the span file is written");
        let first = json::parse(text.lines().next().expect("a span")).expect("span parses");
        for key in ["id", "parent", "op", "name", "start_ns", "end_ns"] {
            assert!(first.get(key).is_some(), "{workload}: span lacks {key}");
        }
    }
    result
}

#[test]
fn smoke_runs_print_exactly_the_promised_metrics() {
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let result = smoke(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            let printed: BTreeSet<&str> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .keys()
                .map(String::as_str)
                .collect();
            let promised: BTreeSet<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(printed, promised, "{workload} trace={trace}");
            if !trace {
                for (name, m) in result.get("metrics").and_then(Value::as_object).unwrap() {
                    let v = m.get("value").and_then(Value::as_f64).expect("a number");
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn workload_contrast_holds() {
    let layer = |result: &Value, name: &str| -> f64 {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("a per-layer value")
    };
    // The isolated-layer workloads never touch transport or the fleet.
    for workload in ["policy_storm", "engine_storm"] {
        let r = smoke(workload, true);
        assert_eq!(layer(&r, "transport.msgs_per_op"), 0.0, "{workload}");
        assert_eq!(layer(&r, "fleet.placements"), 0.0, "{workload}");
    }
    // The closed batches stage megabytes; the storm stages argument words.
    let storm = smoke("openloop_storm", true);
    let mix = smoke("paper_mix", true);
    assert!(
        layer(&mix, "transport.staged_bytes_per_op")
            >= 100.0 * layer(&storm, "transport.staged_bytes_per_op")
    );
    assert_eq!(layer(&storm, "fleet.state_changes"), 0.0);
}

#[test]
fn two_seeds_give_different_schedules_and_both_conserve() {
    let mut fingerprints = Vec::new();
    for seed in [1, 2] {
        let rep = OpenLoop::storm(seed, true).rep(None);
        assert!(
            rep.violations.is_empty(),
            "seed {seed}: {:?}",
            rep.violations
        );
        assert_eq!(rep.attempted, rep.completed + rep.refused + rep.failed);
        fingerprints.push((rep.fingerprint, rep.sim_time_s.to_bits()));
    }
    assert_ne!(fingerprints[0], fingerprints[1]);
    // …and the same seed replays bit for bit.
    let again = OpenLoop::storm(1, true).rep(None);
    assert_eq!(
        (again.fingerprint, again.sim_time_s.to_bits()),
        fingerprints[0]
    );
}
