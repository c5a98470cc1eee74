//! Cross-crate correctness: a consolidated launch — manual or through
//! the full framework — must produce byte-identical results to serial
//! execution for every workload family and mix shape.

use std::sync::Arc;

use ewc_bench::{run_dynamic, run_dynamic_with, run_manual, run_serial, Mix};
use ewc_core::RuntimeConfig;
use ewc_gpu::GpuConfig;
use ewc_workloads::MatmulWorkload;

fn assert_all_correct(mix: &Mix, label: &str) {
    let serial = run_serial(mix);
    let manual = run_manual(mix);
    let dynamic = run_dynamic(mix);
    assert!(
        serial.correct,
        "{label}: serial outputs must match host references"
    );
    assert!(
        manual.correct,
        "{label}: manual consolidation corrupted outputs"
    );
    assert!(
        dynamic.correct,
        "{label}: framework consolidation corrupted outputs"
    );
}

#[test]
fn homogeneous_encryption() {
    let cfg = GpuConfig::tesla_c1060();
    for n in [1, 2, 5, 9] {
        assert_all_correct(&Mix::encryption(&cfg, n), &format!("enc x{n}"));
    }
}

#[test]
fn homogeneous_sorting() {
    let cfg = GpuConfig::tesla_c1060();
    for n in [1, 4, 9] {
        assert_all_correct(&Mix::sorting(&cfg, n), &format!("sort x{n}"));
    }
}

#[test]
fn homogeneous_matmul() {
    let cfg = GpuConfig::tesla_c1060();
    let matmul = Arc::new(MatmulWorkload::scalability_limited(&cfg));
    for n in [1, 3] {
        let mix = Mix::new().add("matmul", matmul.clone(), n);
        assert_all_correct(&mix, &format!("matmul x{n}"));
    }
}

#[test]
fn a_group_on_the_cpu_lifeboat_lands_in_the_same_buffers() {
    // Without `force_gpu` the decision engine sends two CPU-friendly AES
    // instances to the host: their bodies run through the same
    // functional pass a launch uses, into the buffers the frontends
    // read back.
    let cfg = GpuConfig::tesla_c1060();
    let mix = Mix::encryption(&cfg, 2);
    let lifeboat = run_dynamic_with(
        &mix,
        RuntimeConfig {
            threshold_factor: 30,
            ..RuntimeConfig::default()
        },
    );
    let stats = lifeboat
        .stats
        .as_ref()
        .expect("dynamic setup reports stats");
    assert_eq!(stats.cpu_executions, 2, "both instances ran host-side");
    assert_eq!(stats.launches, 0);
    assert!(
        lifeboat.correct,
        "CPU lifeboat outputs must match host references"
    );
}

#[test]
fn heterogeneous_search_blackscholes() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::search_blackscholes(&cfg, 1, 1), "1S+1B");
    assert_all_correct(&Mix::search_blackscholes(&cfg, 2, 10), "2S+10B");
}

#[test]
fn heterogeneous_encryption_montecarlo() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::encryption_montecarlo(&cfg, 1, 1), "1E+1M");
    assert_all_correct(&Mix::encryption_montecarlo(&cfg, 3, 3), "3E+3M");
}

#[test]
fn scenario_mixes() {
    let cfg = GpuConfig::tesla_c1060();
    assert_all_correct(&Mix::scenario1(&cfg), "scenario 1");
    assert_all_correct(&Mix::scenario2(&cfg), "scenario 2");
}

#[test]
fn distinct_instances_get_distinct_outputs() {
    // Two instances of the same workload with different seeds must not
    // be cross-wired by consolidation: verify outputs differ.
    let cfg = GpuConfig::tesla_c1060();
    let mix = Mix::encryption(&cfg, 2);
    let w = &mix.instances[0].1;
    assert_ne!(
        w.expected_output(0),
        w.expected_output(1),
        "seeds must generate different instances"
    );
    // run_manual already asserts per-instance equality against the
    // per-seed reference, which implies no cross-wiring.
    assert!(run_manual(&mix).correct);
}
