//! Resilience acceptance tests: deterministic fault replay, soak
//! completion under fault storms, circuit-breaker behaviour, and
//! frontend-death draining — all on the simulated clock, all seeded.

use std::sync::Arc;

use ewc_core::{Frontend, ResiliencePolicy, Runtime, RuntimeConfig, Template};
use ewc_gpu::GpuConfig;
use ewc_load::{soak, FaultConfig, SharedFaultPlan, SoakConfig};
use ewc_workloads::{AesWorkload, Workload};

#[test]
fn same_seed_replays_identical_faults_and_decisions() {
    let cfg = SoakConfig {
        seed: 11,
        processes: 3,
        requests_per_process: 6,
        sync_every: 2,
        faults: FaultConfig::storm(),
        ..SoakConfig::default()
    };
    let a = soak::run(&cfg);
    let b = soak::run(&cfg);
    assert!(!a.fault_log.is_empty(), "storm must inject faults");
    assert_eq!(
        a.fault_log, b.fault_log,
        "same seed must produce the same fault schedule"
    );
    assert_eq!(
        a.audit, b.audit,
        "same seed must produce the same recovery decisions"
    );
    assert_eq!(a.stats, b.stats, "backend statistics must replay exactly");
    assert_eq!(
        (a.submitted, a.verified, a.failed, a.dropped),
        (b.submitted, b.verified, b.failed, b.dropped)
    );
}

#[test]
fn soak_matrix_fan_out_matches_serial() {
    // The {light, storm} × seeds preset matrix must produce identical
    // reports whether the configs run serially or across a worker pool:
    // each soak owns its runtime and its seeded fault plan, so thread
    // scheduling must not be observable.
    let mut cfgs = soak::matrix(&[5, 6]);
    for cfg in &mut cfgs {
        cfg.processes = 2;
        cfg.requests_per_process = 3;
    }
    assert_eq!(cfgs.len(), 4, "two seeds × two fault profiles");
    let serial = soak::run_matrix(&cfgs, 1);
    let fanned = soak::run_matrix(&cfgs, 4);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.audit, b.audit);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            (a.submitted, a.verified, a.failed, a.dropped, a.mismatched),
            (b.submitted, b.verified, b.failed, b.dropped, b.mismatched)
        );
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert!(a.balanced());
    }
}

#[test]
fn different_seeds_diverge() {
    let base = SoakConfig {
        processes: 2,
        requests_per_process: 6,
        faults: FaultConfig::storm(),
        ..SoakConfig::default()
    };
    let a = soak::run(&SoakConfig {
        seed: 1,
        ..base.clone()
    });
    let b = soak::run(&SoakConfig { seed: 2, ..base });
    assert_ne!(a.fault_log, b.fault_log);
}

#[test]
fn storm_soak_completes_every_request_without_panics() {
    let report = soak::run(&SoakConfig {
        seed: 42,
        processes: 4,
        requests_per_process: 10,
        sync_every: 2,
        faults: FaultConfig::storm(),
        ..SoakConfig::default()
    });
    assert!(report.submitted > 0);
    assert!(
        report.balanced(),
        "every request must be verified, failed, or dropped:\n{}",
        report.render()
    );
    assert_eq!(report.mismatched, 0, "surviving outputs must be correct");
    assert!(
        report.verified > 0,
        "most requests should survive the storm"
    );
    assert!(!report.fault_log.is_empty());
    assert!(
        report.stats.faults_observed + report.stats.retransmits > 0,
        "the backend must actually have seen fault pressure"
    );
    assert!(report.energy_j > 0.0);
}

#[test]
fn quiet_soak_is_a_clean_baseline() {
    let report = soak::run(&SoakConfig {
        seed: 5,
        processes: 3,
        requests_per_process: 4,
        sync_every: 2,
        faults: FaultConfig::quiet(),
        ..SoakConfig::default()
    });
    assert!(report.balanced());
    assert_eq!(report.verified, report.submitted);
    assert_eq!(report.failed + report.dropped + report.mismatched, 0);
    assert!(report.fault_log.is_empty());
    assert_eq!(report.stats.faults_observed, 0);
    assert_eq!(report.stats.breaker_trips, 0);
}

#[test]
fn breaker_trips_and_work_finishes_on_cpu_with_energy_accounted() {
    let report = soak::run(&SoakConfig {
        seed: 3,
        processes: 2,
        requests_per_process: 4,
        sync_every: 2,
        faults: FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
        resilience: ResiliencePolicy {
            breaker_threshold: 2,
            breaker_cooldown_s: 1e6, // never closes within the run
            ..ResiliencePolicy::default()
        },
        ..SoakConfig::default()
    });
    assert!(
        report.stats.breaker_trips >= 1,
        "permanent hangs must trip the breaker:\n{}",
        report.render()
    );
    assert!(
        report.stats.cpu_fallbacks + report.stats.cpu_executions > 0,
        "work must finish on the CPU lifeboat"
    );
    assert_eq!(report.verified, report.submitted, "{}", report.render());
    assert_eq!(report.mismatched, 0);
    assert!(report.energy_j > 0.0, "GPU system energy (incl. idle burn)");
    assert!(
        report.cpu_energy_j > 0.0,
        "CPU fallback work must cost energy"
    );
}

#[test]
fn frontend_deaths_drain_pending_work() {
    let report = soak::run(&SoakConfig {
        seed: 17,
        processes: 4,
        requests_per_process: 8,
        sync_every: 4,
        faults: FaultConfig {
            frontend_death_rate: 0.5,
            ..FaultConfig::quiet()
        },
        ..SoakConfig::default()
    });
    assert!(report.frontend_deaths > 0, "{}", report.render());
    assert!(report.dropped > 0, "deaths mid-batch must abandon requests");
    assert!(report.stats.reaped_frontends > 0);
    assert!(report.stats.drained_requests > 0);
    assert!(report.balanced(), "{}", report.render());
    assert_eq!(report.mismatched, 0);
}

/// Submit one AES instance; returns (frontend, output ptr, expected).
fn submit_aes(
    rt: &Runtime,
    aes: &AesWorkload,
    seed: u64,
) -> (Frontend, ewc_gpu::DevicePtr, Vec<u8>) {
    let mut fe = rt.connect();
    let bufs = fe.submit("encryption", aes, seed).unwrap();
    (fe, bufs.output, aes.expected_output(seed))
}

#[test]
fn breaker_half_opens_and_recovers_when_faults_clear() {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let aes = AesWorkload::fig7(&gpu_cfg);
    let plan = SharedFaultPlan::new(
        1,
        FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
    );
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        resilience: ResiliencePolicy {
            max_gpu_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_s: 1e-3,
            ..ResiliencePolicy::default()
        },
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::new(AesWorkload::fig7(&gpu_cfg)))
    .template(Template::homogeneous("encryption"))
    .device_faults(Arc::new(plan.clone()))
    .build();

    // Every launch hangs: the breaker trips and the work lands on the
    // CPU — correctly.
    let (fe1, out1, expect1) = submit_aes(&rt, &aes, 1);
    fe1.sync().unwrap();
    assert_eq!(
        fe1.memcpy_d2h(out1, 0, expect1.len() as u64).unwrap(),
        expect1
    );

    // The device heals. The next group arrives after the (tiny)
    // cooldown: the breaker half-opens, probes the GPU, succeeds, and
    // closes again.
    plan.set_config(FaultConfig::quiet());
    let (fe2, out2, expect2) = submit_aes(&rt, &aes, 2);
    fe2.sync().unwrap();
    assert_eq!(
        fe2.memcpy_d2h(out2, 0, expect2.len() as u64).unwrap(),
        expect2
    );

    drop((fe1, fe2));
    let report = rt.shutdown();
    assert!(report.stats.breaker_trips >= 1, "stats: {:?}", report.stats);
    assert!(
        report.stats.cpu_fallbacks >= 1,
        "first instance must fall back to CPU"
    );
    assert!(
        report.stats.launches >= 1,
        "the healed GPU must serve the probe group"
    );
    assert_eq!(report.stats.failed_kernels, 0);
}
