//! Multi-GPU backend integration: context↔device binding, per-device
//! grouping, cross-device overlap, and correctness.

use std::sync::Arc;

use ewc_bench::{run_batch, Mix};
use ewc_core::{Runtime, RuntimeConfig, Template};
use ewc_gpu::GpuConfig;
use ewc_workloads::{AesWorkload, MonteCarloWorkload, Workload};

fn runtime(num_gpus: u32, threshold: u32) -> (Runtime, Arc<dyn Workload>, Arc<dyn Workload>) {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::tables78(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        num_gpus,
        threshold_factor: threshold,
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .workload("montecarlo", Arc::clone(&mc))
    .template(Template::homogeneous("encryption"))
    .template(Template::homogeneous("montecarlo"))
    .build();
    (rt, aes, mc)
}

fn submit(
    rt: &Runtime,
    name: &str,
    w: &Arc<dyn Workload>,
    seed: u64,
) -> (
    ewc_core::Frontend,
    ewc_workloads::registry::DeviceBuffers,
    Vec<u8>,
) {
    let mut fe = rt.connect();
    let bufs = fe.submit(name, w.as_ref(), seed).expect("submit");
    (fe, bufs, w.expected_output(seed))
}

#[test]
fn results_correct_across_devices() {
    let (rt, aes, mc) = runtime(2, 50);
    let mut sessions = Vec::new();
    for seed in 0..8u64 {
        let (name, w) = if seed % 2 == 0 {
            ("encryption", &aes)
        } else {
            ("montecarlo", &mc)
        };
        sessions.push(submit(&rt, name, w, seed));
    }
    sessions[0].0.sync().unwrap();
    for (fe, bufs, expect) in &sessions {
        let got = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
        assert_eq!(&got, expect);
    }
    let report = rt.shutdown();
    // Contexts alternate devices; with two workload families the backend
    // must have formed at least two groups (one per device).
    assert!(
        report.stats.records.len() >= 2,
        "{:?}",
        report.stats.records
    );
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 8);
}

#[test]
fn two_devices_overlap_the_long_kernels() {
    // Two MonteCarlo instances (43.2 s each): on one device their group
    // consolidates to ~43 s anyway; force them apart by alternating
    // contexts across two devices and running them as separate groups
    // (homogeneous template matches per device).
    let one = {
        let (rt, _, mc) = runtime(1, 50);
        let a = submit(&rt, "montecarlo", &mc, 0);
        let b = submit(&rt, "montecarlo", &mc, 1);
        a.0.sync().unwrap();
        let _ = (a, b);
        rt.shutdown()
    };
    let two = {
        let (rt, _, mc) = runtime(2, 50);
        let a = submit(&rt, "montecarlo", &mc, 0);
        let b = submit(&rt, "montecarlo", &mc, 1);
        a.0.sync().unwrap();
        let _ = (a, b);
        rt.shutdown()
    };
    // Both complete in ~one kernel time; the two-device run must not be
    // slower, and must have issued one launch per device.
    assert!(
        two.elapsed_s <= one.elapsed_s * 1.05,
        "{} vs {}",
        two.elapsed_s,
        one.elapsed_s
    );
    assert_eq!(two.stats.launches, 2);
    assert_eq!(
        one.stats.launches, 1,
        "single device consolidates into one launch"
    );
}

#[test]
fn energy_accounts_every_device() {
    let (rt, aes, _) = runtime(4, 50);
    let mut sessions = Vec::new();
    for seed in 0..4u64 {
        sessions.push(submit(&rt, "encryption", &aes, seed));
    }
    sessions[0].0.sync().unwrap();
    let report = rt.shutdown();
    // The idle floor plus three extra cards' static draw over the whole
    // session is a hard lower bound.
    let sys = ewc_energy::GpuSystemPower::tesla_system();
    let floor = (sys.idle_w + 3.0 * sys.extra_gpu_static_w) * report.elapsed_s;
    assert!(
        report.energy.energy_j > floor,
        "energy {} must exceed the 4-GPU idle floor {}",
        report.energy.energy_j,
        floor
    );
}

#[test]
fn single_gpu_remains_the_default_behaviour() {
    let (rt, aes, _) = runtime(1, 10);
    let s = submit(&rt, "encryption", &aes, 3);
    s.0.sync().unwrap();
    let got = s.0.memcpy_d2h(s.1.output, 0, s.1.output_len).unwrap();
    assert_eq!(got, s.2);
}

// ---------------------------------------------------------------------
// Heterogeneous fleet: placement policies and per-device breakers
// with drain/migrate.
// ---------------------------------------------------------------------

use ewc_core::ResiliencePolicy;
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, PlacementReason, PolicyKind};
use ewc_load::{FaultConfig, SharedFaultPlan};
use ewc_telemetry::TelemetrySink;

/// A collecting sink that lends the backend a fresh executor clock.
fn virtual_sink() -> TelemetrySink {
    TelemetrySink::enabled_virtual(VirtualClock::new())
}

/// Run 12 verified AES instances on a 4-device heterogeneous fleet
/// under `fleet_cfg`, recording into `sink`; returns the shutdown
/// report.
fn fleet_session(fleet_cfg: FleetConfig, sink: TelemetrySink) -> ewc_core::RuntimeReport {
    let batch = run_batch(
        RuntimeConfig {
            threshold_factor: 3,
            force_gpu: true,
            noise_seed: Some(7),
            fleet: Some(fleet_cfg),
            ..RuntimeConfig::default()
        },
        sink,
        &Mix::encryption(&GpuConfig::tesla_c1060(), 12),
    );
    assert!(batch.correct, "every fleet instance must verify");
    batch.report
}

#[test]
fn every_policy_replays_an_identical_placement_audit() {
    // Whether the backend runs on a clock the caller lent or on its own
    // must not matter to the replay.
    let sinks: [fn() -> TelemetrySink; 2] = [virtual_sink, TelemetrySink::enabled];
    for kind in PolicyKind::ALL {
        for sink in sinks {
            let fleet = FleetConfig::heterogeneous(4).with_policy(kind);
            let a = fleet_session(fleet.clone(), sink());
            let b = fleet_session(fleet, sink());
            assert!(
                !a.stats.placements.is_empty(),
                "{}: fleet runs must audit placements",
                kind.label()
            );
            assert_eq!(
                a.stats.placements,
                b.stats.placements,
                "{}: same seed must bind contexts identically",
                kind.label()
            );
            assert_eq!(
                a.stats,
                b.stats,
                "{}: whole backend must replay byte-identically",
                kind.label()
            );
        }
    }
}

#[test]
fn empty_fleet_runs_on_one_c1060() {
    // An empty roster is one baseline C1060 to the builder, the device
    // count and the governor alike.
    let cfg = RuntimeConfig {
        threshold_factor: 1,
        force_gpu: true,
        fleet: Some(FleetConfig {
            devices: Vec::new(),
            policy: PolicyKind::FragAware,
        }),
        ..RuntimeConfig::default()
    };
    assert_eq!(cfg.num_devices(), 1);
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()));
    let rt = Runtime::builder(cfg)
        .workload("encryption", Arc::clone(&aes))
        .template(Template::homogeneous("encryption"))
        .build();
    let (fe, bufs, expect) = submit(&rt, "encryption", &aes, 3);
    fe.sync().expect("sync");
    let got = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(got, expect);
    let report = rt.shutdown();
    assert_eq!(report.stats.placements.len(), 1);
    assert_eq!(report.stats.placements[0].device, 0);
    assert!(report.energy.energy_j > 0.0);
}

/// The drain/migrate scenario: device 0 is permanently sick, device 1 is
/// healthy. Returns the shutdown stats (for the replay assertion).
fn sick_device_session() -> ewc_core::BackendStats {
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()));
    let plan = SharedFaultPlan::new(
        9,
        FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
    );
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: 1_000_000, // flush only at syncs
        force_gpu: true,
        resilience: ResiliencePolicy {
            max_gpu_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_s: 1e6, // never closes within the run
            ..ResiliencePolicy::default()
        },
        fleet: Some(FleetConfig::homogeneous(2)),
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .device_faults(Arc::new(plan.clone()))
    .device_fault_targets(vec![0])
    .build();

    // Round robin: ctx A → gpu0 (sick), ctx B → gpu1 (healthy).
    let (mut fe_a, bufs_a1, expect_a1) = submit(&rt, "encryption", &aes, 1);
    let (fe_b, bufs_b, expect_b) = submit(&rt, "encryption", &aes, 2);
    fe_a.sync().unwrap();
    fe_b.sync().unwrap();
    // gpu0's group hung, tripped its breaker, and fell back to the CPU;
    // gpu1's group must have launched normally despite that.
    assert_eq!(
        fe_a.memcpy_d2h(bufs_a1.output, 0, bufs_a1.output_len)
            .unwrap(),
        expect_a1
    );
    assert_eq!(
        fe_b.memcpy_d2h(bufs_b.output, 0, bufs_b.output_len)
            .unwrap(),
        expect_b
    );

    // Second round on ctx A: its device's breaker is open, so the
    // governor drains the context to gpu1 and the launch runs there —
    // the GPU path stays available instead of tripping to CPU again.
    let bufs_a2 = fe_a.submit("encryption", aes.as_ref(), 3).unwrap();
    fe_a.sync().unwrap();
    assert_eq!(
        fe_a.memcpy_d2h(bufs_a2.output, 0, bufs_a2.output_len)
            .unwrap(),
        aes.expected_output(3)
    );
    // The first round's buffers moved with the context: reads through
    // the old frontend pointers must still return the right bytes.
    assert_eq!(
        fe_a.memcpy_d2h(bufs_a1.output, 0, bufs_a1.output_len)
            .unwrap(),
        expect_a1
    );

    drop((fe_a, fe_b));
    rt.shutdown().stats
}

#[test]
fn tripped_breaker_drains_contexts_to_the_healthy_device() {
    let stats = sick_device_session();
    assert!(stats.breaker_trips >= 1, "{stats:?}");
    assert!(stats.migrations >= 1, "ctx A must migrate: {stats:?}");
    assert!(stats.migrated_bytes > 0, "{stats:?}");
    assert!(
        stats.launches >= 2,
        "gpu1 must serve both ctx B and the migrated ctx A: {stats:?}"
    );
    assert_eq!(
        stats.cpu_fallbacks, 1,
        "only the pre-trip group goes to CPU: {stats:?}"
    );
    assert!(
        stats
            .placements
            .iter()
            .any(|p| p.reason == PlacementReason::Migrated && p.device == 1),
        "{:?}",
        stats.placements
    );
}

#[test]
fn drain_and_migrate_replays_byte_identically() {
    let a = sick_device_session();
    let b = sick_device_session();
    assert_eq!(a, b, "same seed must replay the whole drain/migrate run");
}

/// A drain moves a dispatching group's contexts together or not at all.
/// Two contexts on sick gpu0 share a group whose drain target, gpu1,
/// holds one of them but not both: nothing moves, the group runs on the
/// CPU against gpu0's memory, and every output is right.
#[test]
fn a_drain_that_cannot_move_every_context_moves_none() {
    let aes = AesWorkload::fig7(&GpuConfig::tesla_c1060());
    let n = aes.data_bytes() as u64;
    let mut fleet = FleetConfig::homogeneous(2);
    // Room for ctx A's two instances (4n) and ctx B's byte, not ctx C's.
    fleet.devices[1].gpu.global_mem_bytes = 4 * n + 4096;
    let plan = SharedFaultPlan::new(
        9,
        FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
    );
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: 1_000_000, // flush only at syncs
        force_gpu: true,
        resilience: ResiliencePolicy {
            max_gpu_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_s: 1e6, // never closes within the run
            ..ResiliencePolicy::default()
        },
        fleet: Some(fleet),
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::new(aes.clone()))
    .template(Template::homogeneous("encryption"))
    .device_faults(Arc::new(plan))
    .device_fault_targets(vec![0])
    .build();

    // Round robin: A → gpu0, B → gpu1, C → gpu0.
    let mut a = rt.connect();
    let a1 = a.submit("encryption", &aes, 1).expect("submit");
    let (b, mut c) = (rt.connect(), rt.connect());
    b.malloc(1).expect("malloc");
    c.malloc(1).expect("malloc");
    // A's group hangs on gpu0, trips its breaker and runs on the CPU.
    a.sync().expect("sync");
    let a2 = a.submit("encryption", &aes, 2).expect("submit");
    let c1 = c.submit("encryption", &aes, 3).expect("submit");
    // One group of A and C; gpu1 has room for A but not for C too.
    a.sync().expect("sync");
    c.sync().expect("sync");
    for (fe, bufs, seed) in [(&a, a1, 1), (&a, a2, 2), (&c, c1, 3)] {
        let got = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
        assert_eq!(got, aes.expected_output(seed), "seed {seed}");
    }
    drop((a, b, c));
    let stats = rt.shutdown().stats;
    assert_eq!(stats.migrations, 0, "{stats:?}");
    assert_eq!(stats.migrated_bytes, 0, "{stats:?}");
    assert_eq!(stats.launches, 0, "no launch ever completed: {stats:?}");
    assert_eq!(stats.cpu_executions, 3, "{stats:?}");
}
