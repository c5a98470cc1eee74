//! What a context leaves behind, seen through the public API: a
//! departed frontend's device memory is free again (also after
//! drain/migrate moved it), and a refused read costs nothing.

use std::sync::Arc;

use ewc_core::{CoreError, ResiliencePolicy, Runtime, RuntimeConfig, Template};
use ewc_fleet::{FleetConfig, PlacementReason};
use ewc_gpu::{GpuConfig, GpuError};
use ewc_load::{FaultConfig, SharedFaultPlan};
use ewc_workloads::{AesWorkload, Workload};

const MIB: u64 = 1 << 20;

#[test]
fn a_departed_context_returns_its_device_memory() {
    let rt = Runtime::builder(RuntimeConfig::default())
        .gpu_config(GpuConfig {
            global_mem_bytes: MIB,
            ..GpuConfig::tesla_c1060()
        })
        .build();
    for round in 0..8 {
        let fe = rt.connect();
        fe.malloc(512 << 10)
            .unwrap_or_else(|e| panic!("frontend {round}: {e}"));
    }
    // Nothing is left: one context can take the whole card.
    rt.connect().malloc(MIB).expect("the device is clean");
}

#[test]
fn a_migrated_context_leaves_both_devices_clean() {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&gpu_cfg));
    let mut fleet = FleetConfig::homogeneous(2);
    for spec in &mut fleet.devices {
        spec.gpu.global_mem_bytes = MIB;
    }
    let cooldown_s = 1e3;
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: 1_000_000, // flush only at syncs
        force_gpu: true,
        resilience: ResiliencePolicy {
            max_gpu_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_s: cooldown_s,
            ..ResiliencePolicy::default()
        },
        fleet: Some(fleet),
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .device_faults(Arc::new(SharedFaultPlan::new(
        9,
        FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
    )))
    .device_fault_targets(vec![0])
    .build();

    let launch = |fe: &mut ewc_core::Frontend, seed: u64| {
        fe.submit("encryption", aes.as_ref(), seed).unwrap()
    };
    // Round robin: ctx A → gpu0 (sick), ctx B → gpu1 (healthy). A's
    // first group hangs, trips gpu0's breaker and runs on the CPU; its
    // second finds the breaker open and drains A to gpu1, half a
    // megabyte of extra buffer included.
    let (mut fe_a, mut fe_b) = (rt.connect(), rt.connect());
    fe_a.malloc(512 << 10).unwrap();
    launch(&mut fe_a, 1);
    launch(&mut fe_b, 2);
    fe_a.sync().unwrap();
    let bufs = launch(&mut fe_a, 3);
    fe_a.sync().unwrap();
    assert_eq!(
        fe_a.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap(),
        aes.expected_output(3)
    );
    // Once the breaker's cooldown has passed, gpu0 takes contexts again.
    fe_b.advance_clock(2.0 * cooldown_s).unwrap();
    drop((fe_a, fe_b));

    let (fe_c, fe_d) = (rt.connect(), rt.connect());
    fe_c.malloc(MIB).expect("gpu0 is clean");
    fe_d.malloc(MIB).expect("gpu1 is clean");
    drop((fe_c, fe_d));
    let stats = rt.shutdown().stats;
    assert_eq!(stats.migrations, 1, "{stats:?}");
    let landed: Vec<(u32, PlacementReason)> = stats
        .placements
        .iter()
        .map(|p| (p.device, p.reason))
        .collect();
    assert_eq!(
        landed,
        [
            (0, PlacementReason::Policy),
            (1, PlacementReason::Policy),
            (1, PlacementReason::Migrated),
            (0, PlacementReason::Policy),
            (1, PlacementReason::Policy),
        ]
    );
}

#[test]
fn a_refused_read_charges_nothing() {
    let rt = Runtime::builder(RuntimeConfig::default()).build();
    let fe = rt.connect();
    let p = fe.malloc(1024).unwrap();
    assert!(matches!(
        fe.memcpy_d2h(p, 0, u64::MAX),
        Err(CoreError::Gpu(GpuError::OutOfBounds { .. }))
    ));
    assert!(matches!(
        fe.memcpy_d2h(ewc_gpu::DevicePtr(p.0 + 1), 0, 16),
        Err(CoreError::Gpu(GpuError::InvalidPointer(_)))
    ));
    assert_eq!(fe.memcpy_d2h(p, 0, 16).unwrap(), [0u8; 16]);
    drop(fe);
    let report = rt.shutdown();
    assert!(report.elapsed_s < 1.0, "{} s", report.elapsed_s);
    assert_eq!(report.stats.staged_bytes, 16);
}
