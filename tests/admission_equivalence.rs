//! The backend always runs its admission layer. `admission: None` is
//! read as `AdmissionConfig::unbounded()`, and this file is the proof
//! that the two are one path: same stats, same clock and energy bits,
//! same exported bytes. The always-on overload-aware placement is
//! covered from both sides (steers when a device is at its bound,
//! leaves the policy's pick alone when not).

use std::sync::Arc;

use ewc_bench::{run_batch, Mix};
use ewc_core::{AdmissionConfig, Runtime, RuntimeConfig, RuntimeReport, Template};
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, PlacementReason};
use ewc_gpu::GpuConfig;
use ewc_load::openloop::{run, LoadConfig};
use ewc_telemetry::export::{chrome, jsonl};
use ewc_telemetry::{TelemetrySink, TelemetrySnapshot};
use ewc_workloads::{AesWorkload, Workload};

fn aes() -> Arc<dyn Workload> {
    Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()))
}

/// Eight verified AES instances on a two-card heterogeneous fleet,
/// telemetry on.
fn closed_batch(admission: Option<AdmissionConfig>) -> RuntimeReport {
    let batch = run_batch(
        RuntimeConfig {
            threshold_factor: 3,
            force_gpu: true,
            noise_seed: Some(7),
            fleet: Some(FleetConfig::heterogeneous(2)),
            admission,
            ..RuntimeConfig::default()
        },
        TelemetrySink::enabled_virtual(VirtualClock::new()),
        &Mix::encryption(&GpuConfig::tesla_c1060(), 8),
    );
    assert!(batch.correct);
    batch.report
}

fn assert_same_exports(a: Option<&TelemetrySnapshot>, b: Option<&TelemetrySnapshot>) {
    let (a, b) = (a.expect("telemetry on"), b.expect("telemetry on"));
    assert!(!a.audit.is_empty());
    assert_eq!(chrome::render(a), chrome::render(b));
    assert_eq!(jsonl::render(a), jsonl::render(b));
}

#[test]
fn no_admission_config_is_the_unbounded_one_on_a_closed_batch() {
    let none = closed_batch(None);
    let unbounded = closed_batch(Some(AdmissionConfig::unbounded()));
    assert_eq!(
        format!("{:?}", none.stats),
        format!("{:?}", unbounded.stats)
    );
    assert_eq!(none.elapsed_s.to_bits(), unbounded.elapsed_s.to_bits());
    assert_eq!(
        none.energy.energy_j.to_bits(),
        unbounded.energy.energy_j.to_bits()
    );
    assert_same_exports(none.telemetry.as_ref(), unbounded.telemetry.as_ref());
}

#[test]
fn no_admission_config_is_the_unbounded_one_under_a_storm() {
    let mut cfg = LoadConfig::storm(42);
    cfg.streams = 32;
    cfg.arrivals_per_stream = 16;
    cfg.telemetry = true;
    cfg.admission = None;
    let none = run(&cfg);
    cfg.admission = Some(AdmissionConfig::unbounded());
    let unbounded = run(&cfg);
    assert!(none.conserved() && none.shed == 0, "{none:?}");
    assert_eq!(none.client, unbounded.client);
    assert_eq!(
        format!("{:?}", none.stats),
        format!("{:?}", unbounded.stats)
    );
    assert_eq!(none.elapsed_s.to_bits(), unbounded.elapsed_s.to_bits());
    assert_eq!(none.energy_j.to_bits(), unbounded.energy_j.to_bits());
    assert_same_exports(none.telemetry.as_ref(), unbounded.telemetry.as_ref());
}

/// Two cards, round robin, `max_per_device: 4`: ctx 1 queues `queued`
/// launches on gpu0, ctx 2 only allocates on gpu1, then ctx 3 arrives
/// with gpu0 next in the policy's rotation. Returns where it landed.
fn third_context_lands(queued: usize) -> (u32, PlacementReason) {
    let aes = aes();
    let rt = Runtime::builder(RuntimeConfig {
        num_gpus: 2,
        threshold_factor: 1_000_000, // flush only at syncs
        force_gpu: true,
        admission: Some(AdmissionConfig {
            max_per_device: 4,
            max_per_ctx: 8,
            ..AdmissionConfig::default()
        }),
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();
    let mut first = rt.connect();
    for seed in 0..queued as u64 {
        first.submit("encryption", aes.as_ref(), seed).unwrap();
    }
    let second = rt.connect();
    second.malloc(64).unwrap();
    let third = rt.connect();
    third.malloc(64).unwrap();
    first.sync().unwrap();
    drop((first, second, third));
    let stats = rt.shutdown().stats;
    assert_eq!(stats.kernel_outcomes.len(), queued, "{stats:?}");
    let p = &stats.placements[2];
    (p.device, p.reason)
}

#[test]
fn a_new_context_steers_away_from_a_device_at_its_bound() {
    assert_eq!(third_context_lands(3), (0, PlacementReason::Policy));
    assert_eq!(third_context_lands(4), (1, PlacementReason::Overload));
}
