//! The telemetry counter and gauge maps of thirteen seeded sessions,
//! pinned whole, and every audit record matched by a backend count.
//!
//! Between them the sessions reach every counter and gauge the backend
//! and the devices write:
//! - the five `ewc faults` soaks: faults at every device site, retries,
//!   channel retransmits, reaped frontends, admission shedding;
//! - two open-loop runs: a bursty storm under the race-to-idle ladder
//!   (power transitions, a `cpu` verdict) and the degradation-ladder
//!   preset (the `degradation_level` gauge);
//! - two race-to-idle fleets of four, frag-aware and round-robin
//!   (placements and `dvfs_level_gpu{d}` per device);
//! - a sick device whose context drains to a healthy one (breaker trips
//!   and migrations per device), the same with a destination that
//!   cannot run the kernel (`requests_failed`), a retry that would blow
//!   its deadline (`deadline_escalations`), and a lone MonteCarlo launch
//!   beside a constant too big for the device (a `serial_gpu` verdict,
//!   `constant_errors`).
//!
//! The maps are recorded values: a change that moves one changed what
//! telemetry reports. Never re-record them to make a refactor pass.

use std::sync::{Arc, OnceLock};

use ewc_bench::{run_batch, Mix};
use ewc_core::{
    BackendStats, CoreError, PowerStatesConfig, ResiliencePolicy, Runtime, RuntimeConfig,
    RuntimeReport, Template,
};
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, PlacementReason, PolicyKind};
use ewc_gpu::GpuConfig;
use ewc_load::{openloop, soak, FaultConfig, LoadConfig, SharedFaultPlan, SoakConfig};
use ewc_telemetry::{DecisionRecord, MetricsRegistry, TelemetrySink, TelemetrySnapshot, Verdict};
use ewc_workloads::{AesWorkload, MonteCarloWorkload, Workload};

/// What one finished session left behind.
struct Session {
    name: &'static str,
    /// Whether the runtime configured an explicit fleet: placements are
    /// counted and audited only then.
    fleet_mode: bool,
    stats: BackendStats,
    metrics: MetricsRegistry,
    audit: Vec<DecisionRecord>,
}

impl Session {
    fn new(
        name: &'static str,
        fleet_mode: bool,
        stats: BackendStats,
        snap: Option<TelemetrySnapshot>,
    ) -> Self {
        let snap = snap.expect("telemetry enabled");
        Session {
            name,
            fleet_mode,
            stats,
            metrics: snap.metrics,
            audit: snap.audit,
        }
    }

    fn from_report(name: &'static str, fleet_mode: bool, report: RuntimeReport) -> Self {
        Session::new(name, fleet_mode, report.stats, report.telemetry)
    }
}

/// The soaks `ewc faults <preset> <seed>` runs, two at a time.
fn soak_sessions(runs: [(&'static str, &str, u64); 5]) -> Vec<Session> {
    let cfgs: Vec<SoakConfig> = runs
        .iter()
        .map(|&(_, preset, seed)| {
            let with = |faults| SoakConfig {
                seed,
                processes: 4,
                requests_per_process: 10,
                sync_every: 2,
                faults,
                ..SoakConfig::default()
            };
            match preset {
                "light" => with(FaultConfig::light()),
                "storm" => with(FaultConfig::storm()),
                _ => SoakConfig::overload(seed),
            }
        })
        .collect();
    let reports = soak::run_matrix(&cfgs, 2);
    runs.iter()
        .zip(reports)
        .map(|(&(name, ..), r)| {
            assert!(r.balanced(), "{name}: {}", r.render());
            Session {
                name,
                fleet_mode: false,
                stats: r.stats,
                metrics: r.metrics,
                audit: r.audit,
            }
        })
        .collect()
}

/// `cfg` shrunk to `streams` streams of 16 arrivals, telemetry on.
fn open_loop_session(name: &'static str, mut cfg: LoadConfig, streams: usize) -> Session {
    cfg.streams = streams;
    cfg.arrivals_per_stream = 16;
    cfg.telemetry = true;
    let r = openloop::run(&cfg);
    assert!(r.conserved(), "{name}: {r:?}");
    Session::new(name, false, r.stats, r.telemetry)
}

/// Twelve verified AES instances on a four-device heterogeneous fleet
/// under the race-to-idle ladder.
fn dvfs_fleet_session(name: &'static str, policy: PolicyKind) -> Session {
    let batch = run_batch(
        RuntimeConfig {
            threshold_factor: 3,
            force_gpu: true,
            noise_seed: Some(7),
            power_states: Some(PowerStatesConfig::race()),
            fleet: Some(FleetConfig::heterogeneous(4).with_policy(policy)),
            ..RuntimeConfig::default()
        },
        TelemetrySink::enabled_virtual(VirtualClock::new()),
        &Mix::encryption(&GpuConfig::tesla_c1060(), 12),
    );
    assert!(batch.correct, "{name}: every instance must verify");
    Session::from_report(name, true, batch.report)
}

fn aes() -> Arc<dyn Workload> {
    Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()))
}

/// A runtime whose devices in `sick` hang on every launch, flushing
/// only at syncs, with the AES kernel registered.
fn hanging(cfg: RuntimeConfig, sick: Vec<usize>) -> Runtime {
    let plan = SharedFaultPlan::new(
        9,
        FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::quiet()
        },
    );
    Runtime::builder(RuntimeConfig {
        threshold_factor: 1_000_000,
        force_gpu: true,
        ..cfg
    })
    .telemetry(TelemetrySink::enabled())
    .workload("encryption", aes())
    .template(Template::homogeneous("encryption"))
    .device_faults(Arc::new(plan))
    .device_fault_targets(sick)
    .build()
}

/// Two cards sized by `fleet`, gpu0 sick with a breaker that trips at
/// its first fault and never closes.
fn sick_gpu0(fleet: FleetConfig) -> Runtime {
    hanging(
        RuntimeConfig {
            resilience: ResiliencePolicy {
                max_gpu_retries: 0,
                breaker_threshold: 1,
                breaker_cooldown_s: 1e6,
                ..ResiliencePolicy::default()
            },
            fleet: Some(fleet),
            ..RuntimeConfig::default()
        },
        vec![0],
    )
}

/// ctx A's first group trips gpu0's breaker and runs on the CPU; its
/// second drains to gpu1 and runs there, beside ctx B's.
fn sick_device_session() -> Session {
    let rt = sick_gpu0(FleetConfig::homogeneous(2));
    let aes = aes();
    let (mut a, mut b) = (rt.connect(), rt.connect());
    a.submit("encryption", aes.as_ref(), 1).expect("submit");
    b.submit("encryption", aes.as_ref(), 2).expect("submit");
    a.sync().expect("sync");
    b.sync().expect("sync");
    a.submit("encryption", aes.as_ref(), 3).expect("submit");
    a.sync().expect("sync");
    drop((a, b));
    let report = rt.shutdown();
    assert_eq!(report.stats.migrations, 1, "{:?}", report.stats);
    Session::from_report("sick_device", true, report)
}

/// As [`sick_device_session`], but gpu1 cannot hold one AES block: ctx
/// A's second launch is drained there and fails permanently, at once.
fn failed_after_drain_session() -> Session {
    let mut fleet = FleetConfig::homogeneous(2);
    fleet.devices[1].gpu.registers_per_sm = 1024;
    let rt = sick_gpu0(fleet);
    let aes = aes();
    let mut fe = rt.connect();
    fe.submit("encryption", aes.as_ref(), 1).expect("submit");
    fe.sync().expect("sync");
    fe.submit("encryption", aes.as_ref(), 2).expect("submit");
    assert!(matches!(fe.sync(), Err(CoreError::KernelFailed { .. })));
    drop(fe);
    let report = rt.shutdown();
    assert_eq!(report.stats.failed_kernels, 1, "{:?}", report.stats);
    Session::from_report("failed_after_drain", true, report)
}

/// One card that hangs on every launch, no breaker, and a deadline
/// shorter than the watchdog: the first retry would blow it.
fn deadline_session() -> Session {
    let rt = hanging(
        RuntimeConfig {
            resilience: ResiliencePolicy {
                request_deadline_s: 0.01,
                breaker_threshold: 0,
                ..ResiliencePolicy::default()
            },
            ..RuntimeConfig::default()
        },
        vec![0],
    );
    let mut fe = rt.connect();
    fe.submit("encryption", aes().as_ref(), 1).expect("submit");
    fe.sync().expect("sync");
    drop(fe);
    let report = rt.shutdown();
    assert!(report.stats.deadline_escalations > 0, "{:?}", report.stats);
    Session::from_report("deadline", false, report)
}

/// A lone MonteCarlo launch (a group of one runs serially on the GPU)
/// from a frontend whose constant does not fit the device.
fn serial_and_constant_error_session() -> Session {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::tables78(&gpu_cfg));
    let rt = Runtime::builder(RuntimeConfig::default())
        .telemetry(TelemetrySink::enabled())
        .workload("montecarlo", Arc::clone(&mc))
        .template(Template::homogeneous("montecarlo"))
        .build();
    let mut fe = rt.connect();
    let too_big = vec![0u8; gpu_cfg.constant_mem_bytes as usize + 1];
    assert!(fe.register_constant("tables", &too_big).is_err());
    fe.submit("montecarlo", mc.as_ref(), 1).expect("submit");
    fe.sync().expect("sync");
    drop(fe);
    Session::from_report("serial_and_constant_error", false, rt.shutdown())
}

/// Every session, run once and shared by the tests.
fn sessions() -> &'static [Session] {
    static SESSIONS: OnceLock<Vec<Session>> = OnceLock::new();
    SESSIONS.get_or_init(|| {
        let mut bursty_dvfs = LoadConfig::scaled(42, LoadConfig::bursty(), 4.0);
        bursty_dvfs.power_states = Some(PowerStatesConfig::race());
        let mut sessions = soak_sessions([
            ("faults_light_42", "light", 42),
            ("faults_storm_1337", "storm", 1337),
            ("faults_storm_7", "storm", 7),
            ("faults_overload_42", "overload", 42),
            ("faults_overload_1", "overload", 1),
        ]);
        sessions.extend([
            open_loop_session("open_loop_bursty_dvfs_42", bursty_dvfs, 16),
            open_loop_session("open_loop_ladder_11", LoadConfig::ladder(11), 32),
            dvfs_fleet_session("dvfs_fleet_frag_aware", PolicyKind::FragAware),
            dvfs_fleet_session("dvfs_fleet_round_robin", PolicyKind::RoundRobin),
            sick_device_session(),
            failed_after_drain_session(),
            deadline_session(),
            serial_and_constant_error_session(),
        ]);
        sessions
    })
}

/// Every counter and gauge, one `kind name value` line each, in name
/// order.
fn render(metrics: &MetricsRegistry) -> String {
    let counters = metrics
        .counters()
        .map(|(n, v)| format!("counter {n} {v}\n"));
    let gauges = metrics.gauges().map(|(n, v)| format!("gauge {n} {v}\n"));
    counters.chain(gauges).collect()
}

/// Each session's counters and gauges as [`render`] prints them.
const PINNED: [(&str, &str); 13] = [
    (
        "faults_light_42",
        "\
counter channel_retransmits 10
counter device_faults 5
counter device_faults_malloc 1
counter device_faults_transfer 4
counter energy_j 13915.356701741031
counter gpu_launches 5
counter groups 5
counter staged_bytes 1007616
counter verdict_consolidate 5
gauge avg_power_w 328.3139173774312
gauge elapsed_s 42.38430345230803
",
    ),
    (
        "faults_storm_1337",
        "\
counter channel_retransmits 50
counter device_faults 41
counter device_faults_launch 9
counter device_faults_malloc 8
counter device_faults_transfer 24
counter energy_j 41471.85707486909
counter gpu_faults 6
counter gpu_faults_gpu0 6
counter gpu_launches 12
counter gpu_retries 5
counter groups 5
counter recoveries 1
counter staged_bytes 1081344
counter verdict_consolidate 5
gauge avg_power_w 233.77099533719436
gauge elapsed_s 177.4037750707676
",
    ),
    (
        "faults_storm_7",
        "\
counter channel_retransmits 49
counter device_faults 35
counter device_faults_launch 1
counter device_faults_malloc 10
counter device_faults_transfer 24
counter energy_j 19011.54346706428
counter frontends_reaped 1
counter gpu_launches 5
counter groups 5
counter requests_drained 1
counter staged_bytes 1093632
counter verdict_consolidate 5
gauge avg_power_w 280.1758789634235
gauge elapsed_s 67.85574667384627
",
    ),
    (
        "faults_overload_42",
        "\
counter busy_rejections 128
counter channel_retransmits 18
counter device_faults 8
counter device_faults_launch 1
counter device_faults_malloc 2
counter device_faults_transfer 5
counter energy_j 16953.931332460168
counter gpu_launches 6
counter groups 6
counter requests_shed 60
counter staged_bytes 1646592
counter verdict_consolidate 6
gauge avg_power_w 284.22189832424004
gauge elapsed_s 59.65033458864292
",
    ),
    (
        "faults_overload_1",
        "\
counter busy_rejections 126
counter channel_retransmits 23
counter device_faults 15
counter device_faults_launch 1
counter device_faults_malloc 7
counter device_faults_transfer 7
counter energy_j 16982.386838592283
counter frontends_reaped 1
counter gpu_launches 6
counter groups 6
counter requests_drained 1
counter requests_shed 59
counter staged_bytes 1658880
counter verdict_consolidate 6
gauge avg_power_w 284.6693776976083
gauge elapsed_s 59.656528482076226
",
    ),
    (
        "open_loop_bursty_dvfs_42",
        "\
counter busy_rejections 592
counter energy_j 78.54441517797531
counter gpu_launches 9
counter groups 10
counter power_transitions 18
counter requests_shed 182
counter staged_bytes 32768
counter verdict_consolidate 9
counter verdict_cpu 1
gauge avg_power_w 202.68326180656177
gauge dvfs_level_gpu0 0
gauge elapsed_s 0.3875229482587322
",
    ),
    (
        "open_loop_ladder_11",
        "\
counter busy_rejections 54
counter energy_j 330.8233989061894
counter gpu_launches 62
counter groups 63
counter requests_shed 18
counter staged_bytes 65536
counter verdict_consolidate 62
counter verdict_cpu 1
gauge avg_power_w 255.485097783531
gauge degradation_level 1
gauge elapsed_s 1.2948833484859126
",
    ),
    (
        "dvfs_fleet_frag_aware",
        "\
counter energy_j 4699.2492174781055
counter gpu_launches 2
counter groups 2
counter placements_gpu0 8
counter placements_gpu1 4
counter power_transitions 4
counter staged_bytes 347136
counter verdict_consolidate 2
gauge avg_power_w 551.3126975725885
gauge dvfs_level_gpu0 0
gauge dvfs_level_gpu1 0
gauge elapsed_s 8.523745667692298
",
    ),
    (
        "dvfs_fleet_round_robin",
        "\
counter energy_j 4778.182775929559
counter gpu_launches 4
counter groups 4
counter placements_gpu0 3
counter placements_gpu1 3
counter placements_gpu2 3
counter placements_gpu3 3
counter power_transitions 8
counter staged_bytes 347136
counter verdict_consolidate 4
gauge avg_power_w 555.5524327845079
gauge dvfs_level_gpu0 0
gauge dvfs_level_gpu1 0
gauge dvfs_level_gpu2 0
gauge dvfs_level_gpu3 0
gauge elapsed_s 8.600777341538452
",
    ),
    (
        "sick_device",
        "\
counter breaker_trips 1
counter breaker_trips_gpu0 1
counter device_faults 1
counter device_faults_launch 1
counter energy_j 6272.414505921482
counter gpu_faults 1
counter gpu_faults_gpu0 1
counter gpu_launches 2
counter groups 3
counter migrations 1
counter migrations_gpu1 1
counter placements_gpu0 1
counter placements_gpu1 1
counter recoveries 2
counter staged_bytes 36864
counter verdict_consolidate 3
gauge avg_power_w 261.29728110874305
gauge elapsed_s 24.00489771384615
",
    ),
    (
        "failed_after_drain",
        "\
counter breaker_trips 1
counter breaker_trips_gpu0 1
counter device_faults 1
counter device_faults_launch 1
counter energy_j 1777.071757138462
counter gpu_faults 2
counter gpu_faults_gpu0 1
counter gpu_faults_gpu1 1
counter groups 2
counter migrations 1
counter migrations_gpu1 1
counter placements_gpu0 1
counter recoveries 2
counter requests_failed 1
counter staged_bytes 24576
counter verdict_consolidate 2
gauge avg_power_w 245
gauge elapsed_s 7.253354110769233
",
    ),
    (
        "deadline",
        "\
counter deadline_escalations 1
counter device_faults 1
counter device_faults_launch 1
counter energy_j 1450.3555206153846
counter gpu_faults 1
counter gpu_faults_gpu0 1
counter groups 1
counter recoveries 2
counter staged_bytes 12288
counter verdict_consolidate 1
gauge avg_power_w 200
gauge elapsed_s 7.251777603076923
",
    ),
    (
        "serial_and_constant_error",
        "\
counter constant_errors 1
counter energy_j 9214.29699283561
counter gpu_launches 1
counter groups 1
counter staged_bytes 65577
counter verdict_serial_gpu 1
gauge avg_power_w 213.28365423481375
gauge elapsed_s 43.20207765519231
",
    ),
];

#[test]
fn counters_and_gauges_are_pinned() {
    let sessions = sessions();
    assert_eq!(sessions.len(), PINNED.len());
    for (s, (name, pinned)) in sessions.iter().zip(PINNED) {
        assert_eq!(s.name, name);
        assert_eq!(render(&s.metrics), pinned, "{name}");
    }
}

#[test]
fn every_audit_record_has_a_matching_count() {
    for s in sessions() {
        let (name, st) = (s.name, &s.stats);
        let count = |v: Verdict| s.audit.iter().filter(|r| r.verdict == v).count() as u64;
        let weighed =
            |r: &&DecisionRecord| r.consolidated.is_some() || r.serial.is_some() || r.cpu.is_some();
        assert_eq!(count(Verdict::Shed), st.shed_requests, "{name}: shed");
        assert_eq!(count(Verdict::Failed), st.failed_kernels, "{name}: failed");
        assert_eq!(
            count(Verdict::Drained),
            st.reaped_frontends,
            "{name}: drained"
        );
        assert_eq!(
            count(Verdict::StateChanged),
            st.state_changes,
            "{name}: state"
        );
        assert_eq!(
            count(Verdict::Degraded),
            st.degradation_steps,
            "{name}: degraded"
        );
        let placed = st
            .placements
            .iter()
            .filter(|p| s.fleet_mode && p.reason != PlacementReason::Migrated)
            .count() as u64;
        assert_eq!(
            count(Verdict::Placed),
            st.migrations + placed,
            "{name}: placed"
        );
        let decisions = s.audit.iter().filter(weighed).count();
        assert_eq!(decisions, st.records.len(), "{name}: decisions");
        let hops = s
            .audit
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::SerialGpu | Verdict::Cpu))
            .filter(|r| !weighed(r))
            .count() as u64;
        let recoveries =
            st.serial_fallbacks + st.cpu_fallbacks + st.breaker_trips + st.deadline_escalations;
        assert_eq!(hops, recoveries, "{name}: recoveries");
    }
}
