//! Overload-resilience integration tests: the open-loop harness
//! (`ewc-load`) driving the admission-controlled backend.
//!
//! The pinned properties:
//!
//! 1. **Conservation** — every generated request is accounted for
//!    exactly once (completed, failed with an audit, shed with an
//!    audit, or drained at disconnect), across light / storm / overload
//!    scenarios and seeds, and the backend's sheds are exactly the
//!    ones the clients were told about.
//! 2. **Determinism** — a same-seed overload replay is byte-identical:
//!    same client tallies, same audit log, same Chrome trace.
//! 3. **Graceful degradation** — a 10× storm finishes with bounded
//!    queue depth, nonzero sheds, and goodput within 10% of what the
//!    backend sustains at 1×: overload costs requests, not the service.

use ewc_load::openloop::{run, LoadConfig};
use ewc_load::ArrivalProcess;

/// Shrink a preset so the sweep stays cheap in debug builds while still
/// exercising hundreds of concurrent in-flight requests.
fn sweep_size(mut cfg: LoadConfig) -> LoadConfig {
    cfg.streams = 32;
    cfg.arrivals_per_stream = 16;
    cfg
}

#[test]
fn conservation_holds_across_scenarios_and_seeds() {
    for seed in [1u64, 42, 1337] {
        for (label, cfg) in [
            ("light", LoadConfig::light(seed)),
            ("storm", LoadConfig::storm(seed)),
            ("overload", LoadConfig::overload(seed)),
        ] {
            let r = run(&sweep_size(cfg));
            assert!(
                r.conserved(),
                "{label} seed {seed}: generated {} != completed {} + failed {} \
                 + shed {} + drained {}",
                r.generated,
                r.completed,
                r.failed,
                r.shed,
                r.drained
            );
            assert_eq!(
                r.client.client_errors, 0,
                "{label} seed {seed}: unexpected client errors: {:?}",
                r.client
            );
            // Client-side and backend-side shed accounting must agree:
            // every shed was either answered at admission or delivered
            // as a notice at sync — none vanished.
            assert!(
                r.shed_accounted(),
                "{label} seed {seed}: shed {} != {:?}",
                r.shed,
                r.client
            );
        }
    }
}

#[test]
fn bursty_and_diurnal_storms_conserve_too() {
    for process in [LoadConfig::bursty(), LoadConfig::diurnal()] {
        let cfg = sweep_size(LoadConfig::scaled(42, process.clone(), 4.0));
        let r = run(&cfg);
        assert!(r.conserved(), "{} 4x: {r:?}", process.label());
        assert!(r.shed_accounted(), "{} 4x: {r:?}", process.label());
        assert_eq!(r.client.client_errors, 0, "{} 4x", process.label());
    }
}

#[test]
fn same_seed_overload_replay_is_byte_identical() {
    let mut cfg = sweep_size(LoadConfig::overload(1337));
    cfg.telemetry = true;
    let a = run(&cfg);
    let b = run(&cfg);

    // Scalar outcomes first (cheap to diagnose on failure).
    assert_eq!(a.client, b.client);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.max_degradation_level, b.max_degradation_level);
    assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());

    // Every shed and every decision left the same audit trail.
    let (sa, sb) = (
        a.telemetry.as_ref().expect("telemetry requested"),
        b.telemetry.as_ref().expect("telemetry requested"),
    );
    assert!(
        !sa.audit.is_empty(),
        "an overload run must leave an audit trail"
    );
    assert_eq!(
        format!("{:?}", sa.audit),
        format!("{:?}", sb.audit),
        "audit logs must replay byte-identically"
    );

    // And the full Chrome-trace export is byte-identical.
    let ta = ewc_telemetry::export::chrome::render(sa);
    let tb = ewc_telemetry::export::chrome::render(sb);
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "chrome traces must replay byte-identically");
}

#[test]
fn ten_x_storm_degrades_gracefully() {
    // Full preset scale, both runs measured here so the bar tracks the
    // harness itself rather than hard-coded throughput numbers.
    let one_x = run(&LoadConfig::scaled(7, LoadConfig::poisson(), 1.0));
    let storm = run(&LoadConfig::overload(7));

    assert!(one_x.conserved() && one_x.shed_accounted(), "{one_x:?}");
    assert!(storm.conserved() && storm.shed_accounted(), "{storm:?}");
    assert_eq!(storm.client.client_errors, 0);

    // The storm must actually shed — otherwise it is not an overload.
    assert!(storm.shed > 0, "a 10x storm must shed: {:?}", storm.client);

    // Bounded queues: the pending queue never exceeded the configured
    // per-device bound (plus the requests a flush batch holds).
    let bound = LoadConfig::preset_admission().max_per_device as u64;
    assert!(
        storm.max_pending_depth <= bound,
        "pending depth {} exceeded the admission bound {}",
        storm.max_pending_depth,
        bound
    );

    // Graceful degradation: goodput under 10x offered load stays within
    // 10% of the 1x service rate — the backend sheds the excess instead
    // of collapsing.
    let (g1, g10) = (one_x.goodput_hz(), storm.goodput_hz());
    assert!(
        g10 >= 0.9 * g1,
        "overload goodput {g10:.1}/s collapsed below 90% of 1x {g1:.1}/s"
    );
}

#[test]
fn degradation_ladder_engages_and_recovers() {
    // The ladder preset: no rate limit and a heavy 20 ms kernel make
    // the *device* the bottleneck, so admitted work piles up as device
    // backlog and the queue-age watchdog walks the ladder down. It must
    // engage, step more than once (engage + recover at minimum), and
    // the run must still conserve.
    let r = run(&LoadConfig::ladder(11));
    assert!(r.conserved(), "{r:?}");
    assert!(r.shed_accounted(), "{r:?}");
    assert!(
        r.max_degradation_level >= 1,
        "the ladder scenario must engage the watchdog: {r:?}"
    );
    assert!(
        r.degradation_steps >= 2,
        "a ladder that engaged must also recover: {r:?}"
    );
}

#[test]
fn priorities_shed_low_before_high() {
    // Under deep overload the preset sheds Low traffic preferentially.
    let mut cfg = sweep_size(LoadConfig::overload(5));
    cfg.telemetry = true;
    let r = run(&cfg);
    assert!(r.conserved(), "{r:?}");
    assert!(r.shed_accounted(), "{r:?}");
    let snap = r.telemetry.as_ref().expect("telemetry requested");
    // Count shed verdicts; the audit reason strings carry the cause.
    let shed_records = snap
        .audit
        .iter()
        .filter(|d| d.verdict.label() == "shed")
        .count() as u64;
    assert_eq!(
        shed_records, r.shed,
        "every shed must be audited exactly once"
    );
}

#[test]
fn admission_off_keeps_the_open_loop_unbounded() {
    // The ablation baseline: no admission layer means nothing is shed,
    // nothing is answered Busy, and every generated request completes —
    // i.e. the new machinery is fully opt-in.
    let mut cfg = sweep_size(LoadConfig::storm(3));
    cfg.admission = None;
    let r = run(&cfg);
    assert!(r.conserved(), "{r:?}");
    assert!(r.shed_accounted(), "{r:?}");
    assert_eq!(r.shed, 0);
    assert_eq!(r.client.busy_answers, 0);
    assert_eq!(r.completed, r.generated);
}

#[test]
fn offered_load_multiplier_scales_all_processes() {
    for p in [
        LoadConfig::poisson(),
        LoadConfig::bursty(),
        LoadConfig::diurnal(),
    ] {
        let s = p.scaled(4.0);
        assert!((s.mean_rate_hz() - 4.0 * p.mean_rate_hz()).abs() < 1e-9);
        assert_eq!(s.label(), p.label());
    }
    // Presets expose the documented multipliers.
    assert!(
        (LoadConfig::light(1).process.mean_rate_hz()
            - 0.5
                * ArrivalProcess::Poisson {
                    rate_hz: ewc_load::openloop::BASE_RATE_HZ
                }
                .mean_rate_hz())
        .abs()
            < 1e-9
    );
}
