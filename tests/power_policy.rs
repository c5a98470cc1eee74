//! Power-state stack integration: same-seed DVFS replay determinism,
//! the race-vs-pace crossover through the whole runtime, and the fleet
//! power cap throttling operating points with an audited trail.

use ewc_bench::{run_batch, Mix};
use ewc_core::{PowerStatesConfig, RuntimeConfig};
use ewc_exec::VirtualClock;
use ewc_fleet::FleetConfig;
use ewc_gpu::GpuConfig;
use ewc_telemetry::{TelemetrySink, Verdict};

/// Run `n` verified AES instances under the given knobs and return the
/// shutdown report. Virtual span mode so whole [`ewc_core::BackendStats`]
/// values compare byte-for-byte across runs (see `multi_gpu.rs` for why
/// wall-clock mode can shift a flush timestamp).
fn session(
    n: u32,
    threshold: u32,
    power_states: Option<PowerStatesConfig>,
    fleet: Option<FleetConfig>,
) -> ewc_core::RuntimeReport {
    let batch = run_batch(
        RuntimeConfig {
            threshold_factor: threshold,
            force_gpu: true,
            noise_seed: Some(7),
            power_states,
            fleet,
            ..RuntimeConfig::default()
        },
        TelemetrySink::enabled_virtual(VirtualClock::new()),
        &Mix::encryption(&GpuConfig::tesla_c1060(), n),
    );
    assert!(batch.correct, "every instance must verify");
    batch.report
}

#[test]
fn dvfs_replay_is_byte_identical_under_every_knob() {
    for knob in [
        PowerStatesConfig::race(),
        PowerStatesConfig::pace(60.0),
        PowerStatesConfig::cap(220.0),
    ] {
        let a = session(9, 9, Some(knob.clone()), None);
        let b = session(9, 9, Some(knob.clone()), None);
        assert!(
            a.stats.state_changes > 0,
            "{knob:?}: the stack must actually switch states: {:?}",
            a.stats
        );
        assert_eq!(
            a.stats, b.stats,
            "{knob:?}: same seed must replay the whole backend byte-identically"
        );
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.energy.energy_j.to_bits(), b.energy.energy_j.to_bits());
    }
}

#[test]
fn race_and_pace_cross_over_through_the_runtime() {
    // Race pins P0 and parks; pace gets 3× the race batch time as its
    // deadline and throttles to a lower operating point, so the same
    // nine-instance batch runs measurably longer — and every output is
    // still verified against the host reference inside `session`.
    let race = session(9, 9, Some(PowerStatesConfig::race()), None);
    let pace = session(
        9,
        9,
        Some(PowerStatesConfig::pace(race.elapsed_s * 3.0)),
        None,
    );
    assert!(race.stats.state_changes > 0, "{:?}", race.stats);
    assert!(pace.stats.state_changes > 0, "{:?}", pace.stats);
    assert!(
        pace.elapsed_s > 1.2 * race.elapsed_s,
        "pace must stretch into its slack: {} vs {}",
        pace.elapsed_s,
        race.elapsed_s
    );
    assert_ne!(
        race.energy.energy_j.to_bits(),
        pace.energy.energy_j.to_bits(),
        "different operating points must integrate different energy"
    );
}

#[test]
fn fleet_cap_throttle_reaches_the_device_and_the_audit_trail() {
    // homogeneous(2).with_dvfs() idles well under 95 W, but adding a
    // context's marginal draw overshoots the cap, so the governor
    // throttles the picked device down its ladder instead of
    // redirecting. The backend must replay that onto the simulated
    // device (stats.state_changes) and audit it as StateChanged.
    let report = session(
        12,
        3,
        None,
        Some(FleetConfig::homogeneous(2).with_dvfs().with_power_cap(95.0)),
    );
    assert!(
        report.stats.state_changes > 0,
        "cap throttles must reach the device: {:?}",
        report.stats
    );
    let audit = report.telemetry.expect("telemetry enabled");
    let throttles: Vec<_> = audit
        .audit
        .iter()
        .filter(|r| r.verdict == Verdict::StateChanged)
        .collect();
    assert!(
        !throttles.is_empty(),
        "cap throttles must be audited: {} records",
        audit.audit.len()
    );
    assert!(
        throttles
            .iter()
            .any(|r| r.reason.contains("power cap throttled")),
        "{:?}",
        throttles.iter().map(|r| &r.reason).collect::<Vec<_>>()
    );

    // Uncapped control: same fleet, no cap — nothing to throttle.
    let free = session(12, 3, None, Some(FleetConfig::homogeneous(2).with_dvfs()));
    assert_eq!(free.stats.state_changes, 0, "{:?}", free.stats);
}
