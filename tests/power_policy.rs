//! Power-state stack integration: same-seed DVFS replay determinism,
//! the race-vs-pace crossover through the whole runtime, and one audited
//! state change per device transition on a heterogeneous fleet.

use ewc_bench::{run_batch, Mix};
use ewc_core::{PowerStatesConfig, RuntimeConfig};
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, PolicyKind};
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
fn every_fleet_state_change_is_audited_once() {
    // The runtime's ladder is the only owner of a device's power state:
    // each transition it applies on any card of the fleet is counted
    // once and audited once.
    let fleet = FleetConfig::heterogeneous(4).with_policy(PolicyKind::FragAware);
    let report = session(12, 3, Some(PowerStatesConfig::race()), Some(fleet));
    assert!(report.stats.state_changes > 0, "{:?}", report.stats);
    let audit = report.telemetry.expect("telemetry enabled");
    let audited = audit
        .audit
        .iter()
        .filter(|r| r.verdict == Verdict::StateChanged)
        .count() as u64;
    assert_eq!(report.stats.state_changes, audited);
}
