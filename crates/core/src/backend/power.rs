//! Applying power states to devices: the knob-chosen operating point
//! around a launch, and the fleet governor's power-cap throttles.

use ewc_energy::PowerState;
use ewc_telemetry::{DecisionRecord, Verdict};

use super::Backend;

impl Backend {
    /// Move `device` to state `level` of the configured ladder. No-op
    /// without a power-state stack or when already there. Audited as
    /// [`Verdict::StateChanged`]; the device itself emits the
    /// `dvfs_level_gpu{d}` gauge and transition counter.
    pub(super) fn apply_power_state(&mut self, device: usize, level: usize) -> bool {
        let Some(state) = self
            .decision
            .power_policy()
            .and_then(|ps| ps.table.get(level))
            .copied()
        else {
            return false;
        };
        let from = self.gpus[device].power_level();
        self.set_device_state(device, level, state, || {
            format!(
                "gpu{device}: power state {} -> {} (level {level})",
                from.map_or_else(|| "p0".to_string(), |l| format!("level {l}")),
                state.name,
            )
        })
    }

    /// Replay power-cap throttles the governor recorded onto the
    /// actual devices so projections and simulated timing agree, and
    /// audit each as a state change driven by the fleet cap.
    pub(super) fn sync_fleet_throttles(&mut self) {
        while self.fleet_throttles_seen < self.fleet.state_changes().len() {
            let rec = self.fleet.state_changes()[self.fleet_throttles_seen];
            self.fleet_throttles_seen += 1;
            let d = rec.device as usize;
            let Some(state) = self.fleet.spec(d).states.get(rec.to).copied() else {
                continue;
            };
            self.set_device_state(d, rec.to, state, || {
                format!(
                    "gpu{d}: power cap throttled level {} -> {} (level {})",
                    rec.from, state.name, rec.to
                )
            });
        }
    }

    /// Put device `d` into `state`, level `level` of its ladder. When
    /// that changed the device, count it and audit it as
    /// [`Verdict::StateChanged`] with the text `reason` writes.
    fn set_device_state(
        &mut self,
        d: usize,
        level: usize,
        state: PowerState,
        reason: impl FnOnce() -> String,
    ) -> bool {
        // Park states cannot run work; the engine clock scale is
        // irrelevant there, so leave it at the base clock.
        let freq = if state.can_run() {
            state.freq_scale
        } else {
            1.0
        };
        let changed = self.gpus[d].set_power_state(level as u32, freq, state.wake_latency_s);
        if changed {
            self.stats.state_changes += 1;
            if self.sink.is_enabled() {
                self.sink.audit(DecisionRecord::event(
                    self.gpus[d].now_s(),
                    Verdict::StateChanged,
                    Vec::new(),
                    reason(),
                ));
            }
        }
        changed
    }
}
