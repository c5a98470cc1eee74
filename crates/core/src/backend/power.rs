//! Applying power states to devices: the knob-chosen operating point
//! around a launch, and the fleet governor's power-cap throttles.

use ewc_telemetry::{DecisionRecord, Verdict};

use super::Backend;

impl Backend {
    /// Move `device` to state `level` of the configured ladder. No-op
    /// without a power-state stack or when already there. Audited as
    /// [`Verdict::StateChanged`]; the device itself emits the
    /// `dvfs_level_gpu{d}` gauge and transition counter.
    pub(super) fn apply_power_state(&mut self, device: usize, level: usize) -> bool {
        let Some((name, freq, latency)) = self.decision.power_policy().and_then(|ps| {
            ps.table.get(level).map(|s| {
                // Park states cannot run work; the engine clock scale is
                // irrelevant there, so leave it at the base clock.
                let freq = if s.can_run() { s.freq_scale } else { 1.0 };
                (s.name, freq, s.wake_latency_s)
            })
        }) else {
            return false;
        };
        let from = self.gpus[device].power_level();
        let changed = self.gpus[device].set_power_state(level as u32, freq, latency);
        if changed {
            self.stats.state_changes += 1;
            if self.sink.is_enabled() {
                self.sink.audit(DecisionRecord::event(
                    self.gpus[device].now_s(),
                    Verdict::StateChanged,
                    Vec::new(),
                    format!(
                        "gpu{device}: power state {} -> {name} (level {level})",
                        from.map_or_else(|| "p0".to_string(), |l| format!("level {l}")),
                    ),
                ));
            }
        }
        changed
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
            let freq = if state.can_run() {
                state.freq_scale
            } else {
                1.0
            };
            let changed = self.gpus[d].set_power_state(rec.to as u32, freq, state.wake_latency_s);
            if changed {
                self.stats.state_changes += 1;
                if self.sink.is_enabled() {
                    self.sink.audit(DecisionRecord::event(
                        self.gpus[d].now_s(),
                        Verdict::StateChanged,
                        Vec::new(),
                        format!(
                            "gpu{d}: power cap throttled level {} -> {} (level {})",
                            rec.from, state.name, rec.to
                        ),
                    ));
                }
            }
        }
    }
}
