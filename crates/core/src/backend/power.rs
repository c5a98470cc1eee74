//! Applying power states to devices: the knob-chosen operating point
//! around a launch. The runtime's power-state ladder is the only owner
//! of a device's state, and [`Backend::apply_power_state`] its one
//! setter.

use ewc_telemetry::{DecisionRecord, Verdict};

use super::Backend;

impl Backend {
    /// Move `device` to state `level` of the configured ladder. No-op
    /// without a power-state stack or when already there. A change is
    /// counted in `state_changes` and audited as
    /// [`Verdict::StateChanged`]; the device itself emits its level
    /// gauge and transition counter.
    pub(super) fn apply_power_state(&mut self, device: usize, level: usize) {
        let Some(state) = self
            .decision
            .power_policy()
            .and_then(|ps| ps.table.get(level))
            .copied()
        else {
            return;
        };
        let from = self.gpus[device].power_level();
        // Park states cannot run work; the engine clock scale is
        // irrelevant there, so leave it at the base clock.
        let freq = if state.can_run() {
            state.freq_scale
        } else {
            1.0
        };
        if !self.gpus[device].set_power_state(level as u32, freq, state.wake_latency_s) {
            return;
        }
        self.stats.state_changes += 1;
        if self.sink.is_enabled() {
            self.sink.audit(DecisionRecord::event(
                self.gpus[device].now_s(),
                Verdict::StateChanged,
                Vec::new(),
                format!(
                    "gpu{device}: power state {} -> {} (level {level})",
                    from.map_or_else(|| "p0".to_string(), |l| format!("level {l}")),
                    state.name,
                ),
            ));
        }
    }
}
