//! Applying power states to devices: the knob-chosen operating point
//! around a launch. The runtime's power-state ladder is the only owner
//! of a device's state, and [`Backend::apply_power_state`] its one
//! setter.

use ewc_telemetry::{AuditEvent, DecisionRecord, Verdict};

use super::Backend;

impl Backend {
    /// Move `device` to state `level` of the configured ladder. No-op
    /// without a power-state stack or when already there. A change is
    /// audited as [`Verdict::StateChanged`]; the device keeps the
    /// transition, which `state_changes` counts at shutdown.
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
        if self.sink.is_enabled() {
            self.sink.audit(DecisionRecord::event(
                self.gpus[device].now_s(),
                Verdict::StateChanged,
                Vec::new(),
                AuditEvent::StateChanged {
                    device,
                    from,
                    state: state.name,
                    level,
                },
            ));
        }
    }
}
