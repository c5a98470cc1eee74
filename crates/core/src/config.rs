//! Runtime configuration: overhead costs and feature toggles.

use crate::admission::AdmissionConfig;
use crate::resilience::ResiliencePolicy;
use ewc_energy::PowerStateTable;
use ewc_models::PolicyKnob;

/// Power-state stack configuration: the device state ladder plus the
/// policy knob that picks operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStatesConfig {
    /// The device's power-state ladder (DVFS levels, idle, sleep).
    pub table: PowerStateTable,
    /// The policy choosing among operating points.
    pub knob: PolicyKnob,
}

impl PowerStatesConfig {
    /// The testbed DVFS ladder under the given knob.
    pub fn tesla(knob: PolicyKnob) -> Self {
        PowerStatesConfig {
            table: ewc_energy::PowerStateModel::tesla_dvfs().table,
            knob,
        }
    }

    /// Race-to-idle on the testbed ladder.
    pub fn race() -> Self {
        Self::tesla(PolicyKnob::RaceToIdle)
    }

    /// Pace-to-deadline on the testbed ladder.
    pub fn pace(deadline_s: f64) -> Self {
        Self::tesla(PolicyKnob::Pace { deadline_s })
    }

    /// Cap-aware on the testbed ladder.
    pub fn cap(cap_w: f64) -> Self {
        Self::tesla(PolicyKnob::CapAware { cap_w })
    }
}

/// Configuration of the consolidation runtime.
///
/// The cost knobs model the paper's reported overheads: frontend↔backend
/// communication and synchronisation between frontends during
/// consolidation. The double copy through the backend's pre-allocated
/// staging buffer is priced by backend constants.
/// The toggles correspond to the paper's optimisations so ablation
/// benches can switch each off.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of identical simulated GPUs behind the backend when no
    /// `fleet` is configured (the paper's threshold scales with the
    /// device count); `0` still builds one device.
    pub num_gpus: u32,
    /// Pending-kernel threshold factor: consolidation is considered when
    /// pending ≥ `threshold_factor × num_gpus` (Section VII sets 10).
    pub threshold_factor: u32,
    /// Cost of one frontend↔backend message round trip, seconds.
    pub channel_latency_s: f64,
    /// Per-frontend synchronisation cost when a consolidation group is
    /// assembled, seconds.
    pub coordination_s: f64,
    /// Elect a leader frontend for homogeneous groups (Section IV).
    pub leader_election: bool,
    /// Hold `setup_argument` values in the frontend and ship them with
    /// `launch` (Section IV's batching optimisation).
    pub argument_batching: bool,
    /// Load reusable constant data (e.g. AES tables) once per device
    /// lifetime instead of once per instance.
    pub constant_reuse: bool,
    /// Restrict the decision engine to GPU alternatives (consolidate or
    /// serial). The experiment harnesses set this to measure the GPU
    /// path even for groups the full decision logic would send to the
    /// CPU; the default (false) is the paper's Figure 6 behaviour.
    pub force_gpu: bool,
    /// Seed for measurement noise in energy integration.
    pub noise_seed: Option<u64>,
    /// Flush pending kernels once the oldest has waited this long on the
    /// device clock, even below the threshold (bounds queueing latency
    /// in trace-driven runs). Infinite by default: the paper assumes a
    /// steady oversupply of requests.
    pub max_pending_wait_s: f64,
    /// Recovery behaviour under device faults: retries, per-request
    /// deadlines, and the per-device circuit breakers.
    pub resilience: ResiliencePolicy,
    /// Optional heterogeneous fleet description. `None` (the default)
    /// builds `num_gpus` identical devices from the builder's
    /// `GpuConfig` and places contexts round-robin — bit-compatible
    /// with the pre-fleet backend. `Some` overrides `num_gpus`: one
    /// device per [`ewc_fleet::DeviceSpec`], placed by the configured
    /// policy under the optional fleet power cap.
    pub fleet: Option<ewc_fleet::FleetConfig>,
    /// Admission control + graceful degradation under open-loop
    /// overload. `None` (the default) is read once, when the backend
    /// starts, as [`AdmissionConfig::unbounded`]: limits that never
    /// bind. `Some` bounds the per-device and per-context queues, answers
    /// `Busy` backpressure, sheds aged requests CoDel-style, and runs
    /// the degradation ladder.
    pub admission: Option<AdmissionConfig>,
    /// Optional power-state stack. `None` (the default) runs every
    /// device pinned at P0 with the flat power model — byte-identical to
    /// the pre-DVFS runtime. `Some` evaluates each GPU alternative
    /// across the ladder's operating points, applies the knob's chosen
    /// state to the device before launching, and parks the device in the
    /// deepest state afterwards when racing to idle.
    pub power_states: Option<PowerStatesConfig>,
}

impl RuntimeConfig {
    /// Number of devices the backend will drive: the fleet's device
    /// count when a fleet is configured, `num_gpus` otherwise.
    pub fn num_devices(&self) -> usize {
        match &self.fleet {
            Some(f) => f.roster().len(),
            None => self.num_gpus.max(1) as usize,
        }
    }

    /// The threshold at which the backend considers consolidation.
    pub fn threshold(&self) -> usize {
        self.threshold_factor as usize * self.num_devices()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_gpus: 1,
            threshold_factor: 10,
            channel_latency_s: 250e-6,
            coordination_s: 40e-3,
            leader_election: true,
            argument_batching: true,
            constant_reuse: true,
            force_gpu: false,
            noise_seed: None,
            max_pending_wait_s: f64::INFINITY,
            resilience: ResiliencePolicy::default(),
            fleet: None,
            admission: None,
            power_states: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_matches_paper() {
        let c = RuntimeConfig::default();
        assert_eq!(c.threshold(), 10, "10 × 1 GPU");
    }

    #[test]
    fn fleet_overrides_the_device_count() {
        let c = RuntimeConfig {
            num_gpus: 1,
            fleet: Some(ewc_fleet::FleetConfig::homogeneous(4)),
            ..RuntimeConfig::default()
        };
        assert_eq!(c.num_devices(), 4);
        assert_eq!(c.threshold(), 40, "10 × 4 fleet devices");
    }

    #[test]
    fn threshold_follows_the_device_count_the_builder_uses() {
        // `num_gpus: 0` still builds one device: a threshold of 0 would
        // flush every launch alone.
        let zero = RuntimeConfig {
            num_gpus: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!((zero.num_devices(), zero.threshold()), (1, 10));
        // The product is taken in `usize`, not `u32` (where it wraps to 0).
        let huge = RuntimeConfig {
            num_gpus: 2,
            threshold_factor: 1 << 31,
            ..RuntimeConfig::default()
        };
        assert_eq!(huge.threshold() as u64, 1u64 << 32);
    }
}
