//! Fleet description: per-device specs and the fleet-level knobs.

use std::borrow::Cow;
use std::sync::Arc;

use ewc_gpu::GpuConfig;

/// Live contexts at which frag-aware placement treats a baseline C1060
/// as fully utilized. A C1060 runs at most 8 blocks per SM, and the
/// backend's consolidator similarly saturates a card within a handful of
/// co-resident contexts.
pub const SATURATION_CTXS: u32 = 8;

/// One device in the fleet: the simulated card plus the scaling knobs
/// the placement layer scores with.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable label (shows up in telemetry and the CLI tables).
    pub name: Arc<str>,
    /// The simulated card itself. Heterogeneity enters here: SM count,
    /// DRAM bandwidth, clock — all derived from the C1060 preset.
    pub gpu: GpuConfig,
    /// Multiplier on the device's power curve relative to the baseline
    /// C1060 (1.0). A die-shrunk part of the same architecture would sit
    /// below 1.0; a wider card above it. Nothing scores or meters with
    /// it yet: it is the card's own power profile, kept for the meter.
    pub power_scale: f64,
}

impl DeviceSpec {
    /// The baseline device: an unscaled Tesla C1060.
    pub fn c1060() -> Self {
        DeviceSpec {
            name: "c1060".into(),
            gpu: GpuConfig::tesla_c1060(),
            power_scale: 1.0,
        }
    }

    /// A C1060 derivative: `sm_scale` multiplies the SM count (minimum
    /// one SM), `bw_scale` the DRAM bandwidth, `power_scale` the power
    /// curve. All other timing parameters stay at the preset's values so
    /// heterogeneous fleets remain comparable.
    pub fn scaled(name: &str, sm_scale: f64, bw_scale: f64, power_scale: f64) -> Self {
        let base = GpuConfig::tesla_c1060();
        let gpu = GpuConfig {
            num_sms: ((f64::from(base.num_sms) * sm_scale) as u32).max(1),
            dram_bandwidth: base.dram_bandwidth * bw_scale,
            ..base
        };
        DeviceSpec {
            name: name.into(),
            gpu,
            power_scale,
        }
    }

    /// Live contexts at which frag-aware placement treats this card as
    /// saturated: `SATURATION_CTXS` (8) scaled by the SM count relative to
    /// the baseline C1060 (minimum one).
    pub fn capacity(&self) -> u32 {
        let base_sms = GpuConfig::tesla_c1060().num_sms;
        ((SATURATION_CTXS * self.gpu.num_sms + base_sms / 2) / base_sms).max(1)
    }
}

/// Which placement policy the fleet governor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-touch round robin over all devices, healthy or not —
    /// bit-compatible with the pre-fleet backend's device counter.
    RoundRobin,
    /// Smallest fragmentation-gradient increase wins — packs contexts
    /// onto already-busy cards (à la arXiv 2412.17484).
    FragAware,
}

impl PolicyKind {
    /// Every policy, in comparison order.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::RoundRobin, PolicyKind::FragAware];

    /// Stable CLI / telemetry label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::FragAware => "frag-aware",
        }
    }

    /// Parse a CLI label back into a kind.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// The whole fleet: devices and the placement policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Devices, indexed as `gpu0..gpuN-1`.
    pub devices: Vec<DeviceSpec>,
    /// Context→device placement strategy.
    pub policy: PolicyKind,
}

impl FleetConfig {
    /// `n` identical baseline C1060s under round robin — the
    /// configuration that reproduces the pre-fleet backend exactly.
    pub fn homogeneous(n: usize) -> Self {
        FleetConfig {
            devices: (0..n.max(1)).map(|_| DeviceSpec::c1060()).collect(),
            policy: PolicyKind::RoundRobin,
        }
    }

    /// `n` devices cycling through three C1060 derivatives: the baseline
    /// card, a half-width low-power part, and a wide high-power part.
    /// The heterogeneity is what separates the two policies in the
    /// `ewc fleet` comparison.
    pub fn heterogeneous(n: usize) -> Self {
        let presets = [
            DeviceSpec::c1060(),
            DeviceSpec::scaled("c1060-half", 0.5, 0.6, 0.55),
            DeviceSpec::scaled("c1060-wide", 1.5, 1.4, 1.6),
        ];
        FleetConfig {
            devices: (0..n.max(1))
                .map(|d| {
                    let mut spec = presets[d % presets.len()].clone();
                    spec.name = format!("{}#{d}", spec.name).into();
                    spec
                })
                .collect(),
            policy: PolicyKind::RoundRobin,
        }
    }

    /// Replace the placement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Identity. A device's operating point has one owner, the
    /// runtime's power-state ladder, so a fleet carries no ladder of its
    /// own. Kept only because the benchmark package (`fleet_policy_burst`)
    /// and the DVFS-fleet export digest call it; it goes once the
    /// benchmark stops pinning the workspace's names (ROADMAP B(4)).
    pub fn with_dvfs(self) -> Self {
        self
    }

    /// The devices the runtime drives: `devices`, or one baseline C1060
    /// when the list is empty. The runtime builder, the device count and
    /// the governor all read the fleet through this.
    pub fn roster(&self) -> Cow<'_, [DeviceSpec]> {
        if self.devices.is_empty() {
            Cow::Owned(vec![DeviceSpec::c1060()])
        } else {
            Cow::Borrowed(&self.devices)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_spec_derives_from_the_c1060_preset() {
        let half = DeviceSpec::scaled("half", 0.5, 0.6, 0.55);
        let base = GpuConfig::tesla_c1060();
        assert_eq!(half.gpu.num_sms, base.num_sms / 2);
        assert!((half.gpu.dram_bandwidth - base.dram_bandwidth * 0.6).abs() < 1.0);
        assert_eq!(half.gpu.clock_hz, base.clock_hz);
        assert!(half.gpu.validate().is_ok());
        assert_eq!(DeviceSpec::c1060().capacity(), SATURATION_CTXS);
        assert_eq!(half.capacity(), SATURATION_CTXS / 2);
    }

    #[test]
    fn policy_labels_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn heterogeneous_fleet_validates_and_differs() {
        let fleet = FleetConfig::heterogeneous(4);
        assert_eq!(fleet.devices.len(), 4);
        for spec in &fleet.devices {
            assert!(spec.gpu.validate().is_ok(), "{}", spec.name);
        }
        assert_ne!(fleet.devices[0].gpu.num_sms, fleet.devices[1].gpu.num_sms);
    }
}
