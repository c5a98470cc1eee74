//! Fleet description: per-device specs and the fleet-level knobs.

use std::borrow::Cow;

use ewc_energy::PowerStateTable;
use ewc_gpu::GpuConfig;

/// Idle (static) draw of one card at the fleet's power-proxy scale 1.0,
/// watts. Matches the ~40 W a Tesla C1060 burns with no SM active.
pub const CARD_IDLE_W: f64 = 40.0;

/// Dynamic draw per active SM at full utilization, watts. With the
/// C1060's 30 SMs this lands the busy card near its ~190 W TDP
/// (40 + 30 × 5).
pub const SM_ACTIVE_W: f64 = 5.0;

/// Live contexts at which the placement power proxy treats a device as
/// fully utilized. A C1060 runs at most 8 blocks per SM, and the
/// backend's consolidator similarly saturates a card within a handful of
/// co-resident contexts.
pub const SATURATION_CTXS: u32 = 8;

/// One device in the fleet: the simulated card plus the scaling knobs
/// the placement layer scores with.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable label (shows up in telemetry and the CLI tables).
    pub name: String,
    /// The simulated card itself. Heterogeneity enters here: SM count,
    /// DRAM bandwidth, clock — all derived from the C1060 preset.
    pub gpu: GpuConfig,
    /// Multiplier on the device's power curve relative to the baseline
    /// C1060 (1.0). A die-shrunk part of the same architecture would sit
    /// below 1.0; a wider card above it.
    pub power_scale: f64,
    /// The card's power-state ladder. The default single-state table
    /// (P0 at [`CARD_IDLE_W`]) makes every accounting path bit-compatible
    /// with the pre-DVFS fleet; a multi-level table lets the power cap
    /// throttle this device instead of only redirecting placement.
    pub states: PowerStateTable,
}

impl DeviceSpec {
    /// The baseline device: an unscaled Tesla C1060.
    pub fn c1060() -> Self {
        DeviceSpec {
            name: "c1060".to_string(),
            gpu: GpuConfig::tesla_c1060(),
            power_scale: 1.0,
            states: PowerStateTable::single(CARD_IDLE_W),
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
            name: name.to_string(),
            gpu,
            power_scale,
            states: PowerStateTable::single(CARD_IDLE_W),
        }
    }

    /// Replace the card's power-state ladder (e.g.
    /// [`PowerStateTable::dvfs`] to let the fleet power cap throttle the
    /// card through its operating points).
    pub fn with_states(mut self, states: PowerStateTable) -> Self {
        self.states = states;
        self
    }

    /// Live contexts at which the placement proxy treats this card as
    /// saturated: [`SATURATION_CTXS`] scaled by the SM count relative to
    /// the baseline C1060 (minimum one).
    pub fn capacity(&self) -> u32 {
        let base_sms = GpuConfig::tesla_c1060().num_sms;
        ((SATURATION_CTXS * self.gpu.num_sms + base_sms / 2) / base_sms).max(1)
    }

    /// Placement-layer power proxy: estimated draw of this card with
    /// `ctxs` live contexts held at state `level`, watts. Linear in
    /// utilization between the state's static floor and the all-SMs-busy
    /// ceiling, the per-SM dynamic term scaled by the state's `f·V²`.
    /// The power cap scores a binding with it, without a kernel spec in
    /// hand. At the top of the default single-state table this is
    /// bit-identical to the pre-DVFS proxy (`CARD_IDLE_W` floor,
    /// [`SM_ACTIVE_W`] per SM). An unknown level falls back to the top
    /// state.
    pub fn est_power_in_state_w(&self, ctxs: u32, level: usize) -> f64 {
        let state = self
            .states
            .get(level)
            .unwrap_or(&self.states.states[self.states.top()]);
        let cap = self.capacity();
        let u = f64::from(ctxs.min(cap)) / f64::from(cap);
        self.power_scale
            * (state.static_w
                + (SM_ACTIVE_W * state.dynamic_scale()) * f64::from(self.gpu.num_sms) * u)
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

/// The whole fleet: devices, the placement policy, and an optional
/// fleet-level power cap.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Devices, indexed as `gpu0..gpuN-1`.
    pub devices: Vec<DeviceSpec>,
    /// Context→device placement strategy.
    pub policy: PolicyKind,
    /// Optional fleet-level power cap, watts, on the placement power
    /// proxy. A binding whose projected fleet draw exceeds the cap is
    /// redirected to the device minimizing the projected draw (the cap
    /// redirects placement — it never refuses admission).
    pub power_cap_w: Option<f64>,
}

impl FleetConfig {
    /// `n` identical baseline C1060s under round robin — the
    /// configuration that reproduces the pre-fleet backend exactly.
    pub fn homogeneous(n: usize) -> Self {
        FleetConfig {
            devices: (0..n.max(1)).map(|_| DeviceSpec::c1060()).collect(),
            policy: PolicyKind::RoundRobin,
            power_cap_w: None,
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
                    spec.name = format!("{}#{d}", spec.name);
                    spec
                })
                .collect(),
            policy: PolicyKind::RoundRobin,
            power_cap_w: None,
        }
    }

    /// Replace the placement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Give every device the DVFS ladder (anchored at [`CARD_IDLE_W`])
    /// so the power cap can throttle operating points before it falls
    /// back to redirecting placement.
    pub fn with_dvfs(mut self) -> Self {
        for spec in &mut self.devices {
            spec.states = PowerStateTable::dvfs(CARD_IDLE_W);
        }
        self
    }

    /// Set the fleet-level power cap, watts.
    pub fn with_power_cap(mut self, watts: f64) -> Self {
        self.power_cap_w = Some(watts);
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
    }

    #[test]
    fn power_proxy_spans_idle_to_tdp() {
        let spec = DeviceSpec::c1060();
        assert_eq!(spec.capacity(), SATURATION_CTXS);
        let top = spec.states.top();
        assert!((spec.est_power_in_state_w(0, top) - CARD_IDLE_W).abs() < 1e-9);
        let busy = spec.est_power_in_state_w(SATURATION_CTXS, top);
        assert!((busy - (CARD_IDLE_W + SM_ACTIVE_W * 30.0)).abs() < 1e-9);
        // Past saturation the proxy clamps at the ceiling.
        assert_eq!(
            spec.est_power_in_state_w(SATURATION_CTXS + 4, top)
                .to_bits(),
            busy.to_bits()
        );
    }

    #[test]
    fn state_table_proxy_matches_the_flat_proxy_at_top() {
        // The proxy is now derived from the state table; at the default
        // single-state table's top this must be the pre-DVFS arithmetic
        // bit-for-bit.
        let spec = DeviceSpec::c1060();
        for ctxs in 0..=SATURATION_CTXS {
            let cap = spec.capacity();
            let u = f64::from(ctxs.min(cap)) / f64::from(cap);
            let flat =
                spec.power_scale * (CARD_IDLE_W + SM_ACTIVE_W * f64::from(spec.gpu.num_sms) * u);
            let proxy = spec.est_power_in_state_w(ctxs, spec.states.top());
            assert_eq!(proxy.to_bits(), flat.to_bits());
        }
    }

    #[test]
    fn dvfs_table_throttles_the_proxy() {
        let spec = DeviceSpec::c1060().with_states(PowerStateTable::dvfs(CARD_IDLE_W));
        let top = spec.states.top();
        let busy_top = spec.est_power_in_state_w(SATURATION_CTXS, top);
        // The deepest operating point draws markedly less at equal load.
        let (deepest, _) = spec
            .states
            .operating_points()
            .next()
            .expect("dvfs ladder has operating points");
        let busy_deep = spec.est_power_in_state_w(SATURATION_CTXS, deepest);
        assert!(
            busy_deep < busy_top * 0.5,
            "p2 proxy {busy_deep:.1} W vs p0 {busy_top:.1} W"
        );
        // Unknown levels fall back to the top state.
        assert_eq!(
            spec.est_power_in_state_w(3, 99).to_bits(),
            spec.est_power_in_state_w(3, top).to_bits()
        );
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
