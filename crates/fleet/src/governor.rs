//! The fleet governor: places contexts, and owns the per-device circuit
//! breakers and live-load accounting.
//!
//! The backend delegates every context→device question here:
//!
//! - first touch of a context calls [`FleetGovernor::place_avoiding`],
//!   which picks a device by the configured [`PolicyKind`], then applies
//!   two deterministic post-filters — avoid a tripped device when a
//!   healthy one exists, and avoid a saturated one when an unsaturated
//!   healthy one exists;
//! - a reaped (dead) context calls [`FleetGovernor::release`] with the
//!   device it ended on, so load counts track *live* contexts instead of
//!   drifting monotonically. The backend's context record owns the
//!   binding; the governor keeps only per-device counts;
//! - every launch first asks [`FleetGovernor::is_open`] of its device;
//!   its outcome calls [`FleetGovernor::record_fault`] (transient
//!   faults only) / [`record_success`](FleetGovernor::record_success)
//!   on the device that served it, so one sick card trips alone;
//! - when a group's device has tripped, [`FleetGovernor::healthy_target`]
//!   nominates the migration destination (or `None` → CPU lifeboat).
//!
//! Every placement and migration is recorded as a [`PlacementRecord`],
//! the byte-for-byte audit trail the determinism tests replay.

use ewc_exec::VirtualClock;

use crate::breaker::{CircuitBreaker, ResiliencePolicy};
use crate::config::{DeviceSpec, FleetConfig, PolicyKind};
use crate::policy;

/// Why a context landed on its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementReason {
    /// The policy's first choice.
    Policy,
    /// Redirected off the policy's pick because that device's breaker
    /// was open.
    Health,
    /// Re-placed by drain/migrate after the bound device tripped.
    Migrated,
    /// Redirected off the policy's pick because that device's admission
    /// queue is saturated — an overloaded-but-healthy device sheds new
    /// contexts before its breaker ever trips.
    Overload,
}

impl PlacementReason {
    /// Stable label for audit records.
    pub fn label(self) -> &'static str {
        match self {
            PlacementReason::Policy => "policy",
            PlacementReason::Health => "health",
            PlacementReason::Migrated => "migrated",
            PlacementReason::Overload => "overload",
        }
    }
}

/// One context→device binding event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRecord {
    /// The context that was bound.
    pub ctx: u64,
    /// The device it landed on.
    pub device: u32,
    /// Why it landed there.
    pub reason: PlacementReason,
}

/// Fleet-wide placement and health state.
pub struct FleetGovernor {
    specs: Vec<DeviceSpec>,
    policy: PolicyKind,
    /// Round-robin's first-touch counter, bumped on every placement.
    next_device: usize,
    breakers: Vec<CircuitBreaker>,
    live: Vec<u32>,
    placements: Vec<PlacementRecord>,
}

impl FleetGovernor {
    /// Build a governor for `cfg`'s devices, with one breaker per device
    /// configured from `resilience`.
    pub fn new(cfg: &FleetConfig, resilience: &ResiliencePolicy) -> Self {
        let specs = cfg.roster().into_owned();
        let n = specs.len();
        FleetGovernor {
            specs,
            policy: cfg.policy,
            next_device: 0,
            breakers: (0..n).map(|_| CircuitBreaker::new(resilience)).collect(),
            live: vec![0; n],
            placements: Vec::new(),
        }
    }

    /// The spec of device `d`.
    pub fn spec(&self, d: usize) -> &DeviceSpec {
        &self.specs[d]
    }

    /// Label of the active placement policy.
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// Live contexts currently bound to device `d`.
    pub fn live(&self, d: usize) -> u32 {
        self.live[d]
    }

    /// Bind a new context: [`FleetGovernor::place_avoiding`] with no
    /// device saturated.
    pub fn place(&mut self, ctx: u64, at: &VirtualClock) -> PlacementRecord {
        self.place_avoiding(ctx, at, &[])
    }

    /// Bind a new context: pick by the policy, then run the health and
    /// overload post-filters. The overload filter moves a pick marked in
    /// `saturated` (a missing entry reads as unsaturated) to the
    /// least-loaded healthy unsaturated device, if one exists — the
    /// admission controller's way of letting an overloaded-but-healthy
    /// device shed new work before its breaker trips. Records and returns
    /// the placement.
    pub fn place_avoiding(
        &mut self,
        ctx: u64,
        at: &VirtualClock,
        saturated: &[bool],
    ) -> PlacementRecord {
        let mut device = match self.policy {
            PolicyKind::RoundRobin => {
                let d = self.next_device % self.specs.len();
                self.next_device += 1;
                d
            }
            PolicyKind::FragAware => policy::frag_aware(&self.specs, &self.live),
        };
        let mut reason = PlacementReason::Policy;
        if self.breakers[device].is_open(at) {
            if let Some(alt) = self.healthy_target(device, at) {
                device = alt;
                reason = PlacementReason::Health;
            }
        }
        let is_saturated = |d: usize| saturated.get(d).copied().unwrap_or(false);
        if is_saturated(device) {
            let alt = (0..self.specs.len())
                .filter(|&d| d != device && !self.breakers[d].is_open(at) && !is_saturated(d))
                .min_by_key(|&d| (self.live[d], d));
            if let Some(alt) = alt {
                device = alt;
                reason = PlacementReason::Overload;
            }
        }
        self.live[device] += 1;
        let rec = PlacementRecord {
            ctx,
            device: device as u32,
            reason,
        };
        self.placements.push(rec.clone());
        rec
    }

    /// Release a reaped context bound to device `d`, so `d`'s live count
    /// no longer charges for it.
    pub fn release(&mut self, d: usize) {
        self.live[d] = self.live[d].saturating_sub(1);
    }

    /// Rebind `ctx` from device `from` onto `to` (drain/migrate off a
    /// tripped device).
    pub fn rebind(&mut self, ctx: u64, from: usize, to: usize) {
        self.live[from] = self.live[from].saturating_sub(1);
        self.live[to] += 1;
        self.placements.push(PlacementRecord {
            ctx,
            device: to as u32,
            reason: PlacementReason::Migrated,
        });
    }

    /// Record a transient fault on device `d`; `true` when it trips.
    /// Permanent errors never come here: they fault the request, not
    /// the card.
    pub fn record_fault(&mut self, d: usize, at: &VirtualClock) -> bool {
        self.breakers[d].record_fault(at)
    }

    /// Record a successful launch on device `d`.
    pub fn record_success(&mut self, d: usize) {
        self.breakers[d].record_success();
    }

    /// Whether device `d`'s breaker blocks its GPU path at `at`'s
    /// instant: the one health question, asked before every launch.
    pub fn is_open(&self, d: usize, at: &VirtualClock) -> bool {
        self.breakers[d].is_open(at)
    }

    /// The least-loaded healthy device other than `from`, if any — the
    /// drain/migrate destination when `from` trips. `None` means the
    /// whole fleet is sick and the group falls back to the CPU.
    pub fn healthy_target(&self, from: usize, at: &VirtualClock) -> Option<usize> {
        (0..self.specs.len())
            .filter(|&d| d != from && !self.breakers[d].is_open(at))
            .min_by_key(|&d| (self.live[d], d))
    }

    /// Every placement and migration, in binding order.
    pub fn placements(&self) -> &[PlacementRecord] {
        &self.placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(cfg: FleetConfig) -> FleetGovernor {
        FleetGovernor::new(&cfg, &ResiliencePolicy::default())
    }

    #[test]
    fn round_robin_cycles_and_release_frees_load() {
        let clk = VirtualClock::new();
        let mut g = governor(FleetConfig::homogeneous(3));
        for ctx in 0..6u64 {
            let rec = g.place(ctx, &clk);
            assert_eq!(rec.device as usize, (ctx % 3) as usize);
            assert_eq!(rec.reason, PlacementReason::Policy);
        }
        assert_eq!(g.live(0), 2);
        g.release(0);
        g.release(0);
        assert_eq!(g.live(0), 0);
        // Round robin keeps cycling (bit-compatible counter) even though
        // device 0 is now the emptiest.
        assert_eq!(g.place(6, &clk).device, 0);
        assert_eq!(g.place(7, &clk).device, 1);
    }

    #[test]
    fn tripped_device_is_avoided_and_migration_rebinds() {
        let clk = VirtualClock::new();
        let policy = ResiliencePolicy {
            breaker_threshold: 1,
            breaker_cooldown_s: 1e6,
            ..ResiliencePolicy::default()
        };
        let mut g = FleetGovernor::new(&FleetConfig::homogeneous(2), &policy);
        assert_eq!(g.place(1, &clk).device, 0);
        assert!(g.record_fault(0, &clk), "threshold 1 trips immediately");
        assert!(g.is_open(0, &clk));
        assert!(!g.is_open(1, &clk), "healthy device keeps serving");
        // Round robin would hand ctx 3 to device 0; the governor
        // redirects it to the healthy card instead.
        assert_eq!(g.place(2, &clk).device, 1);
        let rec = g.place(3, &clk);
        assert_eq!((rec.device, rec.reason), (1, PlacementReason::Health));
        // The bound context drains to the healthy card.
        assert_eq!(g.healthy_target(0, &clk), Some(1));
        g.rebind(1, 0, 1);
        assert_eq!((g.live(0), g.live(1)), (0, 3));
        assert_eq!(
            g.placements().last().map(|r| r.reason),
            Some(PlacementReason::Migrated)
        );
    }

    #[test]
    fn saturated_device_sheds_new_contexts_before_tripping() {
        let clk = VirtualClock::new();
        let mut g = governor(FleetConfig::homogeneous(2));
        // Round robin wants device 0, but its admission queue is full:
        // the placement redirects to the unsaturated card.
        let rec = g.place_avoiding(1, &clk, &[true, false]);
        assert_eq!((rec.device, rec.reason), (1, PlacementReason::Overload));
        // Everything saturated: the policy pick stands (shedding then
        // happens at admission, not by bouncing placements around).
        let rec = g.place_avoiding(2, &clk, &[true, true]);
        assert_eq!(rec.reason, PlacementReason::Policy);
        // Nothing saturated: bit-compatible with plain place().
        let rec = g.place_avoiding(3, &clk, &[false, false]);
        assert_eq!(rec.reason, PlacementReason::Policy);
    }

    #[test]
    fn whole_fleet_sick_means_no_migration_target() {
        let clk = VirtualClock::new();
        let policy = ResiliencePolicy {
            breaker_threshold: 1,
            breaker_cooldown_s: 1e6,
            ..ResiliencePolicy::default()
        };
        let mut g = FleetGovernor::new(&FleetConfig::homogeneous(2), &policy);
        g.record_fault(0, &clk);
        g.record_fault(1, &clk);
        assert_eq!(g.healthy_target(0, &clk), None);
    }
}
