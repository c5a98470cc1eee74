//! The fleet governor: places contexts, and owns the per-device circuit
//! breakers, live-load accounting, and the optional fleet-level power
//! cap.
//!
//! The backend delegates every context→device question here:
//!
//! - first touch of a context calls [`FleetGovernor::place_avoiding`],
//!   which picks a device by the configured [`PolicyKind`], then applies
//!   three deterministic post-filters — avoid a tripped device when a
//!   healthy one exists, avoid a saturated one when an unsaturated
//!   healthy one exists, and throttle or redirect a binding whose
//!   projected fleet draw would exceed the power cap;
//! - a reaped (dead) context calls [`FleetGovernor::release`], so load
//!   counts track *live* contexts instead of drifting monotonically;
//! - launch outcomes call [`FleetGovernor::record_fault`] /
//!   [`record_success`](FleetGovernor::record_success) on the device
//!   that served the group, so one sick card trips alone;
//! - when a group's device has tripped, [`FleetGovernor::healthy_target`]
//!   nominates the migration destination (or `None` → CPU lifeboat).
//!
//! Every placement and migration is recorded as a [`PlacementRecord`],
//! the byte-for-byte audit trail the determinism tests replay.

use std::collections::HashMap;

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
    /// Redirected because the policy's pick would blow the fleet-level
    /// power cap.
    PowerCap,
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
            PlacementReason::PowerCap => "power-cap",
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

/// One power-cap throttle event: a device moved between operating
/// points of its state ladder. The backend replays these onto the
/// simulated devices and audits them as `state_changed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChangeRecord {
    /// The throttled device.
    pub device: u32,
    /// Level left (index into the device's state table).
    pub from: usize,
    /// Level entered.
    pub to: usize,
}

/// Fleet-wide placement and health state.
pub struct FleetGovernor {
    specs: Vec<DeviceSpec>,
    policy: PolicyKind,
    /// Round-robin's first-touch counter, bumped on every placement.
    next_device: usize,
    power_cap_w: Option<f64>,
    breakers: Vec<CircuitBreaker>,
    live: Vec<u32>,
    bindings: HashMap<u64, usize>,
    placements: Vec<PlacementRecord>,
    cap_redirects: u64,
    migrations: u64,
    /// Current operating point per device (index into its state table),
    /// initialised to each ladder's top. The power proxy and cap filter
    /// score at this level.
    dvfs_level: Vec<usize>,
    state_changes: Vec<StateChangeRecord>,
    throttles: u64,
}

impl FleetGovernor {
    /// Build a governor for `cfg`'s devices, with one breaker per device
    /// configured from `resilience`.
    pub fn new(cfg: &FleetConfig, resilience: &ResiliencePolicy) -> Self {
        let specs = cfg.roster().into_owned();
        let n = specs.len();
        let dvfs_level = specs.iter().map(|s| s.states.top()).collect();
        FleetGovernor {
            specs,
            policy: cfg.policy,
            next_device: 0,
            power_cap_w: cfg.power_cap_w,
            breakers: (0..n).map(|_| CircuitBreaker::new(resilience)).collect(),
            live: vec![0; n],
            bindings: HashMap::new(),
            placements: Vec::new(),
            cap_redirects: 0,
            migrations: 0,
            dvfs_level,
            state_changes: Vec::new(),
            throttles: 0,
        }
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Fleets always have at least one device.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The spec of device `d`.
    pub fn spec(&self, d: usize) -> &DeviceSpec {
        &self.specs[d]
    }

    /// Label of the active placement policy.
    pub fn policy_label(&self) -> &'static str {
        self.policy.label()
    }

    /// The device `ctx` is bound to, if it has been placed.
    pub fn binding(&self, ctx: u64) -> Option<usize> {
        self.bindings.get(&ctx).copied()
    }

    /// Live contexts currently bound to device `d`.
    pub fn live(&self, d: usize) -> u32 {
        self.live[d]
    }

    /// Projected fleet draw (placement power proxy, watts) with one
    /// extra context on `extra_on`, each device scored at its current
    /// operating point. With default single-state tables every device
    /// sits at its only state, so this is the pre-DVFS projection
    /// bit-for-bit.
    pub fn projected_power_w(&self, extra_on: Option<usize>) -> f64 {
        self.specs
            .iter()
            .enumerate()
            .map(|(d, spec)| {
                spec.est_power_in_state_w(
                    self.live[d] + u32::from(extra_on == Some(d)),
                    self.dvfs_level[d],
                )
            })
            .sum()
    }

    /// Bind a new context: [`FleetGovernor::place_avoiding`] with no
    /// device saturated.
    pub fn place(&mut self, ctx: u64, at: &VirtualClock) -> PlacementRecord {
        self.place_avoiding(ctx, at, &[])
    }

    /// Bind a new context: pick by the policy, then run the health,
    /// overload and power-cap post-filters. The overload filter moves a
    /// pick marked in `saturated` (a missing entry reads as unsaturated)
    /// to the least-loaded healthy unsaturated device, if one exists —
    /// the admission controller's way of letting an overloaded-but-healthy
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
        if let Some(cap) = self.power_cap_w {
            if self.projected_power_w(Some(device)) > cap {
                // Throttle first: drop the picked device to the fastest
                // operating point whose projection fits under the cap.
                // Only multi-level ladders can throttle — the default
                // single-state fleet falls through to the redirect, the
                // pre-DVFS behaviour bit-for-bit.
                if !self.throttle_to_fit(device, cap) {
                    let best = (0..self.specs.len())
                        .min_by(|&a, &b| {
                            self.projected_power_w(Some(a))
                                .total_cmp(&self.projected_power_w(Some(b)))
                        })
                        .unwrap_or(device);
                    if best != device {
                        device = best;
                        reason = PlacementReason::PowerCap;
                        self.cap_redirects += 1;
                    }
                }
            }
        }
        self.live[device] += 1;
        self.bindings.insert(ctx, device);
        let rec = PlacementRecord {
            ctx,
            device: device as u32,
            reason,
        };
        self.placements.push(rec.clone());
        rec
    }

    /// Move `device` to the fastest operating point of its ladder whose
    /// projected fleet draw (with the extra context on `device`) fits
    /// under `cap_w`. Returns `false` — recording nothing — when no
    /// other operating point fits (including the single-state default,
    /// which has nowhere to go).
    fn throttle_to_fit(&mut self, device: usize, cap_w: f64) -> bool {
        let current = self.dvfs_level[device];
        let levels: Vec<usize> = self.specs[device]
            .states
            .operating_points()
            .map(|(l, _)| l)
            .collect();
        let mut best: Option<(usize, f64)> = None;
        for level in levels {
            if level == current {
                continue;
            }
            self.dvfs_level[device] = level;
            let fits = self.projected_power_w(Some(device)) <= cap_w;
            let f = self.specs[device].states.states[level].freq_scale;
            if fits && best.is_none_or(|(_, bf)| f > bf) {
                best = Some((level, f));
            }
        }
        self.dvfs_level[device] = current;
        match best {
            Some((level, _)) => {
                self.dvfs_level[device] = level;
                self.throttles += 1;
                self.state_changes.push(StateChangeRecord {
                    device: device as u32,
                    from: current,
                    to: level,
                });
                true
            }
            None => false,
        }
    }

    /// Current operating point of device `d` (index into its ladder).
    pub fn device_level(&self, d: usize) -> usize {
        self.dvfs_level[d]
    }

    /// Every power-cap throttle event, in occurrence order.
    pub fn state_changes(&self) -> &[StateChangeRecord] {
        &self.state_changes
    }

    /// Number of placements the power cap absorbed by throttling a
    /// device instead of redirecting the context.
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    /// Release a reaped context's binding so its device's live count no
    /// longer charges for it.
    pub fn release(&mut self, ctx: u64) {
        if let Some(d) = self.bindings.remove(&ctx) {
            self.live[d] = self.live[d].saturating_sub(1);
        }
    }

    /// Rebind `ctx` onto `to` (drain/migrate off a tripped device).
    pub fn rebind(&mut self, ctx: u64, to: usize) {
        if let Some(d) = self.bindings.insert(ctx, to) {
            self.live[d] = self.live[d].saturating_sub(1);
        }
        self.live[to] += 1;
        self.migrations += 1;
        self.placements.push(PlacementRecord {
            ctx,
            device: to as u32,
            reason: PlacementReason::Migrated,
        });
    }

    /// May device `d`'s GPU path be used now? (Side effects: an open
    /// breaker past its cooldown moves to half-open.)
    pub fn gpu_allowed(&mut self, d: usize, at: &VirtualClock) -> bool {
        self.breakers[d].gpu_allowed(at)
    }

    /// Record a transient fault on device `d`; `true` when it trips.
    pub fn record_fault(&mut self, d: usize, at: &VirtualClock) -> bool {
        self.breakers[d].record_fault(at)
    }

    /// Record a successful launch on device `d`.
    pub fn record_success(&mut self, d: usize) {
        self.breakers[d].record_success();
    }

    /// Whether device `d`'s breaker currently blocks its GPU path
    /// (side-effect-free).
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

    /// Trip count of device `d`'s breaker.
    pub fn trips(&self, d: usize) -> u64 {
        self.breakers[d].trips()
    }

    /// Total trips across the fleet (the pre-fleet global stat).
    pub fn total_trips(&self) -> u64 {
        self.breakers.iter().map(CircuitBreaker::trips).sum()
    }

    /// Every placement and migration, in binding order.
    pub fn placements(&self) -> &[PlacementRecord] {
        &self.placements
    }

    /// Placements redirected by the power cap.
    pub fn cap_redirects(&self) -> u64 {
        self.cap_redirects
    }

    /// Contexts re-placed by drain/migrate.
    pub fn migrations(&self) -> u64 {
        self.migrations
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
        g.release(3);
        assert_eq!(g.live(0), 0);
        // Round robin keeps cycling (bit-compatible counter) even though
        // device 0 is now the emptiest.
        assert_eq!(g.place(6, &clk).device, 0);
        assert_eq!(g.place(7, &clk).device, 1);
    }

    #[test]
    fn power_cap_redirects_to_the_cheapest_projection() {
        let clk = VirtualClock::new();
        // Idle draw alone: c1060 40 W + half 22 W + wide 64 W = 126 W.
        // Cap just above idle: any binding on the wide card blows it, so
        // placements herd onto the cheapest marginal device.
        let fleet = FleetConfig::heterogeneous(3)
            .with_policy(PolicyKind::RoundRobin)
            .with_power_cap(140.0);
        let mut g = governor(fleet);
        let recs: Vec<_> = (0..3u64).map(|ctx| g.place(ctx, &clk)).collect();
        assert!(
            recs.iter().any(|r| r.reason == PlacementReason::PowerCap),
            "{recs:?}"
        );
        assert!(g.cap_redirects() > 0);
        assert!(
            recs.iter().all(|r| r.device != 2),
            "the wide card is unaffordable under the cap: {recs:?}"
        );
    }

    #[test]
    fn power_cap_throttles_dvfs_devices_before_redirecting() {
        let clk = VirtualClock::new();
        // Two DVFS-capable c1060s idle at 80 W total; one context on a
        // P0 card projects 58.75 + 40 = 98.75 W. A 95 W cap forces the
        // pick down the ladder instead of bouncing the context to the
        // other card.
        let fleet = FleetConfig::homogeneous(2).with_dvfs().with_power_cap(95.0);
        let mut g = governor(fleet);
        let top = g.spec(0).states.top();
        assert_eq!(g.device_level(0), top);
        let rec = g.place(1, &clk);
        // The binding stayed on the policy's pick…
        assert_eq!((rec.device, rec.reason), (0, PlacementReason::Policy));
        // …but the card was throttled to make it affordable.
        assert_ne!(g.device_level(0), top, "cap must throttle gpu0");
        assert_eq!(g.throttles(), 1);
        assert_eq!(g.cap_redirects(), 0, "throttle absorbed the cap hit");
        let changes = g.state_changes();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].device, 0);
        assert_eq!(changes[0].from, top);
        assert!(g.projected_power_w(None) <= 95.0);
    }

    #[test]
    fn single_state_fleet_still_redirects_under_the_cap() {
        let clk = VirtualClock::new();
        // Same cap, no DVFS tables: the only lever is redirect, and the
        // pre-DVFS assertions hold unchanged.
        let fleet = FleetConfig::heterogeneous(3)
            .with_policy(PolicyKind::RoundRobin)
            .with_power_cap(140.0);
        let mut g = governor(fleet);
        let recs: Vec<_> = (0..3u64).map(|ctx| g.place(ctx, &clk)).collect();
        assert!(recs.iter().any(|r| r.reason == PlacementReason::PowerCap));
        assert_eq!(g.throttles(), 0);
        assert!(g.state_changes().is_empty());
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
        assert!(!g.gpu_allowed(0, &clk));
        assert!(g.gpu_allowed(1, &clk), "healthy device keeps serving");
        // Round robin would hand ctx 3 to device 0; the governor
        // redirects it to the healthy card instead.
        assert_eq!(g.place(2, &clk).device, 1);
        let rec = g.place(3, &clk);
        assert_eq!((rec.device, rec.reason), (1, PlacementReason::Health));
        // The bound context drains to the healthy card.
        assert_eq!(g.healthy_target(0, &clk), Some(1));
        g.rebind(1, 1);
        assert_eq!(g.binding(1), Some(1));
        assert_eq!((g.live(0), g.live(1)), (0, 3));
        assert_eq!(g.migrations(), 1);
        assert_eq!(g.total_trips(), 1);
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
