//! Composable power-state stack: sleep / idle / DVFS levels P0..Pn.
//!
//! The paper models the device at one fixed frequency (`P_sys = P_idle +
//! P_T + P_dyn`, Section VI), which collapses the policy space to "GPU or
//! CPU". Real devices expose an ordered ladder of states: deep sleep,
//! clock-gated idle, and a handful of DVFS operating points. Each state
//! trades static draw, dynamic draw and speed differently:
//!
//! * performance scales with frequency (`rate × f` — compute time is
//!   `1/f`, DRAM bandwidth is unchanged);
//! * dynamic power scales as `f · V²`, so a lower operating point burns
//!   *less energy per op* whenever the voltage drops with the clock;
//! * sleep states cut the card's static floor but charge a wake latency
//!   and a transition energy on the way back up.
//!
//! [`PowerStateModel`] wraps the existing [`GpuSystemPower`] composition
//! — [`crate::ground_truth::GpuPowerGroundTruth`] stays the P0 anchor —
//! and adds the state ladder. A [`PowerStateTable::single`] table has
//! exactly one state (P0 at scale 1.0), making the stack byte-identical
//! to the flat model: that is the default, and the equivalence rule every
//! golden trace depends on.

use crate::ground_truth::GpuPowerGroundTruth;
use crate::system::{GpuSystemPower, SystemEnergy};
use ewc_gpu::counters::ActivityInterval;

/// What a power state permits the device to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Deep sleep: clocks and most rails gated. Cannot run work.
    Sleep,
    /// Clock-gated idle: the card's normal parked state. Cannot run work.
    Idle,
    /// An operating point (a DVFS level). Can run work.
    Active,
}

/// One state on the device's power ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerState {
    /// Stable label (`"sleep"`, `"idle"`, `"p2"`, `"p1"`, `"p0"`).
    pub name: &'static str,
    /// What the state permits.
    pub kind: StateKind,
    /// Card static draw while in this state, watts.
    pub static_w: f64,
    /// SM clock relative to P0 (`f/f₀`). Zero for non-runnable states.
    pub freq_scale: f64,
    /// Supply voltage relative to P0 (`V/V₀`). Dynamic power scales with
    /// `f · V²` on top of the rate scaling already implied by `f`.
    pub volt_scale: f64,
    /// Latency to *enter* this state from a neighbouring one, seconds.
    pub wake_latency_s: f64,
    /// Energy charged when entering this state, joules.
    pub transition_j: f64,
}

impl PowerState {
    /// A deep-sleep state.
    pub fn sleep(static_w: f64, wake_latency_s: f64, transition_j: f64) -> Self {
        PowerState {
            name: "sleep",
            kind: StateKind::Sleep,
            static_w,
            freq_scale: 0.0,
            volt_scale: 0.0,
            wake_latency_s,
            transition_j,
        }
    }

    /// A clock-gated idle state.
    pub fn idle(static_w: f64, wake_latency_s: f64) -> Self {
        PowerState {
            name: "idle",
            kind: StateKind::Idle,
            static_w,
            freq_scale: 0.0,
            volt_scale: 0.0,
            wake_latency_s,
            transition_j: 0.0,
        }
    }

    /// An operating point at `freq_scale × f₀`, `volt_scale × V₀`.
    pub fn operating(
        name: &'static str,
        static_w: f64,
        freq_scale: f64,
        volt_scale: f64,
        wake_latency_s: f64,
    ) -> Self {
        PowerState {
            name,
            kind: StateKind::Active,
            static_w,
            freq_scale,
            volt_scale,
            wake_latency_s,
            transition_j: 0.0,
        }
    }

    /// Whether work can be launched in this state.
    pub fn can_run(&self) -> bool {
        self.kind == StateKind::Active
    }

    /// Whether this is the P0 anchor (`f = V = 1`), where every
    /// state-scaled quantity is the flat one bit for bit.
    pub fn is_anchor(&self) -> bool {
        self.freq_scale == 1.0 && self.volt_scale == 1.0
    }

    /// Dynamic-power scale relative to P0 *beyond* what the slower rates
    /// already account for: `V²`. (With rates ∝ f, total dynamic power
    /// scales as `f · V²`, the classic DVFS law.)
    pub fn volt_sq(&self) -> f64 {
        self.volt_scale * self.volt_scale
    }

    /// Combined dynamic scale relative to P0 at equal utilisation:
    /// `f · V²`.
    pub fn dynamic_scale(&self) -> f64 {
        self.freq_scale * self.volt_sq()
    }
}

/// The ordered state ladder of one device, shallowest-sleep last: by
/// convention `states` runs from the deepest non-runnable state up to
/// the fastest operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStateTable {
    /// The states, deepest first.
    pub states: Vec<PowerState>,
}

impl PowerStateTable {
    /// Build from an explicit ladder.
    ///
    /// # Panics
    /// Panics when no state can run work — tables are static preset or
    /// test data, so this is a programmer error.
    pub fn new(states: Vec<PowerState>) -> Self {
        assert!(
            states.iter().any(PowerState::can_run),
            "a state table needs at least one operating point"
        );
        PowerStateTable { states }
    }

    /// The degenerate one-state table: P0 only, at scale 1.0 with zero
    /// transition cost. Byte-identical to the flat (stateless) model.
    pub fn single(static_w: f64) -> Self {
        PowerStateTable::new(vec![PowerState::operating("p0", static_w, 1.0, 1.0, 0.0)])
    }

    /// A DVFS ladder derived from the card's idle static draw: deep
    /// sleep at 5% of idle static, clock-gated idle, and three operating
    /// points with voltage tracking frequency as `V ≈ 0.4 + 0.6·f` (P2
    /// half-clock at 0.70 V₀, P1 three-quarter-clock at 0.85 V₀, P0
    /// full). Active static draw scales with `V²` — leakage follows the
    /// supply rail. The `V²` swing (0.49 at P2) against the sleep
    /// state's savings is what creates a genuine race-vs-pace crossover:
    /// compute-heavy work saves more by dropping the rail than racing
    /// saves by sleeping sooner, and light work the reverse.
    pub fn dvfs(idle_static_w: f64) -> Self {
        PowerStateTable::new(vec![
            PowerState::sleep(idle_static_w * 0.05, 500e-6, 0.05),
            PowerState::idle(idle_static_w, 50e-6),
            PowerState::operating("p2", idle_static_w * 0.49, 0.5, 0.70, 20e-6),
            PowerState::operating("p1", idle_static_w * 0.7225, 0.75, 0.85, 20e-6),
            PowerState::operating("p0", idle_static_w, 1.0, 1.0, 0.0),
        ])
    }

    /// Number of states on the ladder.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Tables are never empty (see [`PowerStateTable::new`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The state at `level`.
    pub fn get(&self, level: usize) -> Option<&PowerState> {
        self.states.get(level)
    }

    /// Index of the fastest operating point (ties break to the last).
    pub fn top(&self) -> usize {
        let mut best = 0;
        let mut best_f = f64::NEG_INFINITY;
        for (i, s) in self.states.iter().enumerate() {
            if s.can_run() && s.freq_scale >= best_f {
                best = i;
                best_f = s.freq_scale;
            }
        }
        best
    }

    /// Index of the deepest parkable (non-runnable) state, i.e. the one
    /// with the lowest static draw. `None` when the ladder has operating
    /// points only (the degenerate single-state table).
    pub fn park(&self) -> Option<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.can_run())
            .min_by(|(_, a), (_, b)| a.static_w.total_cmp(&b.static_w))
            .map(|(i, _)| i)
    }

    /// Static draw of the card's idle state: the `Idle`-kind state if
    /// present, else the top operating point (a card that cannot gate
    /// its clocks idles at its active static floor). This is the static
    /// draw folded into the system's measured `P_idle`.
    pub fn idle_static_w(&self) -> f64 {
        self.states
            .iter()
            .find(|s| s.kind == StateKind::Idle)
            .map_or_else(|| self.states[self.top()].static_w, |s| s.static_w)
    }

    /// Watts saved, relative to normal idle, by parking in the deepest
    /// state. Zero without a park state — the flat-model behaviour.
    pub fn park_savings_w(&self) -> f64 {
        match self.park() {
            Some(p) => (self.idle_static_w() - self.states[p].static_w).max(0.0),
            None => 0.0,
        }
    }

    /// The runnable levels, deepest first: `(level, state)`.
    pub fn operating_points(&self) -> impl Iterator<Item = (usize, &PowerState)> {
        self.states.iter().enumerate().filter(|(_, s)| s.can_run())
    }
}

/// The power-state stack: the flat whole-system composition (the P0
/// anchor) plus the device's state ladder.
///
/// [`PowerStateModel::single`] is the equivalence instance — one P0
/// state, zero transition costs — under which every method degenerates
/// to the flat [`GpuSystemPower`] arithmetic bit-for-bit.
#[derive(Debug, Clone)]
pub struct PowerStateModel {
    /// The flat system composition: idle floor, ground truth, thermal.
    pub system: GpuSystemPower,
    /// The device's state ladder.
    pub table: PowerStateTable,
}

impl PowerStateModel {
    /// The one-state instance wrapping the paper's testbed: byte-identical
    /// to [`GpuSystemPower::tesla_system`] on every path.
    pub fn single() -> Self {
        PowerStateModel {
            system: GpuSystemPower::tesla_system(),
            // 40 W: a C1060's static draw with no SM active, the card
            // share of the paper's 200 W measured system idle.
            table: PowerStateTable::single(40.0),
        }
    }

    /// The paper's testbed with a DVFS ladder (sleep / idle / P2 / P1 /
    /// P0 anchored on the C1060 ground truth).
    pub fn tesla_dvfs() -> Self {
        PowerStateModel {
            system: GpuSystemPower::tesla_system(),
            table: PowerStateTable::dvfs(40.0),
        }
    }

    /// The node's static idle floor with `num_devices` cards installed:
    /// the single shared helper both `integrate_many` and the fleet
    /// accounting paths charge through (delegates to
    /// [`GpuSystemPower::idle_floor_w`]).
    pub fn idle_floor_w(&self, num_devices: usize) -> f64 {
        self.system.idle_floor_w(num_devices)
    }

    /// System draw while the device is parked post-run: the idle floor
    /// minus whatever the park state saves relative to normal idle.
    pub fn parked_w(&self, num_devices: usize) -> f64 {
        self.idle_floor_w(num_devices) - self.table.park_savings_w()
    }

    /// The ground truth scaled to operating point `level`: per-event
    /// energies scale with `V²` (the rates themselves already carry the
    /// `f` factor), rate-independent watts scale with the full `f·V²`,
    /// and reference peak compute scales with `f` so the coupling term
    /// normalises against the scaled peak. At P0 this returns the anchor
    /// unchanged.
    pub fn truth_in_state(&self, level: usize) -> GpuPowerGroundTruth {
        let state = &self.table.states[level];
        if state.is_anchor() {
            return self.system.truth.clone();
        }
        let v2 = state.volt_sq();
        let fv2 = state.dynamic_scale();
        let t = &self.system.truth;
        GpuPowerGroundTruth {
            j_per_comp_op: t.j_per_comp_op * v2,
            j_per_mem_txn: t.j_per_mem_txn * v2,
            w_per_active_sm: t.w_per_active_sm * fv2,
            w_kernel_base: t.w_kernel_base * fv2,
            w_coupling: t.w_coupling * fv2,
            ref_comp_rate: t.ref_comp_rate * state.freq_scale,
            ref_mem_rate: t.ref_mem_rate,
            ..t.clone()
        }
    }

    /// Integrate system energy over `[0, t_end]` with the device held at
    /// operating point `level` throughout: the flat integral with the
    /// state-scaled ground truth. At P0 this is bit-identical to
    /// [`GpuSystemPower::integrate`].
    pub fn integrate_in_state(
        &self,
        intervals: &[ActivityInterval],
        t_end: f64,
        seed: Option<u64>,
        level: usize,
    ) -> SystemEnergy {
        let state = &self.table.states[level];
        if state.is_anchor() {
            return self.system.integrate(intervals, t_end, seed);
        }
        let scaled = GpuSystemPower {
            truth: self.truth_in_state(level),
            ..self.system.clone()
        };
        scaled.integrate(intervals, t_end, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_gpu::EventRates;

    fn busy(start: f64, dur: f64, tilt: f64) -> ActivityInterval {
        let truth = GpuPowerGroundTruth::tesla_c1060();
        ActivityInterval {
            start_s: start,
            dur_s: dur,
            rates: EventRates {
                comp_ops_per_s: truth.ref_comp_rate * tilt,
                mem_txn_per_s: 0.0,
                bytes_per_s: 0.0,
                active_sm_frac: tilt.min(1.0),
                resident_warps: 0.0,
            },
        }
    }

    #[test]
    fn single_state_model_is_bit_identical_to_the_flat_system() {
        let stack = PowerStateModel::single();
        let flat = GpuSystemPower::tesla_system();
        let ivs = [busy(0.0, 5.0, 0.6), busy(7.0, 2.0, 1.0)];
        for seed in [None, Some(3), Some(17)] {
            let a = stack.integrate_in_state(&ivs, 10.0, seed, stack.table.top());
            let b = flat.integrate(&ivs, 10.0, seed);
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(a.gpu_energy_j.to_bits(), b.gpu_energy_j.to_bits());
        }
        assert_eq!(stack.table.park(), None);
        assert_eq!(stack.table.park_savings_w(), 0.0);
        assert_eq!(
            stack.parked_w(1).to_bits(),
            flat.idle_floor_w(1).to_bits(),
            "no park state: post-run draw is the plain idle floor"
        );
    }

    #[test]
    fn ladder_orders_sleep_idle_and_operating_points() {
        let t = PowerStateTable::dvfs(40.0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.states[t.top()].name, "p0");
        assert_eq!(t.states[t.park().expect("has sleep")].name, "sleep");
        assert_eq!(t.idle_static_w(), 40.0);
        assert!((t.park_savings_w() - 38.0).abs() < 1e-9);
        assert_eq!(t.operating_points().count(), 3);
        // Deeper operating points draw less static and less dynamic.
        let ops: Vec<&PowerState> = t.operating_points().map(|(_, s)| s).collect();
        assert!(ops[0].static_w < ops[1].static_w && ops[1].static_w < ops[2].static_w);
        assert!(ops[0].dynamic_scale() < ops[1].dynamic_scale());
        assert!(ops[1].dynamic_scale() < ops[2].dynamic_scale());
    }

    #[test]
    fn scaled_truth_follows_the_dvfs_law() {
        let m = PowerStateModel::tesla_dvfs();
        let table = &m.table;
        let p2 = table
            .operating_points()
            .find(|(_, s)| s.name == "p2")
            .map(|(i, _)| i)
            .expect("p2 exists");
        let truth = m.truth_in_state(p2);
        let anchor = &m.system.truth;
        // Rates at half clock are half the P0 rates; energy per op drops
        // by V² = 0.64, so power at equal utilisation drops by f·V².
        let r0 = EventRates {
            comp_ops_per_s: anchor.ref_comp_rate,
            mem_txn_per_s: 0.0,
            bytes_per_s: 0.0,
            active_sm_frac: 1.0,
            resident_warps: 0.0,
        };
        let r2 = EventRates {
            comp_ops_per_s: anchor.ref_comp_rate * 0.5,
            ..r0
        };
        let p_full = anchor.dyn_power_w(&r0);
        let p_scaled = truth.dyn_power_w(&r2);
        let expect = p_full * 0.5 * 0.49;
        assert!(
            (p_scaled - expect).abs() / expect < 1e-9,
            "p2 power {p_scaled:.2} vs f·V² law {expect:.2}"
        );
    }

    #[test]
    fn lower_state_burns_less_energy_for_the_same_work() {
        // Same op count, twice the time at half clock: dynamic energy
        // drops by V² even though the run takes longer.
        let m = PowerStateModel::tesla_dvfs();
        let p2 = m
            .table
            .operating_points()
            .find(|(_, s)| s.name == "p2")
            .map(|(i, _)| i)
            .expect("p2 exists");
        let anchor = &m.system.truth;
        let full = m.integrate_in_state(&[busy(0.0, 4.0, 1.0)], 4.0, None, m.table.top());
        let slow_iv = ActivityInterval {
            start_s: 0.0,
            dur_s: 8.0,
            rates: EventRates {
                comp_ops_per_s: anchor.ref_comp_rate * 0.5,
                mem_txn_per_s: 0.0,
                bytes_per_s: 0.0,
                active_sm_frac: 1.0,
                resident_warps: 0.0,
            },
        };
        let slow = m.integrate_in_state(&[slow_iv], 8.0, None, p2);
        assert!(
            slow.gpu_energy_j < full.gpu_energy_j,
            "V² savings: {} vs {}",
            slow.gpu_energy_j,
            full.gpu_energy_j
        );
        // …but the longer run pays more idle-floor energy, which is the
        // race-to-idle counterweight the policy engine trades off.
        assert!(slow.energy_j > full.energy_j - 200.0 * 4.0 + 1.0);
    }

    #[test]
    #[should_panic(expected = "operating point")]
    fn table_without_operating_points_is_rejected() {
        PowerStateTable::new(vec![PowerState::sleep(2.0, 1e-3, 0.1)]);
    }
}
