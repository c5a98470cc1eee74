//! Retry policy and the per-device circuit breaker.
//!
//! The backend daemon owns the GPU on behalf of every user process, so a
//! device fault must never kill it. Instead, faults walk a
//! **degradation ladder**:
//!
//! 1. retry the launch with exponential backoff (transient faults —
//!    watchdog timeouts, DMA errors — often clear);
//! 2. abort consolidation and re-dispatch the group's members serially
//!    on the GPU (isolates a poisoned merge);
//! 3. fall back to the CPU for members the GPU persistently refuses
//!    (the paper's CPU path, reused as a lifeboat);
//! 4. fail the request back to its frontend (permanent errors only —
//!    an unschedulable kernel is wrong on every rung).
//!
//! A [`CircuitBreaker`] watches consecutive transient faults; when the
//! device looks sick it trips that device's GPU path for a cooldown,
//! then half-opens to probe with one group. The [`FleetGovernor`]
//! (`crate::governor`) owns one breaker *per device*, so a trip drains
//! the sick card instead of closing the whole fleet.
//!
//! Time enters through [`ewc_exec::VirtualClock`] handles rather than
//! hand-threaded `now_s` floats: the backend passes its host clock (or
//! a device's clock) and the breaker reads the instant itself.
//!
//! [`FleetGovernor`]: crate::FleetGovernor

use ewc_exec::VirtualClock;

/// Knobs for the backend's recovery behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Per-request deadline on the simulated clock, seconds from the
    /// request's `launch` submission. When retry backoff would blow the
    /// deadline of any member, the backend stops retrying and escalates
    /// down the ladder instead. Infinite by default.
    pub request_deadline_s: f64,
    /// Maximum GPU retries per launch before escalating (on top of the
    /// initial attempt).
    pub max_gpu_retries: u32,
    /// Consecutive transient faults that trip the circuit breaker.
    /// `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long a tripped breaker keeps the GPU path closed before
    /// half-opening, seconds on the simulated clock.
    pub breaker_cooldown_s: f64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            request_deadline_s: f64::INFINITY,
            max_gpu_retries: 2,
            breaker_threshold: 8,
            breaker_cooldown_s: 10.0,
        }
    }
}

/// State of one device's GPU-path circuit breaker.
///
/// Closed (healthy) → open (tripped: groups bound to this device migrate
/// to healthy devices, or the CPU when none exist) → half-open after the
/// cooldown (the next group probes the device; success closes the
/// breaker, another fault re-trips it immediately).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_s: f64,
    consecutive: u32,
    /// The GPU path is closed until this simulated time.
    /// `NEG_INFINITY` means the breaker has never tripped / is closed.
    open_until_s: f64,
    /// `true` while the first probe after a cooldown is outstanding.
    half_open: bool,
}

impl CircuitBreaker {
    /// Build from a policy.
    pub fn new(policy: &ResiliencePolicy) -> Self {
        CircuitBreaker {
            threshold: policy.breaker_threshold,
            cooldown_s: policy.breaker_cooldown_s,
            consecutive: 0,
            open_until_s: f64::NEG_INFINITY,
            half_open: false,
        }
    }

    /// May the GPU path be used at `at`'s current instant? Passing the
    /// cooldown boundary moves an open breaker to half-open (the caller's
    /// next launch is the probe).
    pub fn gpu_allowed(&mut self, at: &VirtualClock) -> bool {
        if self.threshold == 0 {
            return true;
        }
        if at.now_s() < self.open_until_s {
            return false;
        }
        if self.open_until_s > f64::NEG_INFINITY && !self.half_open {
            // Cooldown expired: first caller through probes the device.
            self.half_open = true;
        }
        true
    }

    /// Record one transient GPU fault at `at`'s current instant.
    /// Returns `true` when this fault trips (or re-trips) the breaker.
    pub fn record_fault(&mut self, at: &VirtualClock) -> bool {
        if self.threshold == 0 {
            return false;
        }
        self.consecutive += 1;
        if self.half_open || self.consecutive >= self.threshold {
            // A half-open probe failing re-trips immediately; a closed
            // breaker trips once the consecutive run reaches threshold.
            self.half_open = false;
            self.consecutive = 0;
            self.open_until_s = at.now_s() + self.cooldown_s;
            return true;
        }
        false
    }

    /// Record a successful GPU launch: closes a half-open breaker and
    /// resets the consecutive-fault run.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.half_open = false;
        self.open_until_s = f64::NEG_INFINITY;
    }

    /// Whether the breaker currently blocks the GPU path at `at`'s
    /// instant (without side effects — use
    /// [`CircuitBreaker::gpu_allowed`] on the decision path).
    pub fn is_open(&self, at: &VirtualClock) -> bool {
        self.threshold != 0 && at.now_s() < self.open_until_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(threshold: u32, cooldown_s: f64) -> ResiliencePolicy {
        ResiliencePolicy {
            breaker_threshold: threshold,
            breaker_cooldown_s: cooldown_s,
            ..ResiliencePolicy::default()
        }
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_faults() {
        let clk = VirtualClock::new();
        let mut b = CircuitBreaker::new(&policy(3, 5.0));
        assert!(!b.record_fault(&clk));
        clk.advance_to(1.0);
        assert!(!b.record_fault(&clk));
        clk.advance_to(2.0);
        assert!(b.record_fault(&clk), "third consecutive fault trips");
        clk.advance_to(3.0);
        assert!(!b.gpu_allowed(&clk));
        clk.advance_to(6.9);
        assert!(!b.gpu_allowed(&clk));
        assert!(b.is_open(&clk), "open until the cooldown ends at 7.0");
        clk.advance_to(7.0);
        assert!(!b.is_open(&clk));
    }

    #[test]
    fn success_resets_the_consecutive_run() {
        let clk = VirtualClock::new();
        let mut b = CircuitBreaker::new(&policy(2, 5.0));
        assert!(!b.record_fault(&clk));
        b.record_success();
        clk.advance_to(1.0);
        assert!(!b.record_fault(&clk), "run restarted after success");
        clk.advance_to(2.0);
        assert!(b.record_fault(&clk));
    }

    #[test]
    fn half_open_probe_failure_retrips_immediately() {
        let clk = VirtualClock::new();
        let mut b = CircuitBreaker::new(&policy(2, 5.0));
        assert!(!b.record_fault(&clk));
        clk.advance_to(0.5);
        assert!(b.record_fault(&clk), "the first trip");
        // Cooldown passes → half-open, one probe allowed.
        clk.advance_to(6.0);
        assert!(b.gpu_allowed(&clk));
        // The probe faults: re-trip without needing a fresh run.
        clk.advance_to(6.1);
        assert!(b.record_fault(&clk), "the second trip, from half-open");
        clk.advance_to(7.0);
        assert!(!b.gpu_allowed(&clk));
        assert!(b.is_open(&clk), "open until 6.1 + 5.0");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let clk = VirtualClock::new();
        let mut b = CircuitBreaker::new(&policy(2, 5.0));
        assert!(!b.record_fault(&clk));
        clk.advance_to(0.5);
        assert!(b.record_fault(&clk), "the one trip");
        assert!(b.is_open(&clk));
        clk.advance_to(6.0);
        assert!(b.gpu_allowed(&clk));
        b.record_success();
        clk.advance_to(6.1);
        assert!(b.gpu_allowed(&clk));
        clk.advance_to(100.0);
        assert!(!b.is_open(&clk));
        // Closed again: a single fault starts a fresh run, no trip.
        assert!(!b.record_fault(&clk));
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let clk = VirtualClock::new();
        let mut b = CircuitBreaker::new(&policy(0, 5.0));
        for i in 0..100 {
            clk.advance_to(i as f64);
            assert!(!b.record_fault(&clk));
        }
        assert!(b.gpu_allowed(&clk));
        assert!(!b.is_open(&clk));
    }

    #[test]
    fn default_policy_is_permissive() {
        let p = ResiliencePolicy::default();
        assert!(p.request_deadline_s.is_infinite());
        assert!(p.max_gpu_retries > 0);
        assert!(p.breaker_threshold > 0);
    }
}
