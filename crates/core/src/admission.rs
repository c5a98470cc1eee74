//! Admission control and the graceful-degradation ladder.
//!
//! With open-loop arrivals (frontends that keep submitting whether or
//! not the backend keeps up), unbounded pending queues turn sustained
//! overload into silent queue growth and latency collapse. This module
//! gives the backend a controlled answer instead:
//!
//! * **bounded queues** — explicit per-device and per-context pending
//!   limits ([`AdmissionConfig::max_per_device`],
//!   [`AdmissionConfig::max_per_ctx`]);
//! * **token-bucket rate admission** on the virtual clock
//!   ([`AdmissionConfig::token_rate_hz`] / `token_burst`);
//! * **priority classes** ([`Priority`]) — under pressure low-priority
//!   work is shed first;
//! * **backpressure** — a rejected launch answers
//!   [`crate::CoreError::Busy`] with a `retry_after` hint; only after
//!   [`AdmissionConfig::busy_retry_limit`] attempts does the backend
//!   shed the request permanently ([`crate::CoreError::Shed`]), so a
//!   request's terminal state is decided in exactly one place;
//! * **deadline-aware shedding** — queued requests whose age exceeds
//!   [`AdmissionConfig::shed_age_s`] are dropped CoDel-style before
//!   dispatch (their latency budget is already blown);
//! * **a degradation ladder with hysteresis** ([`DegradationConfig`]) —
//!   a queue-age watchdog steps the backend down under sustained
//!   pressure (shed low priority → coarsen consolidation search →
//!   widen batching → CPU lifeboat) and back up only after a quiet
//!   period.
//!
//! The backend always runs this layer: `RuntimeConfig::admission = None`
//! (the default) resolves to [`AdmissionConfig::unbounded`], limits that
//! never bind, so every answer is `Admit`, nothing ages out and the
//! ladder never leaves level 0.

/// Request priority class, carried on every launch. The default is
/// [`Priority::Normal`]; admission only consults it under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Shed first under pressure (degradation level ≥ 1).
    Low,
    /// Shed only under severe pressure (degradation level ≥ 3).
    #[default]
    Normal,
    /// Never shed by the priority filter (queue bounds still apply).
    High,
}

impl Priority {
    /// Stable lower-case label for audits and reports.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Why the admission controller refused (or shed) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The bound device's pending queue is at its limit.
    DeviceQueueFull,
    /// The submitting context is at its in-flight limit.
    ContextLimit,
    /// The token bucket is empty (sustained arrival rate exceeds the
    /// configured admission rate).
    RateLimited,
    /// The request's priority class is being shed at the current
    /// degradation level.
    PriorityShed,
    /// The request sat queued past `shed_age_s`: its latency budget was
    /// already blown, so executing it would only burn energy (CoDel).
    QueueAge,
}

impl ShedCause {
    /// Stable lower-case label for audits and reports.
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::DeviceQueueFull => "device-queue-full",
            ShedCause::ContextLimit => "context-limit",
            ShedCause::RateLimited => "rate-limited",
            ShedCause::PriorityShed => "priority-shed",
            ShedCause::QueueAge => "queue-age",
        }
    }
}

/// Minimum time between two level changes of the degradation ladder,
/// seconds.
const DWELL_S: f64 = 0.25;

/// Pressure-free time the degradation ladder requires before stepping
/// back up, seconds.
const QUIET_S: f64 = 1.0;

/// Hysteresis parameters of the graceful-degradation ladder.
///
/// The ladder's level is driven by a queue-age watchdog on the virtual
/// clock: when the oldest pending request has waited longer than
/// `pressure_age_s`, the backend is under pressure and steps **down**
/// one level (at most once per `DWELL_S`, 0.25 s); when pressure has
/// been absent for a full `QUIET_S` (1 s), it steps back **up** one
/// level. The asymmetry (instant pressure response, quiet-period
/// recovery) is the hysteresis that stops the ladder from flapping at
/// the boundary.
///
/// Level effects (cumulative):
///
/// | level | effect                                            |
/// |-------|---------------------------------------------------|
/// | 0     | healthy — no degradation                          |
/// | 1     | shed [`Priority::Low`] requests at admission      |
/// | 2     | coarsen consolidation search (bounded window)     |
/// | 3     | widen batching (2× threshold) + shed `Normal` too |
/// | 4     | spill whole groups to the CPU lifeboat            |
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationConfig {
    /// Oldest-pending age (seconds, virtual clock) that counts as
    /// sustained pressure.
    pub pressure_age_s: f64,
    /// Deepest level the ladder may reach (≤ 4).
    pub max_level: u8,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            pressure_age_s: 0.5,
            max_level: 4,
        }
    }
}

/// Admission-control limits. [`crate::RuntimeConfig::admission`]
/// defaults to `None`, which the backend reads as
/// [`AdmissionConfig::unbounded`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum pending launches per device queue.
    pub max_per_device: usize,
    /// Maximum pending launches per submitting context.
    pub max_per_ctx: usize,
    /// Token-bucket refill rate, requests/second on the virtual clock.
    /// `f64::INFINITY` disables rate admission (queue bounds still
    /// apply).
    pub token_rate_hz: f64,
    /// Token-bucket capacity (burst allowance), requests.
    pub token_burst: f64,
    /// `Busy` answers a launch may receive before the backend shreds it
    /// permanently with [`crate::CoreError::Shed`].
    pub busy_retry_limit: u32,
    /// Base backpressure hint, seconds; the hint doubles per
    /// degradation level so retries spread out as pressure builds.
    pub retry_after_s: f64,
    /// Shed queued requests older than this (seconds, virtual clock)
    /// instead of executing them — CoDel-style: their latency budget is
    /// already blown. `f64::INFINITY` disables age shedding.
    pub shed_age_s: f64,
    /// Ladder hysteresis parameters.
    pub degradation: DegradationConfig,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_per_device: 64,
            max_per_ctx: 4,
            token_rate_hz: f64::INFINITY,
            token_burst: 64.0,
            busy_retry_limit: 3,
            retry_after_s: 2e-3,
            shed_age_s: 5.0,
            degradation: DegradationConfig::default(),
        }
    }
}

impl AdmissionConfig {
    /// Limits that never bind: unbounded queues, an infinite token rate,
    /// no age shed and a ladder no queue age can move.
    pub fn unbounded() -> Self {
        AdmissionConfig {
            max_per_device: usize::MAX,
            max_per_ctx: usize::MAX,
            token_rate_hz: f64::INFINITY,
            shed_age_s: f64::INFINITY,
            degradation: DegradationConfig {
                pressure_age_s: f64::INFINITY,
                ..DegradationConfig::default()
            },
            ..AdmissionConfig::default()
        }
    }
}

/// The controller's verdict on one launch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue the request.
    Admit,
    /// Refuse with backpressure: the frontend should retry after the
    /// hinted delay.
    Busy {
        /// Why this attempt was refused.
        cause: ShedCause,
    },
    /// Refuse permanently: the request exhausted its `Busy` retries and
    /// is shed (audited as `Verdict::Shed`).
    Shed {
        /// Why the final attempt was refused.
        cause: ShedCause,
    },
}

/// Live admission state owned by the backend. All time arguments are
/// virtual-clock seconds.
#[derive(Debug)]
pub struct AdmissionState {
    /// The installed limits.
    pub cfg: AdmissionConfig,
    tokens: f64,
    last_refill_s: f64,
    level: u8,
    last_change_s: f64,
    /// Last time pressure was observed (the quiet period restarts here).
    last_pressure_s: f64,
}

impl AdmissionState {
    /// Fresh state at time zero: a full bucket, level 0.
    pub fn new(cfg: AdmissionConfig) -> Self {
        let tokens = cfg.token_burst.max(1.0);
        AdmissionState {
            cfg,
            tokens,
            last_refill_s: 0.0,
            level: 0,
            last_change_s: 0.0,
            last_pressure_s: f64::NEG_INFINITY,
        }
    }

    /// Current degradation level (0 = healthy).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Backpressure hint at the current level: the base doubles per
    /// level so retries spread out as pressure builds.
    pub fn retry_after_s(&self) -> f64 {
        self.cfg.retry_after_s * f64::from(1u32 << u32::from(self.level.min(16)))
    }

    /// Refill the token bucket up to `now`.
    fn refill(&mut self, now_s: f64) {
        if self.cfg.token_rate_hz.is_finite() {
            let dt = (now_s - self.last_refill_s).max(0.0);
            self.tokens = (self.tokens + dt * self.cfg.token_rate_hz).min(self.cfg.token_burst);
        }
        self.last_refill_s = now_s;
    }

    /// Judge one launch attempt. `device_depth` and `ctx_depth` are the
    /// *current* pending counts for the request's bound device and
    /// context; `attempt` is how many times this request has already
    /// been answered `Busy`. A cause that survives the retry limit
    /// becomes a permanent shed.
    pub fn admit(
        &mut self,
        now_s: f64,
        device_depth: usize,
        ctx_depth: usize,
        priority: Priority,
        attempt: u32,
    ) -> AdmissionDecision {
        self.refill(now_s);
        // The ladder sheds `Low` from level 1 and everything up to
        // `Normal` from level 3.
        let priority_shed = (self.level >= 3 && priority <= Priority::Normal)
            || (self.level >= 1 && priority == Priority::Low);
        let cause = if priority_shed {
            Some(ShedCause::PriorityShed)
        } else if device_depth >= self.cfg.max_per_device {
            Some(ShedCause::DeviceQueueFull)
        } else if ctx_depth >= self.cfg.max_per_ctx {
            Some(ShedCause::ContextLimit)
        } else if self.cfg.token_rate_hz.is_finite() && self.tokens < 1.0 {
            Some(ShedCause::RateLimited)
        } else {
            None
        };
        match cause {
            None => {
                if self.cfg.token_rate_hz.is_finite() {
                    self.tokens -= 1.0;
                }
                AdmissionDecision::Admit
            }
            Some(cause) if attempt >= self.cfg.busy_retry_limit => {
                AdmissionDecision::Shed { cause }
            }
            Some(cause) => AdmissionDecision::Busy { cause },
        }
    }

    /// Queue-age watchdog tick: `oldest_age_s` is the age of the oldest
    /// pending request (0 when the queue is empty). Returns the new
    /// level when the ladder moved, `None` otherwise.
    pub fn observe(&mut self, now_s: f64, oldest_age_s: f64) -> Option<u8> {
        let d = &self.cfg.degradation;
        let pressured = oldest_age_s > d.pressure_age_s;
        if pressured {
            self.last_pressure_s = now_s;
            if self.level < d.max_level.min(4) && now_s - self.last_change_s >= DWELL_S {
                self.level += 1;
                self.last_change_s = now_s;
                return Some(self.level);
            }
        } else if self.level > 0
            && now_s - self.last_pressure_s >= QUIET_S
            && now_s - self.last_change_s >= DWELL_S
        {
            self.level -= 1;
            self.last_change_s = now_s;
            return Some(self.level);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AdmissionState {
        AdmissionState::new(AdmissionConfig {
            max_per_device: 4,
            max_per_ctx: 2,
            token_rate_hz: 10.0,
            token_burst: 2.0,
            busy_retry_limit: 2,
            retry_after_s: 1e-3,
            shed_age_s: 1.0,
            degradation: DegradationConfig::default(),
        })
    }

    #[test]
    fn bounds_answer_busy_then_shed() {
        let mut s = state();
        assert_eq!(
            s.admit(0.0, 4, 0, Priority::Normal, 0),
            AdmissionDecision::Busy {
                cause: ShedCause::DeviceQueueFull
            }
        );
        assert_eq!(
            s.admit(0.0, 4, 0, Priority::Normal, 2),
            AdmissionDecision::Shed {
                cause: ShedCause::DeviceQueueFull
            }
        );
        assert_eq!(
            s.admit(0.0, 0, 2, Priority::Normal, 0),
            AdmissionDecision::Busy {
                cause: ShedCause::ContextLimit
            }
        );
    }

    #[test]
    fn token_bucket_refills_on_the_clock() {
        let mut s = state();
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Admit
        );
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Admit
        );
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Busy {
                cause: ShedCause::RateLimited
            }
        );
        // 10 tokens/s: 0.1 s buys one more admission.
        assert_eq!(
            s.admit(0.1, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn ladder_steps_down_under_pressure_and_recovers_after_quiet() {
        let mut s = state();
        assert_eq!(s.observe(0.0, 0.0), None, "healthy stays level 0");
        assert_eq!(s.observe(1.0, 1.0), Some(1), "pressure steps down");
        assert_eq!(s.observe(1.1, 1.0), None, "dwell blocks a double step");
        assert_eq!(s.observe(1.3, 1.0), Some(2));
        // Quiet period: no recovery until a full QUIET_S has passed.
        assert_eq!(s.observe(1.5, 0.0), None);
        assert_eq!(s.observe(2.4, 0.0), Some(1), "quiet period recovers");
        assert_eq!(s.observe(3.5, 0.0), Some(0));
        assert_eq!(s.observe(4.0, 0.0), None, "level 0 is the floor");
    }

    #[test]
    fn priority_classes_shed_in_order() {
        let mut s = state();
        s.level = 1;
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Low, 0),
            AdmissionDecision::Busy {
                cause: ShedCause::PriorityShed
            }
        );
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Admit
        );
        s.level = 3;
        assert_eq!(
            s.admit(0.0, 0, 0, Priority::Normal, 0),
            AdmissionDecision::Busy {
                cause: ShedCause::PriorityShed
            }
        );
        assert_eq!(
            s.admit(1.0, 0, 0, Priority::High, 0),
            AdmissionDecision::Admit,
            "high priority always passes the priority filter"
        );
    }

    #[test]
    fn unbounded_limits_never_bind() {
        let mut s = AdmissionState::new(AdmissionConfig::unbounded());
        for attempt in [0, u32::MAX] {
            assert_eq!(
                s.admit(1e9, usize::MAX - 1, usize::MAX - 1, Priority::Low, attempt),
                AdmissionDecision::Admit
            );
        }
        assert_eq!(s.observe(1e9, f64::MAX), None, "no age is pressure");
        assert_eq!(s.level(), 0);
    }

    #[test]
    fn retry_hint_doubles_per_level() {
        let mut s = state();
        assert!((s.retry_after_s() - 1e-3).abs() < 1e-12);
        s.level = 3;
        assert!((s.retry_after_s() - 8e-3).abs() < 1e-12);
    }
}
