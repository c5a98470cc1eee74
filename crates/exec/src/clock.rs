//! The shared monotonic simulated clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic simulated-time clock.
///
/// Clones share the same instant (the handle is an `Arc` over the bit
/// pattern of the current time), which is what lets a telemetry sink
/// timestamp spans off the very clock the backend is advancing — no
/// hand-threaded `now_s` parameters.
///
/// **Writer discipline.** Reads are safe from any thread at any time,
/// but the clock expects a single logical writer (the component that
/// owns the timeline: one backend, one device, one executor). Time
/// never moves backwards: [`VirtualClock::advance_by`] rejects negative
/// steps and [`VirtualClock::advance_to`] clamps to the current instant.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    bits: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at `t = 0`.
    pub fn new() -> Self {
        Self::starting_at(0.0)
    }

    /// A clock starting at `start_s` seconds.
    pub fn starting_at(start_s: f64) -> Self {
        assert!(!start_s.is_nan(), "clock start must be a number");
        VirtualClock {
            bits: Arc::new(AtomicU64::new(start_s.to_bits())),
        }
    }

    /// The current simulated time in seconds.
    #[inline]
    pub fn now_s(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Advance the clock by `dt` seconds and return the new instant.
    ///
    /// The new instant is computed as `now + dt` (not stored from a
    /// caller-supplied absolute), so callers that derive `dt` from a
    /// predicted event time reproduce the exact float sum a plain
    /// `now += dt` field would have produced.
    ///
    /// # Panics
    /// Panics when `dt` is negative or NaN — simulated time never moves
    /// backwards.
    #[inline]
    pub fn advance_by(&self, dt: f64) -> f64 {
        assert!(dt >= 0.0, "cannot advance a clock by negative time ({dt})");
        let now = self.now_s() + dt;
        self.bits.store(now.to_bits(), Ordering::Relaxed);
        now
    }

    /// Move the clock forward to `to_s` if that lies in the future;
    /// otherwise leave it alone. Returns the (possibly unchanged)
    /// current instant. This is the join operation a host clock uses
    /// when a synchronous device operation completes: `max(host, dev)`.
    #[inline]
    pub fn advance_to(&self, to_s: f64) -> f64 {
        let now = self.now_s();
        // A NaN target compares false and leaves the clock untouched.
        if to_s > now {
            self.bits.store(to_s.to_bits(), Ordering::Relaxed);
            to_s
        } else {
            now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_s(), 0.0);
        assert_eq!(c.advance_by(1.5), 1.5);
        assert_eq!(c.now_s(), 1.5);
        assert_eq!(c.advance_by(0.0), 1.5);
    }

    #[test]
    fn clones_share_the_instant() {
        let c = VirtualClock::starting_at(2.0);
        let d = c.clone();
        c.advance_by(3.0);
        assert_eq!(d.now_s(), 5.0);
        d.advance_to(7.0);
        assert_eq!(c.now_s(), 7.0);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let c = VirtualClock::starting_at(10.0);
        assert_eq!(c.advance_to(4.0), 10.0);
        assert_eq!(c.now_s(), 10.0);
        assert_eq!(c.advance_to(11.0), 11.0);
        assert_eq!(c.advance_to(f64::NAN), 11.0);
    }

    #[test]
    #[should_panic(expected = "negative time")]
    fn negative_advance_panics() {
        VirtualClock::new().advance_by(-1e-9);
    }

    #[test]
    fn advance_by_reproduces_field_arithmetic() {
        // The clock must produce the same bits as a plain `now += dt`
        // accumulator.
        let c = VirtualClock::new();
        let mut field = 0.0f64;
        let mut x = 0.1f64;
        for _ in 0..1000 {
            x = (x * 1.000_37).fract() + 1e-6;
            field += x;
            c.advance_by(x);
        }
        assert_eq!(c.now_s().to_bits(), field.to_bits());
    }
}
