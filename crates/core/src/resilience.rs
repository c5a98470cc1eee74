//! Backend-side resilience: the retry policy and the runtime-boundary
//! fault-injection hook.
//!
//! [`ResiliencePolicy`] lives in `ewc-fleet` — the fleet governor owns
//! one circuit breaker *per device* — and is re-exported here because
//! [`crate::RuntimeConfig`] carries it. See `ewc_fleet::breaker` for the
//! degradation-ladder documentation.

pub use ewc_fleet::ResiliencePolicy;

/// Decides whether a runtime-boundary (channel) fault hits a message.
///
/// Implemented by the `ewc-faults` crate's deterministic plan; the
/// backend charges each dropped-and-retransmitted message one extra
/// channel round trip, modelling frontend-side send retries.
pub trait RuntimeFaultInjector: Send + Sync {
    /// Called once per frontend→backend message; returns how many times
    /// the message had to be retransmitted before it got through
    /// (0 = clean delivery).
    fn on_message(&self) -> u32;
}
