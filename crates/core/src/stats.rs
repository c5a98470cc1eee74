//! Backend statistics and consolidation records.

use std::sync::Arc;

use crate::decision::Choice;

/// Lifecycle record of one kernel request.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// Submitting context.
    pub ctx: u64,
    /// Request sequence number.
    pub seq: u64,
    /// Workload name.
    pub name: Arc<str>,
    /// Device-clock time of `launch`.
    pub submitted_at_s: f64,
    /// Device-clock time its group finished executing.
    pub completed_at_s: f64,
    /// Where it ran.
    pub choice: Choice,
}

impl KernelOutcome {
    /// Queueing + execution latency of this request.
    pub fn latency_s(&self) -> f64 {
        self.completed_at_s - self.submitted_at_s
    }
}

/// One consolidation (or fallback) decision the backend took.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationRecord {
    /// Template used (or `"<individual>"` for single-kernel fallbacks).
    pub template: String,
    /// Names of the member kernels, in template layout order.
    pub kernels: Vec<Arc<str>>,
    /// What the decision engine chose.
    pub choice: Choice,
    /// Model-predicted execution time for the chosen alternative.
    pub predicted_time_s: f64,
    /// Model-predicted whole-system energy for the chosen alternative.
    pub predicted_energy_j: f64,
    /// Actually simulated execution time.
    pub actual_time_s: f64,
}

/// Cumulative backend statistics, returned at shutdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackendStats {
    /// Messages received from frontends.
    pub messages: u64,
    /// Bytes copied through the staging buffer (both directions).
    pub staged_bytes: u64,
    /// Time spent on staging copies, seconds.
    pub staging_s: f64,
    /// Time spent on channel round trips, seconds.
    pub channel_s: f64,
    /// Time spent coordinating consolidation groups, seconds.
    pub coordination_s: f64,
    /// Kernel launches issued to the device.
    pub launches: u64,
    /// Of which consolidated (≥ 2 member kernels).
    pub consolidated_launches: u64,
    /// Kernels executed on the CPU instead.
    pub cpu_executions: u64,
    /// Simulated CPU busy time from CPU-offloaded groups, seconds.
    pub cpu_time_s: f64,
    /// Constant-cache hits (uploads avoided).
    pub constant_hits: u64,
    /// Constant-cache misses (uploads performed).
    pub constant_misses: u64,
    /// Simulated CPU energy from CPU-offloaded and CPU-fallback groups,
    /// joules (the GPU system integral does not see host-side work).
    pub cpu_energy_j: f64,
    /// Device faults observed by the backend (injected or organic).
    pub faults_observed: u64,
    /// Extra channel round trips charged for dropped-and-retransmitted
    /// messages.
    pub retransmits: u64,
    /// GPU launch retries performed (beyond first attempts).
    pub gpu_retries: u64,
    /// Total simulated time spent in retry backoff, seconds.
    pub backoff_s: f64,
    /// Consolidated groups aborted and re-dispatched serially.
    pub serial_fallbacks: u64,
    /// Kernels the GPU persistently refused that ran on the CPU instead.
    pub cpu_fallbacks: u64,
    /// Retry loops cut short because a member's deadline would blow.
    pub deadline_escalations: u64,
    /// Circuit-breaker trips (GPU path closed to CPU-only).
    pub breaker_trips: u64,
    /// Kernel requests failed back to their frontend (permanent errors).
    pub failed_kernels: u64,
    /// Pending launches drained because their frontend disconnected.
    pub drained_requests: u64,
    /// Frontends reaped after disconnecting (explicitly or detected via
    /// a dead reply channel).
    pub reaped_frontends: u64,
    /// Constant registrations that failed (the error still reached the
    /// frontend; counted here so backend-side logs see it too).
    pub constant_errors: u64,
    /// Contexts drained off a tripped device and re-placed on a healthy
    /// one.
    pub migrations: u64,
    /// Bytes moved across PCIe by drain/migrate.
    pub migrated_bytes: u64,
    /// Placements the fleet power cap redirected away from the policy's
    /// first choice.
    pub cap_redirects: u64,
    /// Device power-state transitions the backend applied (DVFS level
    /// changes and race-to-idle parks). Zero without a power-state
    /// stack.
    pub state_changes: u64,
    /// Launch attempts answered with `Busy` backpressure (each may be
    /// retried; not a terminal state).
    pub busy_rejections: u64,
    /// Requests shed permanently by the admission controller (at
    /// admission after exhausting `Busy` retries, or aged out of the
    /// queue). Terminal: a shed request never completes.
    pub shed_requests: u64,
    /// Of `shed_requests`, those dropped CoDel-style for queue age
    /// after they had already been admitted.
    pub shed_queue_age: u64,
    /// Degradation-ladder level changes (both directions).
    pub degradation_steps: u64,
    /// Deepest degradation level the ladder reached.
    pub max_degradation_level: u8,
    /// High-water mark of the backend's pending queue (all devices).
    pub max_pending_depth: u64,
    /// Queued permanent-failure notices dropped because their context
    /// was already reaped (nobody left to sync and collect them).
    pub undelivered_failures: u64,
    /// Groups whose assessment was reused from an earlier group of the
    /// same shape (the same registered kernels in the same layout
    /// order) instead of asking the decision engine again.
    pub decision_reuses: u64,
    /// Device launches whose timing simulation was reused from an
    /// earlier launch of the same shape on that device, summed over the
    /// devices at shutdown.
    pub simulation_reuses: u64,
    /// Every context→device binding (and migration) the fleet governor
    /// made, in binding order — the placement audit trail the same-seed
    /// determinism tests replay.
    pub placements: Vec<ewc_fleet::PlacementRecord>,
    /// Per-group decision records in execution order.
    pub records: Vec<ConsolidationRecord>,
    /// Per-request lifecycle records in completion order.
    pub kernel_outcomes: Vec<KernelOutcome>,
}

impl BackendStats {
    /// Total framework overhead in seconds (everything that is not
    /// device compute or PCIe transfer).
    pub fn overhead_s(&self) -> f64 {
        self.staging_s + self.channel_s + self.coordination_s
    }

    /// Request latencies sorted ascending (for percentile queries).
    pub fn latencies_sorted(&self) -> Vec<f64> {
        self.latency_summary().into_sorted()
    }

    /// Sort the latencies once and answer any number of percentile/mean
    /// queries from the result. Prefer this over repeated
    /// [`BackendStats::latency_percentile`] calls, which re-sort each time.
    pub fn latency_summary(&self) -> LatencySummary {
        let mut v: Vec<f64> = self
            .kernel_outcomes
            .iter()
            .map(KernelOutcome::latency_s)
            .collect();
        v.sort_by(f64::total_cmp);
        LatencySummary { sorted: v }
    }

    /// A latency percentile in `[0, 100]`; `None` if no requests ran.
    /// Out-of-range `p` is clamped rather than panicking or indexing
    /// past the end.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        self.latency_summary().percentile(p)
    }

    /// How many kernels went through consolidated launches.
    pub fn kernels_consolidated(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.choice == Choice::Consolidate)
            .map(|r| r.kernels.len())
            .sum()
    }
}

/// Pre-sorted latency sample answering mean/percentile queries without
/// re-sorting. Build one with [`BackendStats::latency_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    sorted: Vec<f64>,
}

impl LatencySummary {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no requests completed.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean; `0.0` for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Nearest-rank percentile for `p` in `[0, 100]` (clamped); `None`
    /// for an empty sample. `percentile(0.0)` is the minimum and
    /// `percentile(100.0)` the maximum — the rank index is clamped so
    /// neither end can run past the slice.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let n = self.sorted.len();
        // Nearest-rank: ceil(p/100 · n), 1-based; clamp into [1, n] so
        // p = 0 maps to the first sample rather than index -1.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    /// Consume the summary, yielding the ascending-sorted latencies.
    pub fn into_sorted(self) -> Vec<f64> {
        self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_sums_components() {
        let s = BackendStats {
            staging_s: 1.0,
            channel_s: 0.25,
            coordination_s: 0.5,
            ..Default::default()
        };
        assert!((s.overhead_s() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn kernels_consolidated_counts_members() {
        let mut s = BackendStats::default();
        s.records.push(ConsolidationRecord {
            template: "enc".into(),
            kernels: vec!["encryption".into(); 4],
            choice: Choice::Consolidate,
            predicted_time_s: 1.0,
            predicted_energy_j: 10.0,
            actual_time_s: 1.1,
        });
        s.records.push(ConsolidationRecord {
            template: "<individual>".into(),
            kernels: vec!["search".into()],
            choice: Choice::SerialGpu,
            predicted_time_s: 1.0,
            predicted_energy_j: 10.0,
            actual_time_s: 1.0,
        });
        assert_eq!(s.kernels_consolidated(), 4);
    }

    fn stats_with_latencies(lat: &[f64]) -> BackendStats {
        let mut s = BackendStats::default();
        for (i, l) in lat.iter().enumerate() {
            s.kernel_outcomes.push(KernelOutcome {
                ctx: 1,
                seq: i as u64,
                name: "k".into(),
                submitted_at_s: 0.0,
                completed_at_s: *l,
                choice: Choice::SerialGpu,
            });
        }
        s
    }

    #[test]
    fn empty_latency_sample_is_guarded() {
        let s = BackendStats::default();
        assert_eq!(s.latency_percentile(50.0), None);
        let sum = s.latency_summary();
        assert!(sum.is_empty());
        assert_eq!(sum.mean(), 0.0);
        assert_eq!(sum.percentile(99.0), None);
    }

    #[test]
    fn percentile_ranks_clamp_at_both_ends() {
        let s = stats_with_latencies(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        let sum = s.latency_summary();
        assert_eq!(sum.percentile(0.0), Some(1.0));
        assert_eq!(sum.percentile(100.0), Some(5.0));
        // Out-of-range p is clamped, not an index overflow.
        assert_eq!(sum.percentile(-10.0), Some(1.0));
        assert_eq!(sum.percentile(250.0), Some(5.0));
        // Nearest rank: p50 of 5 samples is the 3rd (median).
        assert_eq!(sum.percentile(50.0), Some(3.0));
        // p99 of a small sample must clamp to the max, not round past it.
        assert_eq!(sum.percentile(99.0), Some(5.0));
        assert!((sum.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_compat_accessors() {
        let s = stats_with_latencies(&[0.5, 0.1, 0.9]);
        assert_eq!(s.latencies_sorted(), vec![0.1, 0.5, 0.9]);
        assert_eq!(s.latency_percentile(50.0), Some(0.5));
    }
}
