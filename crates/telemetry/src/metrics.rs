//! Counters, gauges and log-bucketed histograms.
//!
//! Histograms use geometric (log-spaced) bucket boundaries so that a single
//! configuration covers nanosecond staging copies and multi-second Poisson
//! replays with bounded *relative* error.  Two histograms with the same
//! configuration merge by adding bucket counts, which is how per-thread
//! registries are folded into one at shutdown.

use std::collections::BTreeMap;

/// Default lower edge of the first finite bucket (1 ns when values are
/// seconds).  Anything smaller lands in the underflow bucket.
pub const DEFAULT_LOWEST: f64 = 1e-9;

/// Default geometric growth factor between bucket boundaries.  1.08 keeps
/// the worst-case relative quantile error under ~4% (half a bucket) while
/// spanning 1 ns..1000 s in ~360 buckets.
pub const DEFAULT_GROWTH: f64 = 1.08;

/// A log-bucketed histogram over non-negative `f64` samples.
///
/// Bucket 0 is the underflow range `[0, lowest)`; bucket `i >= 1` covers
/// `[lowest * growth^(i-1), lowest * growth^i)`.  Exact `min`, `max`, `sum`
/// and `count` are tracked alongside the buckets so summary statistics do
/// not suffer bucketing error.
#[derive(Debug, Clone)]
pub struct Histogram {
    lowest: f64,
    growth: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(DEFAULT_LOWEST, DEFAULT_GROWTH)
    }
}

impl Histogram {
    /// Creates a histogram whose first finite bucket starts at `lowest` and
    /// whose bucket boundaries grow by `growth` per bucket.
    ///
    /// # Panics
    /// Panics if `lowest <= 0` or `growth <= 1`.
    pub fn new(lowest: f64, growth: f64) -> Self {
        assert!(lowest > 0.0, "histogram lowest bound must be positive");
        assert!(growth > 1.0, "histogram growth factor must exceed 1");
        Self {
            lowest,
            growth,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Index of the bucket that holds `value`.  Negative and NaN samples are
    /// clamped into the underflow bucket rather than rejected: the simulator
    /// should keep running even if a model produces a degenerate cost.
    fn bucket_index(&self, value: f64) -> usize {
        if value.is_nan() || value < self.lowest {
            return 0;
        }
        1 + ((value / self.lowest).ln() / self.growth.ln()).floor() as usize
    }

    /// Lower bound of bucket `i` (0 for the underflow bucket).
    fn bucket_lo(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.lowest * self.growth.powi(i as i32 - 1)
        }
    }

    /// Upper bound of bucket `i`.
    fn bucket_hi(&self, i: usize) -> f64 {
        self.lowest * self.growth.powi(i as i32)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_nan() { 0.0 } else { value.max(0.0) };
        let idx = self.bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean of recorded samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `p` in percent.
    ///
    /// `p` is clamped to `[0, 100]`; an empty histogram returns 0.  The
    /// estimate is the geometric midpoint of the bucket containing the
    /// nearest rank, clamped to the exact observed `[min, max]` so the
    /// tails never over-report.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.min();
        }
        // Nearest-rank definition: the smallest value such that at least
        // ceil(p/100 * count) samples are <= it.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = if i == 0 {
                    self.bucket_lo(0)
                } else {
                    (self.bucket_lo(i) * self.bucket_hi(i)).sqrt()
                };
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Merges `other` into `self` by adding bucket counts.
    ///
    /// # Panics
    /// Panics if the two histograms were configured with different bucket
    /// boundaries — merging those would silently misplace samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lowest == other.lowest && self.growth == other.growth,
            "cannot merge histograms with different bucket layouts"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A named collection of counters, gauges and histograms.
///
/// `BTreeMap` keeps iteration (and therefore every exporter's output)
/// deterministic, which the golden-file tests rely on.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    // The three recorders look the name up before they build a key:
    // `entry(name.to_string())` would allocate and free a `String` on
    // every hit, and nearly every call is a hit.

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: f64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_string(), 0.0 + delta);
            }
        }
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(gauge) => *gauge = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records `value` into the named histogram (default bucket layout).
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(histogram) => histogram.record(value),
            None => {
                let mut histogram = Histogram::default();
                histogram.record(value);
                self.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other side's value (last writer wins), histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_half_open() {
        let h = Histogram::new(1e-9, 2.0);
        // Underflow bucket takes everything below the lowest bound.
        assert_eq!(h.bucket_index(0.0), 0);
        assert_eq!(h.bucket_index(0.9e-9), 0);
        assert_eq!(h.bucket_index(-3.0), 0);
        assert_eq!(h.bucket_index(f64::NAN), 0);
        // The lowest bound itself opens bucket 1: [1e-9, 2e-9).
        assert_eq!(h.bucket_index(1e-9), 1);
        assert_eq!(h.bucket_index(1.99e-9), 1);
        // Each boundary value belongs to the bucket it opens.
        assert_eq!(h.bucket_index(2e-9), 2);
        assert_eq!(h.bucket_index(4e-9), 3);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentiles_track_exact_quantiles_within_bucket_error() {
        let mut h = Histogram::default();
        let mut exact: Vec<f64> = Vec::new();
        // Deterministic skewed samples over four decades.
        for i in 0..10_000u32 {
            let x = 1e-6 * (1.0 + (i as f64 * 0.37).sin().abs() * 9_999.0);
            h.record(x);
            exact.push(x);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &p in &[10.0, 50.0, 90.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * exact.len() as f64).ceil() as usize - 1;
            let truth = exact[rank];
            let est = h.percentile(p);
            let rel = (est - truth).abs() / truth;
            assert!(
                rel < DEFAULT_GROWTH - 1.0,
                "p{p}: est {est} vs exact {truth} (rel err {rel})"
            );
        }
        assert_eq!(h.percentile(0.0), exact[0]);
        assert_eq!(h.percentile(100.0), *exact.last().unwrap());
        // Out-of-range percentiles clamp instead of panicking.
        assert_eq!(h.percentile(-5.0), exact[0]);
        assert_eq!(h.percentile(250.0), *exact.last().unwrap());
    }

    #[test]
    fn merge_is_equivalent_to_recording_in_one() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for i in 0..500 {
            let x = 1e-3 * (i as f64 + 1.0);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for &p in &[25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Histogram::new(1e-9, 2.0);
        let b = Histogram::new(1e-6, 2.0);
        a.merge(&b);
    }

    #[test]
    fn cross_thread_merge_through_registry() {
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut reg = MetricsRegistry::new();
                for i in 0..250 {
                    reg.counter_add("requests", 1.0);
                    reg.histogram_record("latency_s", (t * 250 + i) as f64 * 1e-4 + 1e-4);
                }
                reg.gauge_set("worker", t as f64);
                tx.send(reg).unwrap();
            }));
        }
        drop(tx);
        let mut total = MetricsRegistry::new();
        for reg in rx {
            total.merge(&reg);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.counter("requests"), 1000.0);
        let h = total.histogram("latency_s").unwrap();
        assert_eq!(h.count(), 1000);
        // All 1000 samples are distinct values in [1e-4, 0.1]; the median
        // must land mid-range regardless of which thread recorded it.
        let p50 = h.percentile(50.0);
        assert!(p50 > 0.03 && p50 < 0.07, "median {p50}");
    }

    #[test]
    fn registry_counter_and_gauge_basics() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("launches", 2.0);
        reg.counter_add("launches", 3.0);
        reg.gauge_set("queue_depth", 7.0);
        reg.gauge_set("queue_depth", 4.0);
        assert_eq!(reg.counter("launches"), 5.0);
        assert_eq!(reg.counter("missing"), 0.0);
        assert_eq!(reg.gauge("queue_depth"), Some(4.0));
        assert_eq!(reg.gauge("missing"), None);
    }
}
