//! The [`TelemetrySink`] handle and its collected snapshot.
//!
//! A sink is either disabled (the default — every call returns after one
//! `Option` check, no allocation, no locking) or enabled, in which case it
//! wraps a mutex-protected collector shared by every clone.  The backend,
//! the GPU simulators and the runtime all hold clones of the same sink; at
//! shutdown a [`TelemetrySnapshot`] is taken and handed to the exporters.
//!
//! Each recording method on the sink takes the lock for that one record.
//! A component with a burst to record — a launch's block spans, a
//! measurement's power samples — takes it once with
//! [`TelemetrySink::lock`] and records through the [`Recorder`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ewc_exec::VirtualClock;

use crate::audit::DecisionRecord;
use crate::metrics::MetricsRegistry;
use crate::span::{SpanBuilder, Target};
use crate::store::{SpanStore, SpanTable};

#[derive(Debug, Default)]
pub(crate) struct Collector {
    pub(crate) spans: SpanStore,
    metrics: MetricsRegistry,
    series: BTreeMap<String, Vec<(f64, f64)>>,
    audit: Vec<DecisionRecord>,
}

/// Takes the collector lock. Every update appends whole records, so the
/// data a panicking holder leaves behind is still valid: recover it
/// rather than make the observer the second thing that panics.
pub(crate) fn lock(collector: &Mutex<Collector>) -> MutexGuard<'_, Collector> {
    collector.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cheaply clonable telemetry handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Mutex<Collector>>>,
    /// The caller's executor clock, when it lent one: the recording
    /// components align their timelines to it.
    clock: Option<VirtualClock>,
}

impl TelemetrySink {
    /// A sink that records nothing.  Equivalent to `TelemetrySink::default()`.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            clock: None,
        }
    }

    /// A sink that collects everything recorded through any clone.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Collector::default()))),
            clock: None,
        }
    }

    /// A sink that collects everything and carries the caller's
    /// executor clock: the backend adopts it as its host clock (instead
    /// of a private one starting at zero), so spans land on the exact
    /// timeline the caller's executor is driving. Which clock is the
    /// only difference from [`TelemetrySink::enabled`]; batching and
    /// determinism are the same either way.
    pub fn enabled_virtual(clock: VirtualClock) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Collector::default()))),
            clock: Some(clock),
        }
    }

    /// A sink that records **nothing** but still carries the caller's
    /// executor clock for the backend to adopt, without paying for
    /// collection. The open-loop load harness runs its non-telemetry
    /// scenarios on this, so arrivals it schedules and costs the backend
    /// charges share one timeline.
    pub fn disabled_virtual(clock: VirtualClock) -> Self {
        Self {
            inner: None,
            clock: Some(clock),
        }
    }

    /// The executor clock the caller lent, if any.
    pub fn virtual_clock(&self) -> Option<&VirtualClock> {
        self.clock.as_ref()
    }

    /// Whether this sink records anything.  Instrumented code may use this
    /// to skip building expensive attributes when telemetry is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Takes the collector lock once for a burst of records; `None` on a
    /// disabled sink. Every other method of the sink blocks until the
    /// recorder is dropped, so keep it to the burst.
    #[inline]
    pub fn lock(&self) -> Option<Recorder<'_>> {
        self.inner.as_deref().map(|c| Recorder(lock(c)))
    }

    /// Starts building a completed span on track `(process, lane)` covering
    /// simulated time `[start_s, end_s]`.  Call `.emit()` to record it.
    /// The builder borrows its strings; nothing is copied before `emit`,
    /// and nothing at all on a disabled sink.
    #[inline]
    pub fn span<'a>(
        &'a self,
        process: &'a str,
        lane: &'a str,
        name: &'a str,
        start_s: f64,
        end_s: f64,
    ) -> SpanBuilder<'a> {
        let target = match self.inner.as_deref() {
            Some(collector) => Target::Sink(collector),
            None => Target::Off,
        };
        SpanBuilder::new(target, (process, lane), name, (start_s, end_s))
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: f64) {
        if let Some(mut rec) = self.lock() {
            rec.counter_add(name, delta);
        }
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(mut rec) = self.lock() {
            rec.gauge_set(name, value);
        }
    }

    /// Records a sample into a named histogram.
    pub fn histogram_record(&self, name: &str, value: f64) {
        if let Some(mut rec) = self.lock() {
            rec.histogram_record(name, value);
        }
    }

    /// Appends a `(time_s, value)` sample to a named time series (exported
    /// as Chrome counter events — e.g. instantaneous power draw in watts).
    pub fn series_sample(&self, name: &str, time_s: f64, value: f64) {
        if let Some(mut rec) = self.lock() {
            rec.series_extend(name, &[(time_s, value)]);
        }
    }

    /// Records one decision-engine verdict.
    pub fn audit(&self, record: DecisionRecord) {
        if let Some(mut rec) = self.lock() {
            rec.audit(record);
        }
    }

    /// Copies out everything collected so far, or `None` if disabled.
    /// The spans are not copied: the snapshot shares their rows, arena
    /// and strings with the sink and keeps their chronological order
    /// (see [`SpanTable`]).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let mut rec = self.lock()?;
        let c = &mut *rec.0;
        Some(TelemetrySnapshot {
            spans: c.spans.table(),
            metrics: c.metrics.clone(),
            series: c.series.clone(),
            audit: c.audit.clone(),
        })
    }
}

/// The collector lock, held: what [`TelemetrySink::lock`] returns.
pub struct Recorder<'a>(MutexGuard<'a, Collector>);

impl Recorder<'_> {
    /// Like [`TelemetrySink::span`], recording under the held lock.
    #[inline]
    pub fn span<'a>(
        &'a mut self,
        process: &'a str,
        lane: &'a str,
        name: &'a str,
        start_s: f64,
        end_s: f64,
    ) -> SpanBuilder<'a> {
        SpanBuilder::new(
            Target::Locked(&mut self.0),
            (process, lane),
            name,
            (start_s, end_s),
        )
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&mut self, name: &str, delta: f64) {
        self.0.metrics.counter_add(name, delta);
    }

    /// Sets a named gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.0.metrics.gauge_set(name, value);
    }

    /// Records a sample into a named histogram.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        self.0.metrics.histogram_record(name, value);
    }

    /// Appends `(time_s, value)` samples to a named time series.
    pub fn series_extend(&mut self, name: &str, samples: &[(f64, f64)]) {
        let series = &mut self.0.series;
        match series.get_mut(name) {
            Some(points) => points.extend_from_slice(samples),
            None => {
                series.insert(name.to_string(), samples.to_vec());
            }
        }
    }

    /// Records one decision-engine verdict.
    pub fn audit(&mut self, record: DecisionRecord) {
        self.0.audit.push(record);
    }
}

/// An owned copy of everything a sink collected.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All spans, sorted by simulated start time.
    pub spans: SpanTable,
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// Named `(time_s, value)` series, e.g. power samples.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
    /// Decision audit log in emission order.
    pub audit: Vec<DecisionRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditEvent, Verdict};
    use crate::span::AttrValue;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        let id = sink.span("host", "backend", "rpc", 0.0, 1.0).emit();
        assert_eq!(id, None);
        sink.counter_add("x", 1.0);
        sink.histogram_record("h", 0.5);
        sink.series_sample("p", 0.0, 100.0);
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!TelemetrySink::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_sort_by_simulated_time() {
        let sink = TelemetrySink::enabled();
        // Emit out of chronological order, as concurrent components would.
        let parent = sink
            .span("host", "backend", "request", 1.0, 5.0)
            .attr("ctx", 3)
            .emit();
        let late = sink
            .span("host", "backend", "launch", 3.0, 5.0)
            .parent(parent);
        let early = sink
            .span("host", "backend", "staging", 1.0, 2.0)
            .parent(parent);
        let early_id = early.emit().unwrap();
        let late_id = late.emit().unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 3);
        let spans: Vec<_> = snap.spans.iter().collect();
        // Chronological, ties broken by id.
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[1].name, "staging");
        assert_eq!(spans[2].name, "launch");
        assert_eq!(spans[1].id, early_id);
        assert_eq!(spans[2].id, late_id);
        assert_eq!(spans[1].parent, parent);
        assert_eq!(spans[2].parent, parent);
        assert_eq!(
            spans[0].attrs().collect::<Vec<_>>(),
            [("ctx", AttrValue::I64(3))]
        );
        assert!((spans[0].duration_s() - 4.0).abs() < 1e-12);
        assert_eq!(snap.spans.get(2).map(|s| s.id), Some(late_id));
        assert!(snap.spans.get(3).is_none());
    }

    #[test]
    fn non_finite_starts_sort_totally_and_export_as_null() {
        use crate::export::{chrome, jsonl, summary};
        use crate::json;

        // `partial_cmp().unwrap_or(Equal)` is not a total order once a
        // start is NaN, and `sort_by` panics on such a comparator when
        // it notices; enough spans that it would.
        let sink = TelemetrySink::enabled();
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -f64::NAN];
        let (mut nans, mut non_finite) = (0, 0);
        for i in 0..20_000u32 {
            let start_s = match i % 7 {
                0 => odd[(i / 7) as usize % odd.len()],
                // Ordinary starts, out of order and with ties.
                _ => f64::from(i.wrapping_mul(2_654_435_761) % 1_000) * 0.25,
            };
            nans += usize::from(start_s.is_nan());
            non_finite += usize::from(!start_s.is_finite());
            sink.span("host", "backend", "op", start_s, 1_000.0)
                .attr("i", i)
                .emit();
        }
        assert!(nans > 1_000 && non_finite > 2 * nans - nans / 2);
        let snap = sink.snapshot().expect("snapshot returns");
        assert_eq!(snap.spans.len(), 20_000);

        // Wherever the old comparator was an order at all — every start
        // but NaN, so ±∞ and -0.0 included — the order is the old one.
        let got: Vec<(f64, u64)> = snap
            .spans
            .iter()
            .filter(|s| !s.start_s.is_nan())
            .map(|s| (s.start_s, s.id))
            .collect();
        let mut want = got.clone();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(got.len(), 20_000 - nans);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.0.to_bits() == w.0.to_bits() && g.1 == w.1));

        let doc = json::parse(&chrome::render(&snap)).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let nulls = events
            .iter()
            .filter(|e| e.get("ts") == Some(&json::Value::Null))
            .count();
        assert_eq!(nulls, non_finite, "NaN and ±∞ timestamps are null");
        let lines = jsonl::render(&snap);
        let mut nulls = 0;
        for line in lines.lines() {
            let v = json::parse(line).expect("jsonl line parses");
            nulls += usize::from(v.get("start_s") == Some(&json::Value::Null));
        }
        assert_eq!(nulls, non_finite);
        assert!(summary::render(&snap).contains("20000"));
    }

    #[test]
    fn snapshots_share_rows_that_later_spans_do_not_change() {
        let sink = TelemetrySink::enabled();
        let record = |name: &str, at: f64, seq: u64| {
            sink.span("host", "backend", name, at, at + 0.5)
                .attr("seq", seq)
                .emit()
        };
        let names = |snap: &TelemetrySnapshot| -> Vec<(String, u64)> {
            snap.spans
                .iter()
                .map(|s| {
                    let seq = match s.attrs().next() {
                        Some((_, AttrValue::U64(seq))) => seq,
                        other => panic!("{other:?}"),
                    };
                    (s.name.to_string(), seq)
                })
                .collect()
        };
        record("one", 2.0, 1);
        let first = sink.snapshot().unwrap();
        // Recorded while `first` holds the rows: joined onto a copy.
        record("two", 1.0, 2);
        let second = sink.snapshot().unwrap();
        assert_eq!(names(&first), [("one".into(), 1)]);
        assert_eq!(names(&second), [("two".into(), 2), ("one".into(), 1)]);
        drop((first, second));
        // Nothing holds them any more: joined in place.
        record("three", 0.0, 3);
        let third = sink.snapshot().unwrap();
        assert_eq!(
            names(&third),
            [("three".into(), 3), ("two".into(), 2), ("one".into(), 1)]
        );
        assert_eq!(third.spans.get(0).map(|s| s.id), Some(3));
    }

    #[test]
    fn clones_share_one_collector() {
        let sink = TelemetrySink::enabled();
        let clone = sink.clone();
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.counter_add("ops", 1.0);
                    s.span(
                        "host",
                        &format!("worker{t}"),
                        "op",
                        i as f64,
                        i as f64 + 0.5,
                    )
                    .emit();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = clone.snapshot().unwrap();
        assert_eq!(snap.metrics.counter("ops"), 400.0);
        assert_eq!(snap.spans.len(), 400);
        // Ids are unique.
        let mut ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn audit_and_series_round_trip() {
        let sink = TelemetrySink::enabled();
        sink.series_sample("power_w", 0.0, 180.0);
        sink.series_sample("power_w", 0.1, 260.0);
        sink.audit(DecisionRecord {
            time_s: 0.05,
            kernels: vec!["aes".into(), "search".into()],
            verdict: Verdict::Consolidate,
            consolidated: Some((1.0, 10.0)),
            serial: Some((1.4, 16.0)),
            cpu: None,
            event: AuditEvent::Decision {
                compared_j: [10.2, 16.0, f64::INFINITY],
                margin: 0.02,
                policy: None,
                forced: false,
                closed: None,
            },
        });
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.series["power_w"].len(), 2);
        assert_eq!(snap.audit.len(), 1);
        assert_eq!(snap.audit[0].verdict.label(), "consolidate");
        assert_eq!(snap.audit[0].chosen(), Some((1.0, 10.0)));
    }
}
