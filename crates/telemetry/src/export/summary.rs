//! Plain-text summary exporter.
//!
//! Renders counters, gauges, histogram percentiles, span/track totals and
//! the decision tally as aligned tables suitable for terminals and logs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::audit::Verdict;
use crate::sink::TelemetrySnapshot;
use crate::store::{FastMap, Sym};

fn rule(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        "\n== {title} {}",
        "=".repeat(58usize.saturating_sub(title.len()))
    );
}

/// Renders `snap` as a human-readable report.
pub fn render(snap: &TelemetrySnapshot) -> String {
    // A screenful: every section is a line per name or per track.
    let mut out = String::with_capacity(16 * 1024);

    if snap.metrics.counters().next().is_some() {
        rule(&mut out, "counters");
        for (name, value) in snap.metrics.counters() {
            let _ = writeln!(out, "{name:<40} {value:>14.3}");
        }
    }

    if snap.metrics.gauges().next().is_some() {
        rule(&mut out, "gauges");
        for (name, value) in snap.metrics.gauges() {
            let _ = writeln!(out, "{name:<40} {value:>14.3}");
        }
    }

    if snap.metrics.histograms().next().is_some() {
        rule(&mut out, "histograms");
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "p50", "p95", "p99", "max"
        );
        for (name, h) in snap.metrics.histograms() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10.4e} {:>10.4e} {:>10.4e} {:>10.4e} {:>10.4e}",
                name,
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max()
            );
        }
    }

    if !snap.spans.is_empty() {
        rule(&mut out, "spans");
        let symbols = snap.spans.symbols();
        let mut per_track: FastMap<(Sym, Sym), (usize, f64)> = FastMap::default();
        for row in snap.spans.rows() {
            let e = per_track.entry((row.process, row.lane)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += row.duration_s();
        }
        let mut tracks: Vec<(&str, &str, usize, f64)> = per_track
            .into_iter()
            .map(|((process, lane), (count, busy))| {
                let (process, lane) = (&*symbols[process as usize], &*symbols[lane as usize]);
                (process, lane, count, busy)
            })
            .collect();
        tracks.sort_unstable_by_key(|&(process, lane, ..)| (process, lane));
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:>8} {:>14}",
            "process", "lane", "spans", "busy_s"
        );
        for (process, lane, count, busy) in tracks {
            let _ = writeln!(out, "{process:<16} {lane:<16} {count:>8} {busy:>14.6}");
        }
    }

    if !snap.series.is_empty() {
        rule(&mut out, "series");
        for (name, samples) in &snap.series {
            let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for &(_, v) in samples {
                lo = lo.min(v);
                hi = hi.max(v);
                sum += v;
            }
            let mean = sum / samples.len().max(1) as f64;
            let _ = writeln!(
                out,
                "{:<28} {:>8} samples  min {:>10.3}  mean {:>10.3}  max {:>10.3}",
                name,
                samples.len(),
                lo,
                mean,
                hi
            );
        }
    }

    if !snap.audit.is_empty() {
        rule(&mut out, "decisions");
        let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
        for rec in &snap.audit {
            *tally.entry(rec.verdict.label()).or_insert(0) += 1;
        }
        for verdict in [
            Verdict::Consolidate,
            Verdict::SerialGpu,
            Verdict::Cpu,
            Verdict::Failed,
            Verdict::Drained,
            Verdict::Placed,
        ] {
            let n = tally.get(verdict.label()).copied().unwrap_or(0);
            // Fault- and fleet-path verdicts only show up once one has
            // happened, so healthy runs keep the familiar three-line tally.
            if n == 0
                && matches!(
                    verdict,
                    Verdict::Failed | Verdict::Drained | Verdict::Placed
                )
            {
                continue;
            }
            let _ = writeln!(out, "{:<40} {n:>14}", verdict.label());
        }
        let shown = snap.audit.len().min(8);
        let _ = writeln!(out, "\nlast {shown} verdicts:");
        for rec in snap.audit.iter().rev().take(shown).rev() {
            let _ = write!(
                out,
                "  t={:>10.6}s  {:<12} [{}]  ",
                rec.time_s,
                rec.verdict.label(),
                rec.kernels.join("+"),
            );
            let _ = rec.write_reason(&mut out);
            out.push('\n');
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditEvent, DecisionRecord};
    use crate::sink::TelemetrySink;

    #[test]
    fn report_mentions_every_section_that_has_data() {
        let sink = TelemetrySink::enabled();
        sink.counter_add("launches", 2.0);
        sink.histogram_record("latency_s", 0.1);
        sink.span("host", "backend", "rpc", 0.0, 1.0).emit();
        sink.series_sample("power_w", 0.0, 199.0);
        sink.audit(DecisionRecord {
            time_s: 0.0,
            kernels: vec!["sort".into()],
            verdict: Verdict::SerialGpu,
            consolidated: Some((2.0, 30.0)),
            serial: Some((1.8, 25.0)),
            cpu: None,
            event: AuditEvent::Decision {
                compared_j: [30.6, 25.0, f64::INFINITY],
                margin: 0.02,
                policy: None,
                forced: false,
                closed: None,
            },
        });
        let text = render(&sink.snapshot().unwrap());
        for section in ["counters", "histograms", "spans", "series", "decisions"] {
            assert!(text.contains(section), "missing section {section}\n{text}");
        }
        assert!(text.contains("serial_gpu"));
    }

    #[test]
    fn empty_snapshot_renders_empty_report() {
        let sink = TelemetrySink::enabled();
        assert!(render(&sink.snapshot().unwrap()).is_empty());
    }
}
