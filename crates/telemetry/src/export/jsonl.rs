//! JSON-lines exporter: one self-describing object per line.
//!
//! Every line is a complete JSON document with a `"type"` discriminator
//! (`span`, `counter`, `gauge`, `histogram`, `sample`, `decision`), which
//! makes the output trivially filterable with line-oriented tools.

use super::{Escaped, FloatMemo, Reasons, Templates};
use crate::json::{write_literal, write_u64, Out, Text};
use crate::sink::TelemetrySnapshot;

/// Renders `snap` as JSON-lines text.
pub fn render(snap: &TelemetrySnapshot) -> String {
    let spans = &snap.spans;
    let escaped = Escaped::new(spans.symbols());
    let templates = Templates::new(spans, |text, row| {
        text.push_str(",\"name\":");
        text.push_str(escaped.get(row.name));
        text.push_str(",\"process\":");
        text.push_str(escaped.get(row.process));
        text.push_str(",\"lane\":");
        text.push_str(escaped.get(row.lane));
        text.push_str(",\"start_s\":");
    });
    let reasons = Reasons::new(&snap.audit);
    let mut floats = FloatMemo::new();
    let mut out = Text::with_capacity(escaped.capacity_for(snap, &templates, &reasons));

    for (row, template) in spans.rows().zip(templates.iter()) {
        out.push_str("{\"type\":\"span\",\"id\":");
        write_u64(&mut out, row.id);
        out.push_str(",\"parent\":");
        match row.parent {
            0 => out.push_str("null"),
            parent => write_u64(&mut out, parent),
        }
        out.push_str(template);
        floats.write(&mut out, row.start_s);
        out.push_str(",\"end_s\":");
        floats.write(&mut out, row.end_s);
        out.push_str(",\"attrs\":{");
        for (i, attr) in spans.attrs_of(row).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escaped.write_attr(&mut out, attr);
        }
        out.push_str("}}\n");
    }

    for (name, value) in snap.metrics.counters() {
        out.push_str("{\"type\":\"counter\",\"name\":");
        write_literal(&mut out, name);
        out.push_str(",\"value\":");
        floats.write(&mut out, value);
        out.push_str("}\n");
    }

    for (name, value) in snap.metrics.gauges() {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        write_literal(&mut out, name);
        out.push_str(",\"value\":");
        floats.write(&mut out, value);
        out.push_str("}\n");
    }

    for (name, hist) in snap.metrics.histograms() {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        write_literal(&mut out, name);
        out.push_str(",\"count\":");
        floats.write(&mut out, hist.count() as f64);
        out.push_str(",\"mean\":");
        floats.write(&mut out, hist.mean());
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p95", 95.0), ("p99", 99.0)] {
            out.push_str(",\"");
            out.push_str(label);
            out.push_str("\":");
            floats.write(&mut out, hist.percentile(p));
        }
        out.push_str(",\"min\":");
        floats.write(&mut out, hist.min());
        out.push_str(",\"max\":");
        floats.write(&mut out, hist.max());
        out.push_str("}\n");
    }

    let mut head = String::new();
    for (name, samples) in &snap.series {
        head.clear();
        head.push_str("{\"type\":\"sample\",\"series\":");
        write_literal(&mut head, name);
        head.push_str(",\"time_s\":");
        for &(t, v) in samples {
            out.push_str(&head);
            floats.write(&mut out, t);
            out.push_str(",\"value\":");
            floats.write(&mut out, v);
            out.push_str("}\n");
        }
    }

    for (i, rec) in snap.audit.iter().enumerate() {
        out.push_str("{\"type\":\"decision\",\"time_s\":");
        floats.write(&mut out, rec.time_s);
        out.push_str(",\"verdict\":");
        write_literal(&mut out, rec.verdict.label());
        out.push_str(",\"kernels\":[");
        for (i, k) in rec.kernels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_literal(&mut out, k);
        }
        out.push(']');
        for (label, cand) in [
            ("consolidated", rec.consolidated),
            ("serial", rec.serial),
            ("cpu", rec.cpu),
        ] {
            out.push_str(",\"");
            out.push_str(label);
            out.push_str("\":");
            match cand {
                Some((t, e)) => {
                    out.push_str("{\"time_s\":");
                    floats.write(&mut out, t);
                    out.push_str(",\"energy_j\":");
                    floats.write(&mut out, e);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
        }
        out.push_str(",\"reason\":");
        out.push_str(reasons.get(i));
        out.push_str("}\n");
    }

    out.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditEvent, DecisionRecord, Verdict};
    use crate::json;
    use crate::sink::TelemetrySink;

    #[test]
    fn every_line_is_valid_json_with_a_type() {
        let sink = TelemetrySink::enabled();
        sink.span("host", "backend", "rpc", 0.0, 0.5)
            .attr("bytes", 1024)
            .emit();
        sink.counter_add("launches", 3.0);
        sink.gauge_set("queue", 2.0);
        sink.histogram_record("latency_s", 0.25);
        sink.series_sample("power_w", 0.1, 212.5);
        sink.audit(DecisionRecord {
            time_s: 0.2,
            kernels: vec!["aes".into()],
            verdict: Verdict::Cpu,
            consolidated: None,
            serial: Some((0.9, 11.0)),
            cpu: Some((0.4, 3.0)),
            event: AuditEvent::Decision {
                compared_j: [f64::INFINITY, 11.0, 3.0],
                margin: 0.02,
                policy: None,
                forced: false,
                closed: None,
            },
        });
        let text = render(&sink.snapshot().unwrap());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            let v = json::parse(line).expect("line parses");
            assert!(v.get("type").is_some(), "line {line} has a type");
        }
        assert!(text.contains("\"verdict\":\"cpu\""));
        assert!(text.contains("\"cpu\":{\"time_s\":0.4"));
    }
}
