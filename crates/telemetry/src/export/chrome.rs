//! Chrome trace-event exporter.
//!
//! Emits the JSON object format (`{"traceEvents":[...]}`) understood by
//! Perfetto and `chrome://tracing`.  Spans become complete (`"ph":"X"`)
//! events with microsecond timestamps; each distinct span *process* becomes
//! a trace pid and each `(process, lane)` pair a tid, both named via
//! metadata (`"ph":"M"`) events.  Time series become counter (`"ph":"C"`)
//! events on pid 0.

use super::{Escaped, FloatMemo, Reasons, Templates};
use crate::json::{write_escaped, write_literal, write_u64, Out, Text};
use crate::sink::TelemetrySnapshot;
use crate::store::{FastMap, SpanRow, Sym};

const US_PER_S: f64 = 1e6;

/// Trace pids and tids. Ids are handed out in order of first appearance
/// in the (chronological) span list: a process's pid counts the
/// processes seen before it, a lane's tid counts the lanes seen before
/// it *in its process*. Only the metadata events that name them are
/// sorted by name.
struct Tracks {
    /// Indexed by process symbol; 0 where the symbol is not a process.
    pids: Vec<u64>,
    tids: FastMap<(Sym, Sym), u64>,
    /// Indexed by process symbol: lanes seen so far.
    lanes_in: Vec<u64>,
    processes: u64,
}

impl Tracks {
    fn new(symbols: usize) -> Self {
        Tracks {
            pids: vec![0; symbols],
            tids: FastMap::default(),
            lanes_in: vec![0; symbols],
            processes: 0,
        }
    }

    /// The pid and tid of `row`'s track, decided the first time the
    /// track shows up. Called in chronological order, once per template.
    fn ids(&mut self, row: &SpanRow) -> (u64, u64) {
        let process = row.process as usize;
        if self.pids[process] == 0 {
            self.processes += 1;
            self.pids[process] = self.processes;
        }
        let lanes_in = &mut self.lanes_in[process];
        let tid = *self.tids.entry((row.process, row.lane)).or_insert_with(|| {
            *lanes_in += 1;
            *lanes_in
        });
        (self.pids[process], tid)
    }
}

/// Renders `snap` as a Chrome trace-event JSON document.
pub fn render(snap: &TelemetrySnapshot) -> String {
    let spans = &snap.spans;
    let symbols = spans.symbols();
    let escaped = Escaped::new(symbols);
    let mut tracks = Tracks::new(symbols.len());
    // Every span event follows at least its process's metadata event,
    // so its template starts with the separator.
    let templates = Templates::new(spans, |text, row| {
        let (pid, tid) = tracks.ids(row);
        text.push_str(",\n{\"ph\":\"X\",\"name\":");
        text.push_str(escaped.get(row.name));
        text.push_str(",\"cat\":");
        text.push_str(escaped.get(row.process));
        text.push_str(",\"pid\":");
        write_u64(text, pid);
        text.push_str(",\"tid\":");
        write_u64(text, tid);
        text.push_str(",\"ts\":");
    });
    let reasons = Reasons::new(&snap.audit);
    let mut floats = FloatMemo::new();

    let mut out = Text::with_capacity(escaped.capacity_for(snap, &templates, &reasons));
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut next_event = |out: &mut Text| {
        out.push_str(if std::mem::take(&mut first) {
            "\n"
        } else {
            ",\n"
        });
    };

    // Process / thread naming metadata, sorted by name.
    let mut processes: Vec<Sym> = (0..symbols.len() as Sym)
        .filter(|&sym| tracks.pids[sym as usize] != 0)
        .collect();
    processes.sort_unstable_by_key(|&sym| &*symbols[sym as usize]);
    for process in processes {
        next_event(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
        write_u64(&mut out, tracks.pids[process as usize]);
        out.push_str(",\"tid\":0,\"args\":{\"name\":");
        out.push_str(escaped.get(process));
        out.push_str("}}");
    }
    let mut lanes: Vec<(Sym, Sym, u64)> = tracks
        .tids
        .iter()
        .map(|(&(process, lane), &tid)| (process, lane, tid))
        .collect();
    lanes.sort_unstable_by_key(|&(process, lane, _)| {
        (&*symbols[process as usize], &*symbols[lane as usize])
    });
    for (process, lane, tid) in lanes {
        next_event(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        write_u64(&mut out, tracks.pids[process as usize]);
        out.push_str(",\"tid\":");
        write_u64(&mut out, tid);
        out.push_str(",\"args\":{\"name\":");
        out.push_str(escaped.get(lane));
        out.push_str("}}");
    }

    // Spans as complete events.
    for (row, template) in spans.rows().zip(templates.iter()) {
        out.push_str(template);
        floats.write(&mut out, row.start_s * US_PER_S);
        out.push_str(",\"dur\":");
        floats.write(&mut out, row.duration_s() * US_PER_S);
        out.push_str(",\"args\":{\"span_id\":");
        write_u64(&mut out, row.id);
        if row.parent != 0 {
            out.push_str(",\"parent_id\":");
            write_u64(&mut out, row.parent);
        }
        for attr in spans.attrs_of(row) {
            out.push(',');
            escaped.write_attr(&mut out, attr);
        }
        out.push_str("}}");
    }

    // Time series as counter events on pid 0.
    let mut head = String::new();
    for (name, samples) in &snap.series {
        head.clear();
        head.push_str("{\"ph\":\"C\",\"name\":");
        write_literal(&mut head, name);
        head.push_str(",\"pid\":0,\"tid\":0,\"ts\":");
        for &(t, v) in samples {
            next_event(&mut out);
            out.push_str(&head);
            floats.write(&mut out, t * US_PER_S);
            out.push_str(",\"args\":{\"value\":");
            floats.write(&mut out, v);
            out.push_str("}}");
        }
    }

    // Decision verdicts as instant events on pid 0, one lane for the
    // decision engine so verdicts line up with the spans around them.
    for (i, rec) in snap.audit.iter().enumerate() {
        next_event(&mut out);
        out.push_str("{\"ph\":\"i\",\"s\":\"g\",\"name\":\"decision:");
        write_escaped(&mut out, rec.verdict.label());
        out.push_str("\",\"pid\":0,\"tid\":0,\"ts\":");
        floats.write(&mut out, rec.time_s * US_PER_S);
        out.push_str(",\"args\":{\"kernels\":\"");
        for (i, kernel) in rec.kernels.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            write_escaped(&mut out, kernel);
        }
        out.push_str("\",\"reason\":");
        out.push_str(reasons.get(i));
        out.push_str("}}");
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sink::TelemetrySink;

    #[test]
    fn exports_valid_json_with_named_tracks() {
        let sink = TelemetrySink::enabled();
        let root = sink.span("host", "frontend0", "call", 0.0, 2.0).emit();
        sink.span("host", "backend", "rpc", 0.1, 0.3)
            .parent(root)
            .emit();
        sink.span("gpu0", "sm0", "block", 0.5, 1.5)
            .parent(root)
            .emit();
        sink.series_sample("power_w", 0.0, 200.0);
        let doc = render(&sink.snapshot().unwrap());
        let v = json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 process_name + 3 thread_name + 3 X + 1 C = 9 events.
        assert_eq!(events.len(), 9);
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(x.len(), 3);
        for ev in &x {
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        }
        // Distinct processes got distinct pids.
        let pids: std::collections::BTreeSet<i64> = x
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap() as i64)
            .collect();
        assert_eq!(pids.len(), 2);
    }
}
