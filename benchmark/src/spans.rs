//! Host-time spans recorded by the driver around its calls into the
//! stack's public functions (the traced run only).
//!
//! Spans live in one preallocated `Vec` and are written out as JSON
//! lines after the last repetition, so recording costs a push. A span's
//! id is its position + 1; `parent == 0` marks a root. Spans of one
//! request share its `op` id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (position in the log + 1).
    pub id: u32,
    /// Id of the span this one ran inside, `0` for a root.
    pub parent: u32,
    /// The operation (request, pass, mix) every span of one op shares.
    pub op: u32,
    /// The public function called.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// Count, total time and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Σ duration, nanoseconds.
    pub total_ns: u64,
    /// Σ (duration − the part its child spans cover), nanoseconds.
    pub self_ns: u64,
}

/// The in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    epoch: Instant,
}

impl SpanLog {
    /// A log with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            epoch: Instant::now(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to name.
    pub fn push(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserve the id of a span that is still open (its children are
    /// recorded before it ends); close it with [`SpanLog::close`].
    pub fn open(&mut self, parent: u32, op: u32, name: &'static str, start: Instant) -> u32 {
        self.push(parent, op, name, start, start)
    }

    /// Set the end of a span reserved with [`SpanLog::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end_ns;
        }
    }

    /// Drop every span, keeping the storage.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span whose name starts with
    /// `prefix` (a full name, or a family such as
    /// `"DecisionEngine::assess"` for all of its `[engine]` variants).
    pub fn durations_us(&self, prefix: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per-name count, total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A layer's self time is its span minus the part its children cover.
/// The driver is single-threaded, so the children of one span never
/// overlap each other and the part they cover is the sum of their
/// durations (clamped to the parent's own).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = child_ns.get(s.id as usize).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // run [0, 1000] ⊃ fire [100, 400] ⊃ {configure [110, 150],
        // launch [150, 380]}, and a second fire [500, 900] with no
        // children.
        let spans = [
            span(1, 0, "run", 0, 1000),
            span(2, 1, "fire", 100, 400),
            span(3, 2, "configure", 110, 150),
            span(4, 2, "launch", 150, 380),
            span(5, 1, "fire", 500, 900),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["run"],
            LayerTime {
                count: 1,
                total_ns: 1000,
                self_ns: 1000 - 300 - 400
            }
        );
        assert_eq!(
            t["fire"],
            LayerTime {
                count: 2,
                total_ns: 700,
                self_ns: (300 - 40 - 230) + 400
            }
        );
        assert_eq!(t["configure"].self_ns, 40);
        assert_eq!(t["launch"].total_ns, 230);
    }

    #[test]
    fn open_spans_take_their_children_before_they_close() {
        let mut log = SpanLog::with_capacity(4);
        let t0 = Instant::now();
        let root = log.open(0, 7, "run", t0);
        let child = log.push(root, 7, "fire", t0, t0);
        log.close(root, Instant::now());
        assert_eq!((root, child), (1, 2));
        assert_eq!(log.spans()[1].parent, root);
        assert!(log.spans()[0].end_ns >= log.spans()[0].start_ns);
        log.clear();
        assert!(log.spans().is_empty());
    }
}
