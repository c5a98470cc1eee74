//! The runner: builds one workload, repeats it for the run length,
//! aggregates medians, gates correctness and renders the result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ewc_telemetry::json::{write_number, write_string};

use crate::env::{self, Pinned};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{iqr_frac, median, quartiles};
use crate::workloads;

/// What one repetition of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the timed region, host seconds.
    pub wall_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops completed (the divisor of the per-op simulated metrics).
    pub completed: u64,
    /// Ops that went wrong: failed kernels, client errors, unverified
    /// outputs, non-finite results.
    pub failed: u64,
    /// Ops the admission controller refused for good (shed) — the
    /// designed answer to overload, reported but not counted as failed.
    pub refused: u64,
    /// Latency samples of this repetition: median, tail, and the tail
    /// percentile used; host microseconds.
    pub op_us: (f64, f64, f64),
    /// Simulated makespan, seconds.
    pub sim_time_s: f64,
    /// Simulated whole-system energy, joules.
    pub sim_energy_j: f64,
    /// Tail of the simulated completion latency, seconds.
    pub sim_p99_latency_s: f64,
    /// Hash over every simulated result: equal across repetitions or the
    /// run is not deterministic.
    pub fingerprint: u64,
    /// Violated invariants (conservation, shed accounting, …); empty when
    /// the repetition is sound.
    pub violations: Vec<String>,
}

/// Hashes simulated results into a repetition's fingerprint. `Debug`
/// output streams straight into the hasher: formatting megabytes of
/// backend statistics into a `String` first would make the benchmark's
/// own bookkeeping the peak of `peak_rss_mb`.
#[derive(Default)]
pub struct Fingerprint(std::collections::hash_map::DefaultHasher);

impl std::fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        std::hash::Hasher::write(&mut self.0, s.as_bytes());
        Ok(())
    }
}

impl Fingerprint {
    /// Mix in a value's `Debug` rendering.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        use std::fmt::Write;
        write!(self, "{v:?};").expect("hashing cannot fail");
    }

    /// Mix in floats bit for bit.
    pub fn bits(&mut self, xs: &[f64]) {
        for x in xs {
            std::hash::Hasher::write_u64(&mut self.0, x.to_bits());
        }
    }

    /// The fingerprint.
    pub fn finish(self) -> u64 {
        std::hash::Hasher::finish(&self.0)
    }
}

/// What a workload's traced run reports about its layers.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Per-layer values by metric name; names left out read 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Remarks for the human-readable output (the ledger table).
    pub notes: Vec<String>,
    /// Checks the traced run failed (fail the whole run).
    pub violations: Vec<String>,
    /// Median wall time of the plain repetitions the traced ones
    /// alternated with, host seconds.
    pub plain_wall_s: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// Run one repetition; with `spans`, wrap every call into the stack
    /// in a span.
    fn rep(&mut self, spans: Option<&mut SpanLog>) -> Rep;

    /// Spans one traced repetition records, to size the log up front.
    fn span_capacity(&self) -> usize;

    /// After the traced repetitions: replay the backend-side layers on
    /// what the last one recorded, run the isolated layer probes, and
    /// fill in the per-layer metrics.
    fn layers(&mut self, spans: &SpanLog, out: &mut LayerReport);
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Run length, host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run
    /// (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes, one repetition: for the self-tests.
    pub smoke: bool,
    /// Where span files and `results.jsonl` go.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (for host times, the fast-side quartile over the
    /// repetitions; see `value_of`).
    pub value: f64,
    /// First and third quartile over the repetitions.
    pub q: (f64, f64),
    /// Repetitions behind the value.
    pub n: usize,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted over the timed repetitions.
    pub attempted: u64,
    /// Ops failed over the timed repetitions.
    pub failed: u64,
    /// Ops refused (shed) over the timed repetitions.
    pub refused: u64,
    /// The metrics, in vocabulary order.
    pub values: Vec<Value>,
    /// Human-readable remarks (violations, the ledger table, the tail
    /// percentile in use).
    pub notes: Vec<String>,
}

/// Set-ups timed per run, so `setup_s` rests on a sample and not on one
/// reading. One set-up is: build the workload from the seed, then run its
/// first repetition, which pays for everything lazy (thread-local arenas,
/// the first runtime build, cold caches). The last one's workload is the
/// one then measured.
const SETUPS: usize = 3;

/// Fewest timed repetitions (or plain/traced pairs) in a run.
const MIN_REPS: usize = 3;

/// Fold one repetition's checks into the tallies. A repetition that
/// breaks an invariant or fails to reproduce repetition 0 counts all its
/// ops as failed.
fn gate(rep: &Rep, reference: u64, which: &str, report: &mut Report) {
    report.attempted += rep.attempted;
    report.refused += rep.refused;
    let mut broken = rep.violations.clone();
    if rep.fingerprint != reference {
        broken.push("simulated results differ from repetition 0".into());
    }
    if broken.is_empty() {
        report.failed += rep.failed;
    } else {
        report.failed += rep.attempted;
        for b in broken {
            report.notes.push(format!("{which}: {b}"));
        }
    }
}

/// A metric's value over the repetitions: the quartile on its *fast*
/// side (first quartile of a time, third of a rate). On a shared host
/// interference only ever slows a repetition down, and it comes in
/// phases that last many repetitions: ten same-commit runs taken through
/// one such phase spread 21–30 % on the median of repetitions and 12 %
/// on the fast quartile, while on a quiet host the two agree within 2 %.
fn value_of(m: &EndToEnd, samples: &[f64]) -> Value {
    let (q1, _, q3) = quartiles(samples);
    Value {
        name: m.name,
        unit: m.unit,
        value: match m.better {
            Better::Lower => q1,
            Better::Higher => q3,
        },
        q: (q1, q3),
        n: samples.len(),
    }
}

/// Run one workload as `opts` says. `pinned` proves the caller pinned
/// the process first.
pub fn run(opts: &Options, pinned: Pinned) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut report = Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: opts.trace,
        correct: true,
        attempted: 0,
        failed: 0,
        refused: 0,
        values: Vec::new(),
        notes: Vec::new(),
    };
    let min_reps = if opts.smoke { 1 } else { MIN_REPS };

    // Set up: build, then the first repetition. That repetition is also
    // repetition 0, the reference every later one must reproduce bit for
    // bit. Its ops are not part of the measurement, but a set-up that
    // broke an invariant fails the whole run (below).
    let mut setup_s = Vec::new();
    let mut built = None;
    for i in 0..if opts.smoke { 1 } else { SETUPS } {
        let t = Instant::now();
        let mut w = workloads::build(&opts.workload, opts.seed, opts.smoke)?;
        let first = w.rep(None);
        setup_s.push(t.elapsed().as_secs_f64());
        let reference = built
            .as_ref()
            .map_or(first.fingerprint, |(_, r): &(_, Rep)| r.fingerprint);
        gate(&first, reference, &format!("set-up {}", i + 1), &mut report);
        built = Some((w, first));
    }
    let (mut w, warm) = built.ok_or("no set-up ran")?;
    let reference = warm.fingerprint;
    let warm_failed = report.failed > 0;
    (report.attempted, report.failed, report.refused) = (0, 0, 0);

    if opts.trace {
        trace_run(opts, pinned, w.as_mut(), min_reps, reference, &mut report)?;
    } else {
        let mut reps = Vec::new();
        let t0 = Instant::now();
        while reps.len() < min_reps || t0.elapsed().as_secs_f64() < opts.seconds {
            let rep = w.rep(None);
            gate(
                &rep,
                reference,
                &format!("rep {}", reps.len() + 1),
                &mut report,
            );
            reps.push(rep);
        }
        end_to_end(&reps, &warm, setup_s, &mut report);
    }
    if report.attempted == 0 {
        return Err("no op was attempted".into());
    }
    let mut broken = warm_failed;
    for v in &mut report.values {
        if !v.value.is_finite() {
            report.notes.push(format!("{} is not finite", v.name));
            broken = true;
            v.value = 0.0;
        }
    }
    if broken {
        report.failed = report.attempted;
    }
    report.correct = report.failed == 0;
    Ok(report)
}

fn end_to_end(reps: &[Rep], warm: &Rep, setup: Vec<f64>, report: &mut Report) {
    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    // The simulated results are those of repetition 0; `gate` has already
    // failed any repetition that did not reproduce them.
    let done = warm.completed.max(1) as f64;
    let sim = |x: f64| vec![x];
    let samples: [Vec<f64>; 9] = [
        setup,
        col(&|r| r.attempted as f64 / r.wall_s),
        col(&|r| r.op_us.0),
        col(&|r| r.op_us.1),
        vec![env::peak_rss_mb()],
        sim(warm.sim_time_s),
        sim(warm.sim_energy_j / done),
        sim(warm.sim_p99_latency_s),
        sim(done / warm.sim_time_s),
    ];
    for (m, s) in END_TO_END.iter().zip(&samples) {
        report.values.push(value_of(m, s));
    }
    report.notes.push(format!(
        "op_us_p99 is the p{:.1} of each repetition's latency samples (highest percentile with ten samples beyond it)",
        warm.op_us.2
    ));
}

fn trace_run(
    opts: &Options,
    pinned: Pinned,
    w: &mut dyn Workload,
    min_pairs: usize,
    reference: u64,
    report: &mut Report,
) -> Result<(), String> {
    let mut spans = SpanLog::with_capacity(w.span_capacity());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Alternate plain and traced repetitions so both see the same host
    // conditions; the ratio of their medians is the tracing overhead.
    let t0 = Instant::now();
    while plain.len() < min_pairs || t0.elapsed().as_secs_f64() < opts.seconds {
        let p = w.rep(None);
        gate(&p, reference, "plain rep", report);
        plain.push(p.wall_s);
        spans.clear();
        let t = w.rep(Some(&mut spans));
        gate(&t, reference, "traced rep", report);
        traced.push(t.wall_s);
    }
    let mut out = LayerReport {
        plain_wall_s: median(&plain),
        ..LayerReport::default()
    };
    w.layers(&spans, &mut out);
    report.notes.append(&mut out.notes);
    if !out.violations.is_empty() {
        report.failed = report.attempted;
        report.notes.append(&mut out.violations);
    }
    let mut layers = out.values;
    layers.insert("bench.pinned_cpu", f64::from(pinned.cpu));
    layers.insert("bench.rep_iqr_frac", iqr_frac(&plain));
    layers.insert(
        "bench.trace_overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    let attempted = report.attempted.max(1) as f64;
    layers.insert("bench.fail_frac", report.failed as f64 / attempted);
    layers.insert("bench.refused_frac", report.refused as f64 / attempted);
    for m in PER_LAYER {
        report.values.push(Value {
            name: m.name,
            unit: m.unit,
            value: layers.get(m.name).copied().unwrap_or(0.0),
            q: (0.0, 0.0),
            n: plain.len(),
        });
    }
    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans of the last traced repetition written to {}",
        spans.spans().len(),
        path.display()
    ));
    Ok(())
}

impl Report {
    /// The human-readable form: one `workload metric value unit` line per
    /// metric, then the remarks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.values {
            out.push_str(&format!(
                "{} {} {} {}",
                self.workload, v.name, v.value, v.unit
            ));
            if v.n > 1 && !self.trace {
                out.push_str(&format!("  [q1 {} q3 {} n={}]", v.q.0, v.q.1, v.n));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} attempted {} failed {} refused {}\n",
            self.workload, self.attempted, self.failed, self.refused
        ));
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out
    }

    fn metrics_json(&self, out: &mut String, spread: bool) {
        out.push('{');
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_string(out, v.name);
            out.push_str(": {\"value\": ");
            write_number(out, v.value);
            out.push_str(", \"unit\": ");
            write_string(out, v.unit);
            if spread {
                out.push_str(", \"q1\": ");
                write_number(out, v.q.0);
                out.push_str(", \"q3\": ");
                write_number(out, v.q.1);
                out.push_str(&format!(", \"n\": {}", v.n));
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed
        );
        self.metrics_json(&mut out, false);
        out.push('}');
        out
    }

    /// The full record `compare` reads: the result plus the environment
    /// stamp and the spread of every metric. Ends with `"claim": null` —
    /// a run states what it measured and claims nothing.
    pub fn record_line(&self, pinned: Pinned) -> String {
        let mut out = String::from("{\"workload\": ");
        write_string(&mut out, &self.workload);
        out.push_str(&format!(
            ", \"seed\": {}, \"trace\": {}, \"stamp\": {{\"pinned_cpu\": {}, \"nproc\": {}, \"rustc\": ",
            self.seed, self.trace, pinned.cpu, pinned.nproc
        ));
        write_string(&mut out, env::rustc_version());
        out.push_str(", \"profile\": ");
        write_string(&mut out, env::profile());
        out.push_str(", \"commit\": ");
        write_string(&mut out, &env::commit());
        out.push_str(&format!(
            "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"refused\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed, self.refused
        ));
        self.metrics_json(&mut out, true);
        out.push_str(", \"claim\": null}");
        out
    }
}

/// Append one record line to `<out>/results.jsonl`.
pub fn append_record(out_dir: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let path = out_dir.join("results.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}
