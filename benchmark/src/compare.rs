//! `compare A B`: one row per workload × end-to-end metric.
//!
//! Each file is a `results.jsonl` the benchmark wrote: one record per
//! workload run, any number of runs per workload. A side's samples are
//! its runs' values; with a single run the quartile range is the one the
//! run recorded over its own repetitions.

use std::collections::BTreeMap;
use std::path::Path;

use ewc_telemetry::json::{self, Value};

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// One side's samples of one workload × metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// One value per run.
    pub values: Vec<f64>,
    /// `(q1, q3)` the last run recorded over its repetitions.
    pub recorded: (f64, f64),
}

impl Samples {
    /// `(q1, median, q3)`: over the runs, or the recorded range around
    /// the one run.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        match self.values.as_slice() {
            [one] => (self.recorded.0, *one, self.recorded.1),
            many => quartiles(many),
        }
    }
}

/// `workload → metric → samples` of the timed (untraced) runs in a file.
pub type Side = BTreeMap<String, BTreeMap<String, Samples>>;

/// Parse the records of a `results.jsonl`.
pub fn parse(text: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no \"workload\"", i + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no \"metrics\"", i + 1))?;
        let of_workload = side.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let num = |key: &str| m.get(key).and_then(Value::as_f64);
            let value =
                num("value").ok_or_else(|| format!("line {}: {name} has no value", i + 1))?;
            let s = of_workload.entry(name.clone()).or_default();
            s.values.push(value);
            s.recorded = (num("q1").unwrap_or(value), num("q3").unwrap_or(value));
        }
    }
    if side.is_empty() {
        return Err("no timed runs in the file".into());
    }
    Ok(side)
}

/// Read and parse a `results.jsonl`.
pub fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread is wider than the bound and the two sides' quartile
    /// ranges interleave: neither "unchanged" nor "worse" can be read
    /// off these runs.
    Unresolved,
}

impl Verdict {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A (the base of every ratio).
pub fn verdict(a: &Samples, b: &Samples, better: Better, bound: f64) -> Verdict {
    let (a1, am, a3) = a.quartiles();
    let (b1, bm, b3) = b.quartiles();
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let wide = spread(a1, am, a3).max(spread(b1, bm, b3)) > bound;
    let interleave = a1 <= b3 && b1 <= a3;
    if wide && interleave {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (bm - am) / am.abs(),
        Better::Higher => (am - bm) / am.abs(),
    };
    if am != 0.0 && worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Render the comparison table; the flag says whether any row is worse.
pub fn render(a: &Side, b: &Side) -> (String, bool) {
    let mut out = String::from(
        "workload            metric              A median [q1 .. q3] n        B median [q1 .. q3] n        B/A     bound  verdict\n",
    );
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (
                a.get(*workload).and_then(|w| w.get(m.name)),
                b.get(*workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            let (a1, am, a3) = sa.quartiles();
            let (b1, bm, b3) = sb.quartiles();
            let v = verdict(sa, sb, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            out.push_str(&format!(
                "{workload:<19} {:<19} {am:>10.4} [{a1:.4} .. {a3:.4}] {:<3} {bm:>10.4} [{b1:.4} .. {b3:.4}] {:<3} {:>7.4} {:>5.0}%  {}\n",
                m.name,
                sa.values.len(),
                sb.values.len(),
                bm / am,
                100.0 * m.bound,
                v.label(),
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Samples {
        Samples {
            values: values.to_vec(),
            recorded: (0.0, 0.0),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // 5 % slower with a 10 % bound: ok; 20 % slower: worse.
        assert_eq!(
            verdict(
                &a,
                &runs(&[105.0, 106.0, 104.0, 105.5, 104.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &a,
                &runs(&[120.0, 121.0, 119.0, 120.5, 119.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        // The same 20 % is a gain when higher is better.
        assert_eq!(
            verdict(
                &a,
                &runs(&[120.0, 121.0, 119.0, 120.5, 119.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
        // Spread wider than the bound and interleaving ranges: unresolved.
        let noisy = runs(&[80.0, 125.0, 95.0, 110.0, 100.0]);
        assert_eq!(
            verdict(&a, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide spread but clear of A's range: still judged.
        let far = runs(&[180.0, 225.0, 195.0, 210.0, 200.0]);
        assert_eq!(verdict(&a, &far, Better::Lower, 0.10), Verdict::Worse);
    }

    #[test]
    fn one_run_per_side_uses_the_recorded_quartiles() {
        let line = |v: f64, q1: f64, q3: f64| {
            format!(
                "{{\"workload\": \"policy_storm\", \"trace\": false, \"metrics\": {{\"ops_per_s\": {{\"value\": {v}, \"unit\": \"1/s\", \"q1\": {q1}, \"q3\": {q3}, \"n\": 9}}}}, \"claim\": null}}\n"
            )
        };
        let a = parse(&line(1000.0, 990.0, 1010.0)).unwrap();
        let b = parse(&line(1005.0, 995.0, 1015.0)).unwrap();
        let s = &a["policy_storm"]["ops_per_s"];
        assert_eq!(s.quartiles(), (990.0, 1000.0, 1010.0));
        let (table, worse) = render(&a, &b);
        assert!(!worse);
        assert!(table.contains("policy_storm"), "{table}");
        assert!(table.lines().nth(1).unwrap().ends_with("ok"), "{table}");
        // Traced records are not compared.
        assert!(parse("{\"workload\": \"x\", \"trace\": true, \"metrics\": {}}").is_err());
    }
}
