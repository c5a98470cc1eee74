//! Figure 3 — performance-model validation, type 1 (≤ 1 block per SM).
//!
//! Consolidations whose total block count fits one wave: the model only
//! needs each kernel's solo time plus the global-bandwidth-sharing term.
//! Prediction is compared against the execution engine (the "measured"
//! side of this reproduction). Figure 4 validates type-2 plans through
//! the same `plan` builder and `validate`.

use ewc_gpu::{DispatchPolicy, ExecutionEngine, GpuConfig};
use ewc_models::{ConsolidationPlan, KernelSpec, PerfModel};
use ewc_workloads::{
    AesWorkload, BlackScholesWorkload, MonteCarloWorkload, SearchWorkload, SortWorkload, Workload,
};

use crate::report::{pct, secs, Table};

/// One validation point (Figures 3 and 4).
#[derive(Debug, Clone)]
pub struct Row {
    /// Combination label.
    pub label: String,
    /// Total blocks (≤ 30 ⇒ type 1, > 30 ⇒ some SM holds several).
    pub blocks: u32,
    /// Model-predicted time (s).
    pub predicted_s: f64,
    /// Engine-measured time (s).
    pub measured_s: f64,
    /// Relative error.
    pub error: f64,
    /// Model-identified critical SMs (first, count) for the record.
    pub critical: (u32, usize),
}

/// One validation case: a label, and how many instances of each
/// workload the plan holds, in template order.
pub(crate) type Case<'a> = (&'a str, &'a [(&'a dyn Workload, u32)]);

/// A plan of `n` instances of each workload in turn, in template order.
pub(crate) fn plan(parts: &[(&dyn Workload, u32)]) -> ConsolidationPlan {
    let mut p = ConsolidationPlan::new();
    for &(w, n) in parts {
        for _ in 0..n {
            p.push(KernelSpec::new(w.desc(), w.blocks()));
        }
    }
    p
}

/// Predict `plan`, which must be of the given type, and measure it on
/// the execution engine.
pub(crate) fn validate(label: &str, plan: &ConsolidationPlan, type1: bool) -> Row {
    let cfg = GpuConfig::tesla_c1060();
    let model = PerfModel::new(cfg.clone());
    let pred = model.predict(plan);
    assert_eq!(pred.is_type1, type1, "{label}: wrong consolidation type");
    let engine = ExecutionEngine::new(cfg);
    let measured = engine
        .run(&plan.to_grid(), DispatchPolicy::default())
        .expect("runnable plan")
        .elapsed_s;
    Row {
        label: label.to_string(),
        blocks: plan.total_blocks(),
        predicted_s: pred.time_s,
        measured_s: measured,
        error: (pred.time_s - measured).abs() / measured,
        critical: (
            pred.critical_sms.first().copied().unwrap_or(0),
            pred.critical_sms.len(),
        ),
    }
}

/// Run the validation set.
pub fn run() -> Vec<Row> {
    let cfg = GpuConfig::tesla_c1060();
    let enc = AesWorkload::fig7(&cfg);
    let sort = SortWorkload::fig8(&cfg);
    let search = SearchWorkload::tables56(&cfg);
    let bs = BlackScholesWorkload::tables56(&cfg);
    let mc = MonteCarloWorkload::tables78(&cfg);

    let cases: [Case; 6] = [
        ("enc x2", &[(&enc, 2)]),
        ("enc x4 + sort x2", &[(&enc, 4), (&sort, 2)]),
        ("sort x3 + search", &[(&sort, 3), (&search, 1)]),
        ("search + bs x5", &[(&search, 1), (&bs, 5)]),
        ("enc x3 + mc x12", &[(&enc, 3), (&mc, 12)]),
        ("mc x30", &[(&mc, 30)]),
    ];
    cases
        .iter()
        .map(|(label, parts)| validate(label, &plan(parts), true))
        .collect()
}

/// Render the table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "combination",
        "blocks",
        "predicted (s)",
        "measured (s)",
        "error",
    ]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.blocks.to_string(),
            secs(r.predicted_s),
            secs(r.measured_s),
            pct(r.error),
        ]);
    }
    format!(
        "Figure 3: type-1 performance prediction (≤ 1 block per SM)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type1_predictions_are_accurate() {
        let rows = run();
        assert!(rows.len() >= 5);
        for r in &rows {
            assert!(r.blocks <= 30);
            assert!(
                r.error < 0.08,
                "{}: predicted {:.2} measured {:.2} ({:.1}%)",
                r.label,
                r.predicted_s,
                r.measured_s,
                r.error * 100.0
            );
        }
    }
}
