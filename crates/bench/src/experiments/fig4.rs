//! Figure 4 — performance-model validation, type 2 (> 1 block per SM).
//!
//! The hard case: the model must reconstruct the block placement
//! (including the idle-SM redistribution), find the critical SMs, and
//! estimate their time treating co-scheduled blocks as one big workload.
//! The paper reports < 12% error; the same bound is asserted here.
//! Plans are built and validated as in Figure 3.

use ewc_gpu::GpuConfig;
use ewc_workloads::{
    AesWorkload, BlackScholesWorkload, MonteCarloWorkload, SearchWorkload, SortWorkload,
};

use super::fig3::{plan, validate, Case, Row};
use crate::report::{pct, secs, Table};

/// Run the validation set.
pub fn run() -> Vec<Row> {
    let cfg = GpuConfig::tesla_c1060();
    let enc1 = AesWorkload::scenario1(&cfg);
    let mc1 = MonteCarloWorkload::scenario1(&cfg);
    let search2 = SearchWorkload::scenario2(&cfg);
    let bs2 = BlackScholesWorkload::scenario2(&cfg);
    let enc = AesWorkload::fig7(&cfg);
    let sort = SortWorkload::fig8(&cfg);

    let cases: [Case; 5] = [
        ("scenario1: enc + mc", &[(&enc1, 1), (&mc1, 1)]),
        ("scenario2: search + bs", &[(&search2, 1), (&bs2, 1)]),
        ("enc x11 (wraps)", &[(&enc, 11)]),
        ("sort x9 (co-resident)", &[(&sort, 9)]),
        ("sort x6 + enc x6", &[(&sort, 6), (&enc, 6)]),
    ];
    cases
        .iter()
        .map(|(label, parts)| validate(label, &plan(parts), false))
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
        "critical SMs",
    ]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.blocks.to_string(),
            secs(r.predicted_s),
            secs(r.measured_s),
            pct(r.error),
            format!("{} from SM{}", r.critical.1, r.critical.0),
        ]);
    }
    format!(
        "Figure 4: type-2 performance prediction (> 1 block per SM, paper bound < 12%)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type2_predictions_within_paper_bound() {
        let rows = run();
        assert!(rows.len() >= 4);
        for r in &rows {
            assert!(
                r.error < 0.12,
                "{}: predicted {:.2} measured {:.2} ({:.1}%)",
                r.label,
                r.predicted_s,
                r.measured_s,
                r.error * 100.0
            );
        }
        // The scenario-1 row must identify SMs 0..14 as critical.
        let s1 = &rows[0];
        assert_eq!(s1.critical, (0, 15), "scenario 1 critical SMs");
    }
}
