//! Figures 7 and 8 — N instances of one workload under all four setups.
//!
//! One sweep serves both figures: Figure 7 sweeps encryption instances,
//! Figure 8 sorting instances. They differ only in the mix and the
//! title they are given.

use ewc_gpu::GpuConfig;

use crate::mix::Mix;
use crate::report::{joules, secs, Table};
use crate::setups::{four_way, FourWay};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Instance count.
    pub n: u32,
    /// The four setups.
    pub setups: FourWay,
}

/// Sweep 1..=max_n instances of the mix `mix` builds for `n`.
pub fn run(mix: fn(&GpuConfig, u32) -> Mix, max_n: u32) -> Vec<Row> {
    let cfg = GpuConfig::tesla_c1060();
    (1..=max_n)
        .map(|n| {
            let fw = four_way(&mix(&cfg, n));
            assert!(fw.serial.correct && fw.manual.correct && fw.dynamic.correct);
            Row { n, setups: fw }
        })
        .collect()
}

/// Render time and energy panels under `title` (e.g. "Figure 7:
/// encryption instances").
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut time = Table::new(&["n", "CPU (s)", "serial (s)", "manual (s)", "dynamic (s)"]);
    let mut energy = Table::new(&["n", "CPU", "serial", "manual", "dynamic"]);
    for r in rows {
        let s = &r.setups;
        time.row(vec![
            r.n.to_string(),
            secs(s.cpu.time_s),
            secs(s.serial.time_s),
            secs(s.manual.time_s),
            secs(s.dynamic.time_s),
        ]);
        energy.row(vec![
            r.n.to_string(),
            joules(s.cpu.energy_j),
            joules(s.serial.energy_j),
            joules(s.manual.energy_j),
            joules(s.dynamic.energy_j),
        ]);
    }
    format!(
        "{title} — execution time\n{}\n{title} — total energy\n{}",
        time.render(),
        energy.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shapes() {
        let rows = run(Mix::encryption, 9);
        let one = &rows[0].setups;
        let nine = &rows[8].setups;
        // One instance: GPU worse than CPU on time and energy.
        assert!(one.serial.time_s > one.cpu.time_s);
        assert!(one.dynamic.energy_j > one.cpu.energy_j);
        // Serial is the worst GPU setup at every point.
        for r in &rows {
            assert!(r.setups.serial.time_s >= r.setups.manual.time_s);
            assert!(r.setups.serial.time_s + 1e-9 >= r.setups.dynamic.time_s * 0.5);
        }
        // Nine instances: consolidation beats the CPU on both axes.
        assert!(nine.manual.time_s < nine.cpu.time_s);
        assert!(nine.dynamic.time_s < nine.cpu.time_s);
        assert!(nine.dynamic.energy_j < nine.cpu.energy_j);
        // Dynamic carries overhead over manual, but bounded.
        assert!(nine.dynamic.time_s >= nine.manual.time_s);
        assert!(nine.dynamic.time_s < 1.5 * nine.manual.time_s);
    }

    #[test]
    fn beyond_thirty_blocks_consolidation_degrades() {
        // 11 instances = 33 blocks > 30 SMs: compute-bound encryption
        // blocks start doubling up and the consolidated time jumps — the
        // paper's "too many instances" regime its framework avoids.
        let rows = run(Mix::encryption, 11);
        let at9 = rows[8].setups.manual.time_s;
        let at11 = rows[10].setups.manual.time_s;
        assert!(at11 > 1.5 * at9, "expected a jump: {at9} → {at11}");
    }

    #[test]
    fn fig8_shapes() {
        let rows = run(Mix::sorting, 9);
        let one = &rows[0].setups;
        let nine = &rows[8].setups;
        // Manual consolidation time stays ~flat: co-resident sorting
        // blocks interleave (issue demand < 0.5).
        assert!(
            nine.manual.time_s < 1.3 * one.manual.time_s,
            "manual should stay flat: {} → {}",
            one.manual.time_s,
            nine.manual.time_s
        );
        // CPU time kinks upward past 4 instances (4 × 2-wide tasks fill
        // the 8 cores).
        let cpu4 = rows[3].setups.cpu.time_s;
        let cpu9 = rows[8].setups.cpu.time_s;
        let cpu1 = rows[0].setups.cpu.time_s;
        assert!(cpu4 < 1.2 * cpu1, "≤4 instances fit the machine");
        assert!(cpu9 > 1.8 * cpu4, "beyond 4 the CPU saturates");
        // GPU benefit grows with instance count: ~1.4× at 1 → ~2× at 9.
        let b1 = one.cpu.time_s / one.manual.time_s;
        let b9 = nine.cpu.time_s / nine.manual.time_s;
        assert!(b9 > b1, "benefit must grow: {b1:.2} → {b9:.2}");
        assert!(b9 > 1.8, "paper reaches ~2x at 9 instances, got {b9:.2}");
        // Energy follows time.
        assert!(nine.manual.energy_j < nine.cpu.energy_j);
        assert!(nine.dynamic.energy_j < nine.cpu.energy_j);
    }
}
