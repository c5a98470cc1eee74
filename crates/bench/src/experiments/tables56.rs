//! Tables 5–8 — the paper's heterogeneous mixes of `x` instances of one
//! workload and `y` of another: Search (S) + BlackScholes (B) in Tables
//! 5 & 6, Encryption (E) + MonteCarlo (M) in Tables 7 & 8. One run and
//! one render serve both pairs; they differ only in the [`PaperMix`]
//! they are given.

use ewc_gpu::GpuConfig;

use crate::mix::Mix;
use crate::report::{joules, ratio, secs, Table};
use crate::setups::{four_way, FourWay};

/// One paper table pair: the mix, its labels, and the paper's numbers.
pub struct PaperMix {
    /// Number of the time table (the energy table is the next one).
    pub table: u32,
    /// The pair's name in both titles.
    pub name: &'static str,
    /// Row-label letters of the two workloads (`3S+10B`).
    pub letters: (char, char),
    /// Builds `x` of the first workload and `y` of the second.
    pub mix: fn(&GpuConfig, u32, u32) -> Mix,
    /// The paper's rows: `x`, `y`, times (CPU, manual, dynamic, serial)
    /// in s, energies in the same order in J.
    pub cases: [(u32, u32, [f64; 4], [f64; 4]); 4],
}

/// Tables 5 & 6: Search + BlackScholes.
pub const SEARCH_BLACKSCHOLES: PaperMix = PaperMix {
    table: 5,
    name: "Search+BlackScholes",
    letters: ('S', 'B'),
    mix: Mix::search_blackscholes,
    cases: [
        (
            1,
            1,
            [60.3, 36.6, 38.1, 69.4],
            [24_532.9, 13_572.6, 14_139.9, 25_730.3],
        ),
        (
            1,
            10,
            [218.4, 37.4, 40.2, 377.2],
            [95_184.1, 15_061.7, 16_198.0, 151_902.1],
        ),
        (
            2,
            10,
            [220.5, 38.1, 41.1, 412.5],
            [89_718.5, 15_568.4, 16_788.7, 168_271.2],
        ),
        (
            1,
            20,
            [401.7, 38.4, 43.4, 719.2],
            [176_763.3, 15_736.9, 17_786.4, 294_683.6],
        ),
    ],
};

/// Tables 7 & 8: Encryption + MonteCarlo.
pub const ENCRYPTION_MONTECARLO: PaperMix = PaperMix {
    table: 7,
    name: "Encryption+MonteCarlo",
    letters: ('E', 'M'),
    mix: Mix::encryption_montecarlo,
    cases: [
        (
            1,
            1,
            [387.7, 57.2, 57.2, 88.9],
            [162_443.0, 20_617.8, 20_648.0, 32_058.4],
        ),
        (
            3,
            3,
            [605.5, 57.4, 57.5, 266.8],
            [263_853.8, 21_697.6, 21_746.5, 100_838.4],
        ),
        (
            4,
            12,
            [976.6, 57.7, 57.8, 701.5],
            [427_091.8, 22_309.4, 22_380.2, 271_439.5],
        ),
        (
            5,
            15,
            [1163.4, 57.8, 59.9, 876.9],
            [511_666.9, 22_451.4, 23_263.5, 340_546.2],
        ),
    ],
};

/// One mix row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Instances of the first workload.
    pub x: u32,
    /// Instances of the second workload.
    pub y: u32,
    /// The four setups.
    pub setups: FourWay,
    /// Paper times (CPU, manual, dynamic, serial), s.
    pub paper_s: [f64; 4],
    /// Paper energies (CPU, manual, dynamic, serial), J.
    pub paper_j: [f64; 4],
}

/// The paper's four mixes of `pair`.
pub fn run(pair: &PaperMix) -> Vec<Row> {
    let cfg = GpuConfig::tesla_c1060();
    pair.cases
        .into_iter()
        .map(|(x, y, paper_s, paper_j)| {
            let fw = four_way(&(pair.mix)(&cfg, x, y));
            assert!(fw.serial.correct && fw.manual.correct && fw.dynamic.correct);
            Row {
                x,
                y,
                setups: fw,
                paper_s,
                paper_j,
            }
        })
        .collect()
}

/// Render both tables of `pair`.
pub fn render(pair: &PaperMix, rows: &[Row]) -> String {
    let mut time = Table::new(&[
        "mix",
        "CPU (s)",
        "manual (s)",
        "dynamic (s)",
        "serial (s)",
        "paper CPU",
        "paper dyn",
    ]);
    let mut energy = Table::new(&["mix", "CPU", "manual", "dynamic", "serial", "dyn saving"]);
    let (a, b) = pair.letters;
    for r in rows {
        let s = &r.setups;
        let label = format!("{}{a}+{}{b}", r.x, r.y);
        time.row(vec![
            label.clone(),
            secs(s.cpu.time_s),
            secs(s.manual.time_s),
            secs(s.dynamic.time_s),
            secs(s.serial.time_s),
            secs(r.paper_s[0]),
            secs(r.paper_s[2]),
        ]);
        energy.row(vec![
            label,
            joules(s.cpu.energy_j),
            joules(s.manual.energy_j),
            joules(s.dynamic.energy_j),
            joules(s.serial.energy_j),
            ratio(s.cpu.energy_j / s.dynamic.energy_j),
        ]);
    }
    format!(
        "Table {}: {} — execution time\n{}\nTable {}: {} — total energy\n{}",
        pair.table,
        pair.name,
        time.render(),
        pair.table + 1,
        pair.name,
        energy.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables56_shapes() {
        let rows = run(&SEARCH_BLACKSCHOLES);
        for r in &rows {
            let s = &r.setups;
            let label = format!("{}S+{}B", r.x, r.y);
            // Serial is the worst; consolidation beats the CPU.
            assert!(s.serial.time_s > s.cpu.time_s, "{label}: serial worst");
            assert!(s.manual.time_s < s.cpu.time_s, "{label}: manual wins");
            assert!(s.dynamic.time_s < s.cpu.time_s, "{label}: dynamic wins");
            assert!(
                s.dynamic.time_s >= s.manual.time_s,
                "{label}: dynamic pays overhead"
            );
            assert!(s.dynamic.energy_j < s.cpu.energy_j, "{label}: energy wins");
        }
        // Consolidated time is nearly flat in the BS count...
        let t1 = rows[0].setups.manual.time_s;
        let t20 = rows[3].setups.manual.time_s;
        assert!(t20 < 1.6 * t1, "manual nearly flat: {t1} → {t20}");
        // ...so the biggest mix wins the most (paper: 9.3× speed, 9.9×
        // energy; we assert > 4× for shape).
        let speedup = rows[3].setups.cpu.time_s / rows[3].setups.dynamic.time_s;
        let saving = rows[3].setups.cpu.energy_j / rows[3].setups.dynamic.energy_j;
        assert!(speedup > 4.0, "1S+20B speedup {speedup:.1}");
        assert!(saving > 4.0, "1S+20B energy saving {saving:.1}");
        // And the benefit grows with the mix size.
        let small = rows[0].setups.cpu.time_s / rows[0].setups.dynamic.time_s;
        assert!(speedup > small);
    }

    #[test]
    fn tables78_shapes() {
        let rows = run(&ENCRYPTION_MONTECARLO);
        for r in &rows {
            let s = &r.setups;
            let label = format!("{}E+{}M", r.x, r.y);
            assert!(s.manual.time_s < s.cpu.time_s, "{label}: manual wins");
            assert!(s.dynamic.time_s < s.cpu.time_s, "{label}: dynamic wins");
            assert!(s.serial.time_s > s.manual.time_s, "{label}: serial slower");
            assert!(s.dynamic.energy_j < s.cpu.energy_j, "{label}: energy wins");
        }
        // Consolidated time nearly flat while CPU time climbs steeply.
        let m1 = rows[0].setups.manual.time_s;
        let m4 = rows[3].setups.manual.time_s;
        assert!(m4 < 1.4 * m1, "manual flat: {m1} → {m4}");
        let cpu1 = rows[0].setups.cpu.time_s;
        let cpu4 = rows[3].setups.cpu.time_s;
        assert!(cpu4 > 2.0 * cpu1, "CPU climbs: {cpu1} → {cpu4}");
        // The biggest mix is the paper's headline: 19× speedup, 22×
        // energy savings; assert > 8× for shape.
        let speedup = rows[3].setups.cpu.time_s / rows[3].setups.dynamic.time_s;
        let saving = rows[3].setups.cpu.energy_j / rows[3].setups.dynamic.energy_j;
        assert!(speedup > 8.0, "5E+15M speedup {speedup:.1}");
        assert!(saving > 8.0, "5E+15M energy saving {saving:.1}");
    }
}
