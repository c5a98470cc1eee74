//! Fermi concurrent-kernel study (the paper's Related Work contrast).
//!
//! "The Fermi GPUs can execute multiple kernels but these kernels must
//! be issued from the same process context... Our proposed strategy can
//! consolidate workload instances from different contexts."
//!
//! The study: M user processes each submit K small encryption kernels.
//!
//! * **serial** — pre-Fermi: every kernel runs alone (M·K launches);
//! * **fermi** — concurrent kernels *within* a process: each process's K
//!   kernels merge into one launch, but the M processes still serialise
//!   (M launches);
//! * **consolidated** — process-level consolidation: all M·K kernels in
//!   one launch (1 launch).
//!
//! With K small and M large — the data-centre shape — Fermi's
//! same-context sharing barely helps, while cross-process consolidation
//! stays flat: the quantitative version of the paper's argument that its
//! strategy "can complement future GPU architectures".

use ewc_energy::GpuSystemPower;
use ewc_gpu::{ConsolidatedGrid, GpuConfig, GpuDevice, Grid, LaunchConfig};
use ewc_workloads::{AesWorkload, Workload};

use crate::report::{joules, secs, Table};

/// One study point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of processes.
    pub processes: u32,
    /// Kernels per process.
    pub kernels_per_process: u32,
    /// Pre-Fermi serial time / energy.
    pub serial_s: f64,
    /// Serial energy (J).
    pub serial_j: f64,
    /// Fermi same-context concurrency time.
    pub fermi_s: f64,
    /// Fermi energy (J).
    pub fermi_j: f64,
    /// Cross-process consolidation time.
    pub consolidated_s: f64,
    /// Consolidation energy (J).
    pub consolidated_j: f64,
}

/// Launch `grids` back to back on a fresh `cfg` device and integrate
/// `sys`'s whole-system energy over the run, measurement noise seeded
/// by `noise_seed`: `(elapsed s, energy J)`. The future-hardware study
/// measures with it too.
pub(crate) fn launch_all(
    cfg: &GpuConfig,
    sys: &GpuSystemPower,
    grids: impl IntoIterator<Item = Grid>,
    noise_seed: u64,
) -> (f64, f64) {
    let mut gpu = GpuDevice::new(cfg.clone());
    for grid in grids {
        gpu.launch(&LaunchConfig::from_grid(grid))
            .expect("launch accepted");
    }
    let energy_j = sys
        .integrate(gpu.activity(), gpu.now_s(), Some(noise_seed))
        .energy_j;
    (gpu.now_s(), energy_j)
}

/// Simulate one configuration.
pub fn study(processes: u32, kernels_per_process: u32) -> Row {
    let cfg = GpuConfig::tesla_c1060();
    let sys = GpuSystemPower::tesla_system();
    let aes = AesWorkload::fig7(&cfg);
    let kernel = Grid::single(aes.desc(), aes.blocks());
    let total = processes * kernels_per_process;

    // Serial: M·K individual launches.
    let (serial_s, serial_j) = launch_all(&cfg, &sys, (0..total).map(|_| kernel.clone()), 1);
    // Fermi: one concurrent launch per process (kernels of one context
    // overlap), processes serialised.
    let (fermi_s, fermi_j) = launch_all(
        &cfg,
        &sys,
        (0..processes).map(|_| {
            ConsolidatedGrid::new()
                .add_copies(&kernel, kernels_per_process)
                .build()
        }),
        2,
    );
    // Cross-process consolidation: everything in one launch.
    let (consolidated_s, consolidated_j) = launch_all(
        &cfg,
        &sys,
        [ConsolidatedGrid::new().add_copies(&kernel, total).build()],
        3,
    );

    Row {
        processes,
        kernels_per_process,
        serial_s,
        serial_j,
        fermi_s,
        fermi_j,
        consolidated_s,
        consolidated_j,
    }
}

/// Sweep process counts at 2 kernels per process.
pub fn run() -> Vec<Row> {
    [1u32, 2, 3, 4, 5]
        .into_iter()
        .map(|m| study(m, 2))
        .collect()
}

/// Render the study.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "processes",
        "kernels",
        "serial (s)",
        "fermi (s)",
        "consol (s)",
        "serial",
        "fermi",
        "consol",
    ]);
    for r in rows {
        t.row(vec![
            r.processes.to_string(),
            (r.processes * r.kernels_per_process).to_string(),
            secs(r.serial_s),
            secs(r.fermi_s),
            secs(r.consolidated_s),
            joules(r.serial_j),
            joules(r.fermi_j),
            joules(r.consolidated_j),
        ]);
    }
    format!(
        "Fermi study: same-context concurrent kernels vs cross-process consolidation\n\
         (M processes × 2 encryption kernels each)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_equals_consolidation_for_one_process() {
        let r = study(1, 4);
        assert!((r.fermi_s - r.consolidated_s).abs() / r.consolidated_s < 0.01);
        assert!(r.serial_s > 3.0 * r.fermi_s);
    }

    #[test]
    fn fermi_degenerates_as_processes_multiply() {
        let rows = run();
        let m1 = &rows[0];
        let m5 = &rows[4];
        // Fermi grows ~linearly in M (processes serialise)…
        assert!(
            m5.fermi_s > 4.0 * m1.fermi_s,
            "{} vs {}",
            m5.fermi_s,
            m1.fermi_s
        );
        // …while consolidation stays flat (30 blocks fit the 30 SMs).
        assert!(m5.consolidated_s < 1.2 * m1.consolidated_s);
        // And consolidation dominates Fermi on energy for many processes.
        assert!(m5.consolidated_j < 0.5 * m5.fermi_j);
    }

    #[test]
    fn fermi_always_between_serial_and_consolidation() {
        for r in run() {
            assert!(r.fermi_s <= r.serial_s * 1.01, "{r:?}");
            assert!(r.consolidated_s <= r.fermi_s * 1.01, "{r:?}");
        }
    }
}
