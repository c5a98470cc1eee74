//! Future-hardware study (extension): does consolidation still pay on a
//! Fermi-class device?
//!
//! "Despite upcoming technical advances in GPUs, our process-level
//! consolidation is an energy efficient strategy and can complement
//! future GPU architectures" — the paper's closing claim, tested here by
//! replaying the Figure 7 encryption sweep on a Tesla C2050 simulation
//! (fewer/fatter SMs, 4× arithmetic rate, better perf/W). The kernels
//! are the same PTX-level descriptors; the hardware is the variable.

use ewc_energy::{GpuPowerGroundTruth, GpuSystemPower};
use ewc_gpu::{ConsolidatedGrid, GpuConfig, Grid};
use ewc_workloads::{AesWorkload, Workload};

use super::fermi::launch_all;
use crate::report::{joules, ratio, secs, Table};

/// One device's serial vs consolidated numbers.
#[derive(Debug, Clone)]
pub struct Row {
    /// Device label.
    pub device: &'static str,
    /// Instances consolidated.
    pub n: u32,
    /// Serial execution time.
    pub serial_s: f64,
    /// Consolidated execution time.
    pub consolidated_s: f64,
    /// Serial energy.
    pub serial_j: f64,
    /// Consolidated energy.
    pub consolidated_j: f64,
    /// Energy saving factor.
    pub saving: f64,
}

fn system_for(device: &str) -> GpuSystemPower {
    let mut sys = GpuSystemPower::tesla_system();
    if device == "C2050" {
        sys.truth = GpuPowerGroundTruth::tesla_c2050();
    }
    sys
}

fn study(device: &'static str, cfg: &GpuConfig, n: u32) -> Row {
    // The same kernel binary, whatever the hardware.
    let aes = AesWorkload::fig7(&GpuConfig::tesla_c1060());
    let kernel = Grid::single(aes.desc(), aes.blocks());
    let sys = system_for(device);

    let (serial_s, serial_j) = launch_all(cfg, &sys, (0..n).map(|_| kernel.clone()), 1);
    let (consolidated_s, consolidated_j) = launch_all(
        cfg,
        &sys,
        [ConsolidatedGrid::new().add_copies(&kernel, n).build()],
        2,
    );

    Row {
        device,
        n,
        serial_s,
        consolidated_s,
        serial_j,
        consolidated_j,
        saving: serial_j / consolidated_j,
    }
}

/// Run the study on both device generations.
pub fn run(n: u32) -> Vec<Row> {
    vec![
        study("C1060", &GpuConfig::tesla_c1060(), n),
        study("C2050", &GpuConfig::tesla_c2050(), n),
    ]
}

/// Render the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "device",
        "n",
        "serial (s)",
        "consol (s)",
        "serial E",
        "consol E",
        "saving",
    ]);
    for r in rows {
        t.row(vec![
            r.device.into(),
            r.n.to_string(),
            secs(r.serial_s),
            secs(r.consolidated_s),
            joules(r.serial_j),
            joules(r.consolidated_j),
            ratio(r.saving),
        ]);
    }
    format!(
        "Future-hardware study: the Figure 7 consolidation on GT200 vs Fermi silicon\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_still_pays_on_fermi() {
        let rows = run(9);
        let c1060 = &rows[0];
        let c2050 = &rows[1];
        // The kernels run much faster on Fermi…
        assert!(c2050.serial_s < 0.5 * c1060.serial_s);
        // …but serialised small kernels still waste the idle floor, so
        // consolidation keeps a clear energy win on both generations.
        assert!(c1060.saving > 2.0, "GT200 saving {:.2}", c1060.saving);
        assert!(c2050.saving > 2.0, "Fermi saving {:.2}", c2050.saving);
    }

    #[test]
    fn fermi_has_fewer_sms_so_consolidation_saturates_sooner() {
        // 9 × 3 = 27 blocks: under-subscribes the C1060's 30 SMs, but
        // wraps over the C2050's 14 SMs — consolidated time exceeds one
        // instance's time there, yet stays far below serial.
        let rows = run(9);
        let c2050 = &rows[1];
        let single = study("C2050", &GpuConfig::tesla_c2050(), 1);
        assert!(c2050.consolidated_s > 1.5 * single.consolidated_s);
        assert!(c2050.consolidated_s < 0.5 * c2050.serial_s);
    }
}
