//! The four execution setups every experiment compares (Section VIII):
//!
//! * **CPU** — all instances concurrently on the multicore under the OS
//!   scheduler (measured with the GPU "disconnected": CPU power model);
//! * **serial** — each instance's kernel launched on the GPU one after
//!   another, "the way current GPUs are typically used";
//! * **manual** — one hand-consolidated kernel, no framework overheads;
//! * **dynamic** — through the full frontend/backend runtime with its
//!   interception, staging and coordination costs.
//!
//! All GPU setups include host↔device transfer time in the measurement,
//! as the paper does, and verify every instance's output against the
//! host reference.

use std::collections::BTreeSet;
use std::sync::Arc;

use ewc_core::{Runtime, RuntimeConfig, RuntimeReport, Template};
use ewc_cpu::{CpuConfig, CpuEngine, CpuPowerModel};
use ewc_energy::GpuSystemPower;
use ewc_gpu::grid::Grid;
use ewc_gpu::kernel::LaunchConfig;
use ewc_gpu::{GpuConfig, GpuDevice};
use ewc_telemetry::TelemetrySink;
use ewc_workloads::instance_segment;

use crate::mix::Mix;

/// Outcome of one setup run.
#[derive(Debug, Clone)]
pub struct SetupResult {
    /// Total execution time (all instances started → all finished), s.
    pub time_s: f64,
    /// Whole-system energy, joules.
    pub energy_j: f64,
    /// Average system power, watts.
    pub avg_power_w: f64,
    /// Did every instance produce the host-reference output? (CPU setup
    /// reports true: it runs the same host code by construction.)
    pub correct: bool,
    /// Backend statistics (dynamic setup only).
    pub stats: Option<ewc_core::BackendStats>,
}

/// The four setups side by side.
#[derive(Debug, Clone)]
pub struct FourWay {
    /// Multicore CPU.
    pub cpu: SetupResult,
    /// GPU, one kernel after another.
    pub serial: SetupResult,
    /// GPU, hand-consolidated.
    pub manual: SetupResult,
    /// GPU, through the runtime framework.
    pub dynamic: SetupResult,
}

/// Run all four setups on a mix.
pub fn four_way(mix: &Mix) -> FourWay {
    FourWay {
        cpu: run_cpu(mix),
        serial: run_serial(mix),
        manual: run_manual(mix),
        dynamic: run_dynamic(mix),
    }
}

/// The CPU baseline.
pub fn run_cpu(mix: &Mix) -> SetupResult {
    let engine = CpuEngine::new(CpuConfig::xeon_e5520_x2());
    let tasks: Vec<_> = mix.instances.iter().map(|(_, w)| w.cpu_task()).collect();
    let out = engine.run(&tasks);
    let power = CpuPowerModel::xeon_e5520_x2();
    let energy = power.energy_j(&out);
    SetupResult {
        time_s: out.makespan_s,
        energy_j: energy,
        avg_power_w: power.avg_power_w(&out),
        correct: true,
        stats: None,
    }
}

/// GPU energy integration shared by the serial/manual setups.
fn gpu_energy(gpu: &GpuDevice, seed: u64) -> (f64, f64) {
    let sys = GpuSystemPower::tesla_system();
    let e = sys.integrate(gpu.activity(), gpu.now_s(), Some(seed));
    (e.energy_j, e.avg_power_w)
}

/// Serial GPU execution: launch each instance alone, in order.
pub fn run_serial(mix: &Mix) -> SetupResult {
    let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060());
    let mut correct = true;
    let mut outputs = Vec::new();
    for (i, (_, w)) in mix.instances.iter().enumerate() {
        let seed = i as u64;
        let (args, bufs) = w.build_args(&mut gpu, seed).expect("instance build");
        let mut grid = Grid::new();
        grid.push(instance_segment(w.as_ref(), args, i as u64));
        gpu.launch(&LaunchConfig::from_grid(grid)).expect("launch");
        outputs.push((bufs, seed));
    }
    for (i, (bufs, seed)) in outputs.iter().enumerate() {
        let (got, _) = gpu
            .memcpy_d2h(bufs.output, 0, bufs.output_len)
            .expect("readback");
        correct &= got == mix.instances[i].1.expected_output(*seed);
    }
    let time = gpu.now_s();
    let (energy, power) = gpu_energy(&gpu, mix.len() as u64 + 1);
    SetupResult {
        time_s: time,
        energy_j: energy,
        avg_power_w: power,
        correct,
        stats: None,
    }
}

/// Manual consolidation: all instances in one hand-built grid.
pub fn run_manual(mix: &Mix) -> SetupResult {
    let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060());
    let mut grid = Grid::new();
    let mut outputs = Vec::new();
    for (i, (_, w)) in mix.instances.iter().enumerate() {
        let seed = i as u64;
        let (args, bufs) = w.build_args(&mut gpu, seed).expect("instance build");
        grid.push(instance_segment(w.as_ref(), args, i as u64));
        outputs.push((bufs, seed));
    }
    if grid.total_blocks() > 0 {
        gpu.launch(&LaunchConfig::from_grid(grid)).expect("launch");
    }
    let mut correct = true;
    for (i, (bufs, seed)) in outputs.iter().enumerate() {
        let (got, _) = gpu
            .memcpy_d2h(bufs.output, 0, bufs.output_len)
            .expect("readback");
        correct &= got == mix.instances[i].1.expected_output(*seed);
    }
    let time = gpu.now_s();
    let (energy, power) = gpu_energy(&gpu, mix.len() as u64 + 2);
    SetupResult {
        time_s: time,
        energy_j: energy,
        avg_power_w: power,
        correct,
        stats: None,
    }
}

/// Dynamic consolidation through the runtime framework, with the default
/// optimisations.
pub fn run_dynamic(mix: &Mix) -> SetupResult {
    // The experiments submit their whole batch up front and measure one
    // consolidated drain, so the threshold is set above the largest mix
    // (the sync triggers the flush). The threshold mechanism itself is
    // exercised by the core crate's tests and the decision-flow
    // integration tests.
    run_dynamic_with(
        mix,
        RuntimeConfig {
            force_gpu: true,
            threshold_factor: 30,
            ..RuntimeConfig::default()
        },
    )
}

/// Dynamic consolidation with an explicit runtime configuration (the
/// ablation benches flip the optimisation toggles): [`run_batch`] with
/// the mix's own noise seed, as a [`SetupResult`].
pub fn run_dynamic_with(mix: &Mix, mut cfg: RuntimeConfig) -> SetupResult {
    if mix.is_empty() {
        return SetupResult {
            time_s: 0.0,
            energy_j: 0.0,
            avg_power_w: 0.0,
            correct: true,
            stats: None,
        };
    }
    cfg.noise_seed = Some(mix.len() as u64 + 3);
    let Batch { report, correct } = run_batch(cfg, TelemetrySink::disabled(), mix);
    SetupResult {
        time_s: report.elapsed_s,
        energy_j: report.energy.energy_j,
        avg_power_w: report.energy.avg_power_w,
        correct,
        stats: Some(report.stats),
    }
}

/// What one closed batch through the runtime left behind.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The runtime's shutdown report (stats, clock, energy, telemetry).
    pub report: RuntimeReport,
    /// Did every instance read back its host-reference output?
    pub correct: bool,
}

/// One closed batch through the runtime, the session every dynamic
/// experiment runs (Section VIII): register each distinct workload of
/// the mix, a heterogeneous template over all of them when there are
/// two or more, and a homogeneous template per workload; then one
/// frontend ("user process") per instance, seeded by its index, loads
/// the workload's constant data and submits. One sync drains the batch,
/// every output is read back and compared, and the runtime shuts down
/// while the frontends are still connected. Submission is sequential,
/// so the run is a function of `cfg` (its `noise_seed` included) and
/// the mix alone.
pub fn run_batch(cfg: RuntimeConfig, sink: TelemetrySink, mix: &Mix) -> Batch {
    let mut builder = Runtime::builder(cfg).telemetry(sink);
    let mut names: Vec<&str> = Vec::new();
    let mut seen = BTreeSet::new();
    for (name, w) in &mix.instances {
        if seen.insert(name.as_str()) {
            names.push(name);
            builder = builder.workload(name, Arc::clone(w));
        }
    }
    if names.len() >= 2 {
        builder = builder.template(Template::heterogeneous(&names.join("+"), &names));
    }
    for name in &names {
        builder = builder.template(Template::homogeneous(name));
    }
    let rt = builder.build();

    let mut handles = Vec::new();
    for (i, (name, w)) in mix.instances.iter().enumerate() {
        let mut fe = rt.connect();
        if let Some((key, data)) = w.constant_data() {
            fe.register_constant(key, &data)
                .expect("constant registration");
        }
        let bufs = fe.submit(name, w.as_ref(), i as u64).expect("submit");
        handles.push((fe, bufs));
    }
    if let Some((fe, _)) = handles.first() {
        fe.sync().expect("sync");
    }

    let mut correct = true;
    for (i, ((fe, bufs), (_, w))) in handles.iter().zip(&mix.instances).enumerate() {
        let got = fe
            .memcpy_d2h(bufs.output, 0, bufs.output_len)
            .expect("readback");
        correct &= got == w.expected_output(i as u64);
    }
    Batch {
        report: rt.shutdown(),
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewc_gpu::GpuConfig;

    #[test]
    fn all_setups_verify_encryption_outputs() {
        let cfg = GpuConfig::tesla_c1060();
        let mix = Mix::encryption(&cfg, 3);
        let fw = four_way(&mix);
        assert!(fw.cpu.correct && fw.serial.correct && fw.manual.correct && fw.dynamic.correct);
        assert!(
            fw.serial.time_s > fw.manual.time_s,
            "serial must be slower than manual"
        );
        assert!(
            fw.dynamic.time_s >= fw.manual.time_s,
            "framework overhead is non-negative"
        );
        assert!(fw.dynamic.stats.is_some());
    }

    #[test]
    fn serial_time_scales_linearly_manual_stays_flat() {
        let cfg = GpuConfig::tesla_c1060();
        let s1 = run_serial(&Mix::encryption(&cfg, 1)).time_s;
        let s4 = run_serial(&Mix::encryption(&cfg, 4)).time_s;
        assert!(s4 > 3.5 * s1, "serial: {s1} → {s4}");
        let m1 = run_manual(&Mix::encryption(&cfg, 1)).time_s;
        let m4 = run_manual(&Mix::encryption(&cfg, 4)).time_s;
        assert!(m4 < 1.2 * m1, "manual: {m1} → {m4}");
    }

    #[test]
    fn empty_mix_is_harmless() {
        let mix = Mix::new();
        assert_eq!(run_cpu(&mix).time_s, 0.0);
        assert_eq!(run_dynamic(&mix).time_s, 0.0);
        assert!(run_manual(&mix).correct);
    }

    #[test]
    fn heterogeneous_mix_runs_end_to_end() {
        let cfg = GpuConfig::tesla_c1060();
        let mix = Mix::encryption_montecarlo(&cfg, 1, 2);
        let d = run_dynamic(&mix);
        assert!(d.correct, "heterogeneous dynamic run must verify");
        let stats = d.stats.unwrap();
        assert!(stats.consolidated_launches >= 1);
    }
}
