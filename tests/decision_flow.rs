//! The Figure 6 decision flow, end to end and unforced: the backend
//! tracks pending requests, considers consolidation at the threshold,
//! predicts all three alternatives, and routes each group to the lowest
//! predicted energy — including CPU offload for GPU-hostile groups.

use std::sync::Arc;

use ewc_core::{Choice, Runtime, RuntimeConfig, Template};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::GpuConfig;
use ewc_workloads::{AesWorkload, MonteCarloWorkload, Workload};

fn submit(
    rt: &Runtime,
    name: &str,
    w: &Arc<dyn Workload>,
    seed: u64,
) -> (ewc_core::Frontend, ewc_workloads::registry::DeviceBuffers) {
    let mut fe = rt.connect();
    let bufs = fe.submit(name, w.as_ref(), seed).expect("submit");
    (fe, bufs)
}

fn runtime(threshold: u32) -> (Runtime, Arc<dyn Workload>, Arc<dyn Workload>) {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::tables78(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        threshold_factor: threshold,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .workload("montecarlo", Arc::clone(&mc))
    .template(Template::heterogeneous(
        "e+m",
        &["encryption", "montecarlo"],
    ))
    .template(Template::homogeneous("encryption"))
    .template(Template::homogeneous("montecarlo"))
    .build();
    (rt, aes, mc)
}

#[test]
fn single_cpu_friendly_kernel_is_offloaded_to_cpu() {
    let (rt, aes, _) = runtime(10);
    let (fe, bufs) = submit(&rt, "encryption", &aes, 0);
    fe.sync().unwrap();
    // Even when the CPU runs it, the result must land in the buffer the
    // frontend reads back.
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(0));
    let report = rt.shutdown();
    assert_eq!(report.stats.records.len(), 1);
    assert_eq!(
        report.stats.records[0].choice,
        Choice::Cpu,
        "{:?}",
        report.stats.records
    );
    assert_eq!(report.stats.cpu_executions, 1);
    assert_eq!(report.stats.launches, 0);
}

#[test]
fn single_gpu_friendly_kernel_stays_on_gpu() {
    let (rt, _, mc) = runtime(10);
    let (fe, bufs) = submit(&rt, "montecarlo", &mc, 0);
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, mc.expected_output(0));
    let report = rt.shutdown();
    assert_ne!(report.stats.records[0].choice, Choice::Cpu);
    assert!(report.stats.launches >= 1);
}

#[test]
fn large_enough_group_consolidates_on_gpu() {
    // 9 encryption instances: each alone favours the CPU, together the
    // GPU consolidation wins (Figure 1's whole point).
    let (rt, aes, _) = runtime(20);
    let mut sessions = Vec::new();
    for seed in 0..9 {
        sessions.push((submit(&rt, "encryption", &aes, seed), seed));
    }
    sessions[0].0 .0.sync().unwrap();
    for ((fe, bufs), seed) in &sessions {
        let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
        assert_eq!(out, aes.expected_output(*seed));
    }
    let report = rt.shutdown();
    let rec = &report.stats.records[0];
    assert_eq!(
        rec.choice,
        Choice::Consolidate,
        "records: {:?}",
        report.stats.records
    );
    assert_eq!(rec.kernels.len(), 9);
    assert_eq!(report.stats.consolidated_launches, 1);
}

#[test]
fn threshold_triggers_without_sync() {
    let (rt, _, mc) = runtime(3);
    let mut sessions = Vec::new();
    for seed in 0..3 {
        sessions.push(submit(&rt, "montecarlo", &mc, seed));
    }
    // No sync: give the backend a moment to pass the threshold. The
    // launches themselves are synchronous RPCs, so by the time the third
    // ticket is issued the backend has seen all three.
    let report = rt.shutdown(); // shutdown flushes whatever is left
    assert_eq!(
        report
            .stats
            .records
            .iter()
            .map(|r| r.kernels.len())
            .sum::<usize>(),
        3
    );
}

#[test]
fn prediction_recorded_alongside_actuals() {
    let (rt, _, mc) = runtime(10);
    let mut sessions = Vec::new();
    for seed in 0..4 {
        sessions.push(submit(&rt, "montecarlo", &mc, seed));
    }
    sessions[0].0.sync().unwrap();
    let report = rt.shutdown();
    for rec in &report.stats.records {
        assert!(rec.predicted_time_s > 0.0);
        assert!(rec.predicted_energy_j > 0.0);
        assert!(rec.actual_time_s > 0.0);
        if rec.choice != Choice::Cpu {
            // Model and reality should at least agree on the ballpark.
            let ratio = rec.predicted_time_s / rec.actual_time_s;
            assert!(
                (0.5..2.0).contains(&ratio),
                "prediction {} vs actual {}",
                rec.predicted_time_s,
                rec.actual_time_s
            );
        }
    }
}

#[test]
fn unknown_kernels_fall_back_to_individual_execution() {
    // Kernels with no matching template run one by one ("the backend
    // lets the kernels run normally").
    let cfg = GpuConfig::tesla_c1060();
    let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::tables78(&cfg));
    let rt = Runtime::builder(RuntimeConfig::default())
        .workload("montecarlo", Arc::clone(&mc))
        // No templates at all.
        .build();
    let a = submit(&rt, "montecarlo", &mc, 0);
    let b = submit(&rt, "montecarlo", &mc, 1);
    a.0.sync().unwrap();
    let out_a = a.0.memcpy_d2h(a.1.output, 0, a.1.output_len).unwrap();
    let out_b = b.0.memcpy_d2h(b.1.output, 0, b.1.output_len).unwrap();
    assert_eq!(out_a, mc.expected_output(0));
    assert_eq!(out_b, mc.expected_output(1));
    let report = rt.shutdown();
    assert_eq!(report.stats.records.len(), 2);
    assert!(report
        .stats
        .records
        .iter()
        .all(|r| r.template == "<individual>"));
    assert_eq!(report.stats.consolidated_launches, 0);
}

#[test]
fn scenario1_group_is_not_consolidated_by_the_models() {
    // The Table 2 pairing: the models must predict the consolidation is
    // harmful and pick an alternative.
    let cfg = GpuConfig::tesla_c1060();
    let enc: Arc<dyn Workload> = Arc::new(AesWorkload::scenario1(&cfg));
    let mc: Arc<dyn Workload> = Arc::new(MonteCarloWorkload::scenario1(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&enc))
    .workload("montecarlo", Arc::clone(&mc))
    .template(Template::heterogeneous(
        "e+m",
        &["encryption", "montecarlo"],
    ))
    .build();
    let a = submit(&rt, "encryption", &enc, 0);
    let _b = submit(&rt, "montecarlo", &mc, 1);
    a.0.sync().unwrap();
    let report = rt.shutdown();
    let rec = &report.stats.records[0];
    assert_eq!(
        rec.choice,
        Choice::SerialGpu,
        "bad consolidation must be rejected: {rec:?}"
    );
}

#[test]
fn frontend_misuse_is_reported_not_fatal() {
    let (rt, aes, _) = runtime(10);
    let mut fe = rt.connect();
    // Launch with a stale configuration from another kernel.
    fe.configure_call(1, 1).unwrap();
    assert!(fe.launch("encryption").is_err());
    // The runtime keeps working afterwards.
    let (fe2, bufs) = submit(&rt, "encryption", &aes, 7);
    fe2.sync().unwrap();
    let out = fe2.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(7));
    let _ = fe.setup_argument(KernelArg::U32(0));
}
