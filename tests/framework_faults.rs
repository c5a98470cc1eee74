//! Fault injection: the framework must surface device and protocol
//! errors to the offending frontend without corrupting other users or
//! wedging the daemon.

use std::sync::Arc;

use ewc_core::{CoreError, Runtime, RuntimeConfig, Template};
use ewc_gpu::{GpuConfig, GpuError, KernelDesc};
use ewc_workloads::registry::DeviceBuffers;
use ewc_workloads::{AesWorkload, Workload};

fn runtime() -> (Runtime, Arc<dyn Workload>) {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();
    (rt, aes)
}

#[test]
fn device_oom_is_reported_and_survivable() {
    let (rt, aes) = runtime();
    let fe = rt.connect();
    // 8 GiB on a 4 GiB card.
    let err = fe.malloc(8 << 30).unwrap_err();
    assert!(
        matches!(err, CoreError::Gpu(GpuError::OutOfMemory { .. })),
        "got {err:?}"
    );
    // The daemon is still healthy: a normal user proceeds end to end.
    let mut fe2 = rt.connect();
    let bufs = fe2.submit("encryption", aes.as_ref(), 1).unwrap();
    fe2.sync().unwrap();
    let out = fe2.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(1));
}

#[test]
fn invalid_pointer_operations_are_rejected() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    let bogus = ewc_gpu::DevicePtr(0xdead_0000);
    assert!(matches!(
        fe.memcpy_h2d(bogus, 0, &[1, 2, 3]).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));
    assert!(matches!(
        fe.memcpy_d2h(bogus, 0, 4).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));
    assert!(matches!(
        fe.free(bogus).unwrap_err(),
        CoreError::Gpu(GpuError::InvalidPointer(_))
    ));
}

#[test]
fn out_of_bounds_copies_are_rejected() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    let p = fe.malloc(16).unwrap();
    assert!(matches!(
        fe.memcpy_h2d(p, 8, &[0u8; 16]).unwrap_err(),
        CoreError::Gpu(GpuError::OutOfBounds { .. })
    ));
    assert!(matches!(
        fe.memcpy_d2h(p, 0, 17).unwrap_err(),
        CoreError::Gpu(GpuError::OutOfBounds { .. })
    ));
    // In-bounds copies still work afterwards.
    fe.memcpy_h2d(p, 0, &[7u8; 16]).unwrap();
    assert_eq!(fe.memcpy_d2h(p, 0, 16).unwrap(), vec![7u8; 16]);
}

#[test]
fn double_free_is_an_error_not_a_crash() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    let p = fe.malloc(64).unwrap();
    fe.free(p).unwrap();
    assert!(fe.free(p).is_err());
}

#[test]
fn frontends_outliving_the_runtime_fail_gracefully() {
    let (rt, _) = runtime();
    let fe = rt.connect();
    drop(rt); // shuts the backend down
    assert!(matches!(
        fe.malloc(16).unwrap_err(),
        CoreError::Disconnected
    ));
    assert!(matches!(fe.sync().unwrap_err(), CoreError::Disconnected));
}

/// A kernel demanding more shared memory per block than any SM has:
/// schedulable nowhere, rejected at enqueue time.
struct SharedMemHog;

impl Workload for SharedMemHog {
    fn name(&self) -> &'static str {
        "hog"
    }
    fn desc(&self) -> KernelDesc {
        KernelDesc::builder("hog")
            .threads_per_block(64)
            .shared_mem_per_block(1 << 30)
            .comp_insts(10.0)
            .build()
    }
    fn blocks(&self) -> u32 {
        1
    }
    fn cpu_task(&self) -> ewc_cpu::CpuTask {
        ewc_cpu::CpuTask::new("hog", 0.1, 1, 0)
    }
    fn h2d_bytes(&self) -> u64 {
        0
    }
    fn d2h_bytes(&self) -> u64 {
        4
    }
    fn body(&self) -> ewc_gpu::kernel::BlockFn {
        Arc::new(|_, _| {})
    }
    fn build_args(
        &self,
        gpu: &mut dyn ewc_gpu::DeviceAlloc,
        _seed: u64,
    ) -> Result<(Vec<ewc_gpu::kernel::KernelArg>, DeviceBuffers), GpuError> {
        let out = gpu.alloc_bytes(4)?;
        Ok((
            vec![ewc_gpu::kernel::KernelArg::Ptr(out)],
            DeviceBuffers {
                input: out,
                output: out,
                output_len: 4,
            },
        ))
    }
    fn expected_output(&self, _seed: u64) -> Vec<u8> {
        vec![0; 4]
    }
}

#[test]
fn unschedulable_kernel_rejected_at_launch_others_complete() {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .workload("hog", Arc::new(SharedMemHog))
    .template(Template::homogeneous("encryption"))
    .build();

    let mut hog_fe = rt.connect();
    let hog = SharedMemHog;
    let (args, _bufs) = hog.build_args(&mut hog_fe, 0).unwrap();
    hog_fe
        .configure_call(hog.blocks(), hog.desc().threads_per_block)
        .unwrap();
    for a in &args {
        hog_fe.setup_argument(*a).unwrap();
    }
    let err = hog_fe.launch("hog").unwrap_err();
    assert!(
        matches!(err, CoreError::Gpu(GpuError::Unschedulable(_))),
        "got {err:?}"
    );

    // The rejection never reached the pending queue; another frontend's
    // work completes normally.
    let mut fe = rt.connect();
    let bufs = fe.submit("encryption", aes.as_ref(), 4).unwrap();
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(4));
    let report = rt.shutdown();
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 1, "only the schedulable launch executed");
}

#[test]
fn disconnected_frontend_pending_work_is_drained_not_wedged() {
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .telemetry(ewc_telemetry::TelemetrySink::enabled())
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();

    // fe1 enqueues a launch, then its "process" dies before syncing.
    let mut fe1 = rt.connect();
    fe1.submit("encryption", aes.as_ref(), 1).unwrap();
    drop(fe1);

    // fe2's work completes; fe1's orphaned launch must not wedge the
    // daemon or execute on its behalf.
    let mut fe2 = rt.connect();
    let bufs = fe2.submit("encryption", aes.as_ref(), 2).unwrap();
    fe2.sync().unwrap();
    let out = fe2.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(2));

    let report = rt.shutdown();
    assert_eq!(report.stats.drained_requests, 1);
    assert_eq!(report.stats.reaped_frontends, 1);
    let executed: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(executed, 1, "the orphaned launch must not execute");
    let audit = report.telemetry.expect("sink attached").audit;
    assert!(
        audit
            .iter()
            .any(|r| r.verdict == ewc_telemetry::Verdict::Drained),
        "drain must be audited: {audit:?}"
    );
}

#[test]
fn failed_launch_does_not_leave_stale_pending_state() {
    let (rt, aes) = runtime();
    let mut fe = rt.connect();
    // Bad configuration → rejected launch.
    fe.configure_call(1, 1).unwrap();
    assert!(matches!(
        fe.launch("encryption").unwrap_err(),
        CoreError::BadConfiguration { .. }
    ));
    // A correct launch from the same context then succeeds and the sync
    // completes without the rejected kernel haunting the queue.
    let bufs = fe.submit("encryption", aes.as_ref(), 9).unwrap();
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(9));
    let report = rt.shutdown();
    let total: usize = report.stats.records.iter().map(|r| r.kernels.len()).sum();
    assert_eq!(total, 1, "only the valid launch executed");
}

#[test]
fn rejected_launch_without_batching_drops_its_arguments() {
    // With argument batching off, `setup_argument` values accumulate in
    // the backend. A launch it rejects must take them with it, or the
    // context's next launch runs on the rejected one's buffers.
    let cfg = GpuConfig::tesla_c1060();
    let aes: Arc<dyn Workload> = Arc::new(AesWorkload::fig7(&cfg));
    let rt = Runtime::builder(RuntimeConfig {
        argument_batching: false,
        force_gpu: true,
        ..RuntimeConfig::default()
    })
    .workload("encryption", Arc::clone(&aes))
    .template(Template::homogeneous("encryption"))
    .build();
    let mut fe = rt.connect();
    let (stale, _) = aes.build_args(&mut fe, 8).unwrap();
    fe.configure_call(1, 1).unwrap();
    for a in &stale {
        fe.setup_argument(*a).unwrap();
    }
    assert!(matches!(
        fe.launch("encryption").unwrap_err(),
        CoreError::BadConfiguration { .. }
    ));
    let bufs = fe.submit("encryption", aes.as_ref(), 9).unwrap();
    fe.sync().unwrap();
    let out = fe.memcpy_d2h(bufs.output, 0, bufs.output_len).unwrap();
    assert_eq!(out, aes.expected_output(9));
}
