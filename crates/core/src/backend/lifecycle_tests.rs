//! The lifecycle invariant: however a context leaves, the backend
//! holds nothing of it afterwards — no record, no queued launch, no
//! governor binding — and whatever it owned is accounted for.

use std::sync::Arc;

use ewc_fleet::FleetConfig;
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DeviceFault, DeviceFaultInjector, GpuConfig};
use ewc_workloads::{AesWorkload, Workload};

use super::Backend;
use crate::admission::{AdmissionConfig, ShedCause};
use crate::frontend::Frontend;
use crate::protocol::CoreError;
use crate::resilience::ResiliencePolicy;
use crate::runtime::RuntimeBuilder;
use crate::{Runtime, RuntimeConfig, Template};

const DEVICE_BYTES: u64 = 1 << 20;

/// A runtime on `cfg` that flushes only at syncs, with 1 MiB devices
/// and the AES kernel registered.
fn runtime(cfg: RuntimeConfig) -> RuntimeBuilder {
    Runtime::builder(RuntimeConfig {
        threshold_factor: 1_000_000,
        force_gpu: true,
        ..cfg
    })
    .gpu_config(GpuConfig {
        global_mem_bytes: DEVICE_BYTES,
        ..GpuConfig::tesla_c1060()
    })
    .workload("encryption", aes())
    .template(Template::homogeneous("encryption"))
}

fn aes() -> Arc<dyn Workload> {
    Arc::new(AesWorkload::fig7(&GpuConfig::tesla_c1060()))
}

/// Submit one AES instance; returns its launch's sequence number.
fn launch(rt: &Runtime, fe: &mut Frontend) -> u64 {
    fe.submit("encryption", aes().as_ref(), 1).unwrap();
    inspect(rt, |b| b.next_seq - 1)
}

fn inspect<T>(rt: &Runtime, look: impl FnOnce(&Backend) -> T) -> T {
    look(rt.backend().lock().unwrap().as_ref().unwrap())
}

/// Drop `fe`; afterwards the backend must hold no trace of its context.
fn depart(rt: &Runtime, fe: Frontend) {
    let ctx = fe.ctx();
    assert!(
        inspect(rt, |b| b.contexts.contains_key(&ctx)),
        "ctx {ctx} should have a record while connected"
    );
    drop(fe);
    inspect(rt, |b| {
        assert!(!b.contexts.contains_key(&ctx), "record of ctx {ctx} left");
        assert!(b.pending.iter().all(|r| r.ctx != ctx), "launch left queued");
    });
}

/// Every device is empty and no context is live on it.
fn assert_devices_clean(rt: &Runtime) {
    inspect(rt, |b| {
        assert!(b.contexts.is_empty() && b.pending.is_empty());
        assert!(b.queued_on.iter().all(|&n| n == 0), "{:?}", b.queued_on);
        for (d, gpu) in b.gpus.iter().enumerate() {
            let capacity = gpu.config().global_mem_bytes;
            assert_eq!(gpu.memory().free_bytes(), capacity, "gpu{d} leaked");
            assert_eq!(b.fleet.live(d), 0, "gpu{d} still counts a context");
        }
    });
}

#[test]
fn clean_disconnect() {
    let rt = runtime(RuntimeConfig::default()).build();
    let mut fe = rt.connect();
    launch(&rt, &mut fe);
    fe.sync().unwrap();
    depart(&rt, fe);
    assert_devices_clean(&rt);
    let stats = rt.shutdown().stats;
    assert_eq!((stats.drained_requests, stats.reaped_frontends), (0, 0));
}

#[test]
fn a_frontend_that_never_spoke_leaves_nothing_to_reap() {
    let rt = runtime(RuntimeConfig::default()).build();
    drop(rt.connect());
    let fe = rt.connect();
    fe.sync().unwrap(); // a message, but nothing that needs a record
    drop(fe);
    assert_devices_clean(&rt);
}

#[test]
fn disconnect_with_queued_launches() {
    let rt = runtime(RuntimeConfig::default()).build();
    let (mut fe, mut peer) = (rt.connect(), rt.connect());
    launch(&rt, &mut fe);
    launch(&rt, &mut fe);
    launch(&rt, &mut peer);
    depart(&rt, fe);
    inspect(&rt, |b| assert_eq!(b.pending.len(), 1, "the peer's stays"));
    peer.sync().unwrap();
    depart(&rt, peer);
    assert_devices_clean(&rt);
    let stats = rt.shutdown().stats;
    assert_eq!((stats.drained_requests, stats.reaped_frontends), (2, 1));
    assert_eq!(stats.kernel_outcomes.len(), 1);
}

#[test]
fn rejected_launch_without_argument_batching() {
    let rt = runtime(RuntimeConfig {
        argument_batching: false,
        ..RuntimeConfig::default()
    })
    .build();
    let mut fe = rt.connect();
    fe.configure_call(99, 64).unwrap();
    fe.setup_argument(KernelArg::U32(7)).unwrap();
    assert!(matches!(
        fe.launch("encryption"),
        Err(CoreError::BadConfiguration(_))
    ));
    // The forwarded argument went with the launch it was meant for.
    inspect(&rt, |b| assert!(b.contexts[&fe.ctx()].args.is_empty()));
    depart(&rt, fe);
    assert_devices_clean(&rt);
}

#[test]
fn age_shed_request_whose_notice_was_never_collected() {
    let rt = runtime(RuntimeConfig {
        max_pending_wait_s: 1e9,
        admission: Some(AdmissionConfig {
            shed_age_s: 1.0,
            ..AdmissionConfig::default()
        }),
        ..RuntimeConfig::default()
    })
    .build();
    let mut fe = rt.connect();
    let seq = launch(&rt, &mut fe);
    fe.advance_clock_by(2.0).unwrap();
    inspect(&rt, |b| {
        assert!(b.pending.is_empty(), "aged out");
        let notice = CoreError::Shed {
            seq: Some(seq),
            cause: ShedCause::QueueAge,
        };
        assert_eq!(b.contexts[&fe.ctx()].failures, [(seq, notice)]);
    });
    depart(&rt, fe);
    assert_devices_clean(&rt);
    let stats = rt.shutdown().stats;
    assert_eq!((stats.shed_queue_age, stats.undelivered_failures), (1, 1));
}

/// Every launch on the device it is attached to hangs.
struct AlwaysHangs;

impl DeviceFaultInjector for AlwaysHangs {
    fn on_malloc(&self, _: u64) -> Option<DeviceFault> {
        None
    }
    fn on_transfer(&self, _: u64) -> Option<DeviceFault> {
        None
    }
    fn on_launch(&self, _: u32) -> Option<DeviceFault> {
        Some(DeviceFault::Hang { watchdog_s: 1.0 })
    }
}

/// Two cards, gpu0 permanently sick with a breaker that trips at the
/// first fault: the first context lands on gpu0, its first group trips
/// the breaker and runs on the CPU, its second is drained to gpu1.
/// `gpu1_registers` sizes the healthy card's register file.
fn sick_gpu0(gpu1_registers: u32) -> Runtime {
    let mut fleet = FleetConfig::homogeneous(2);
    for spec in &mut fleet.devices {
        spec.gpu.global_mem_bytes = DEVICE_BYTES;
    }
    fleet.devices[1].gpu.registers_per_sm = gpu1_registers;
    runtime(RuntimeConfig {
        resilience: ResiliencePolicy {
            max_gpu_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_s: 1e6,
            ..ResiliencePolicy::default()
        },
        fleet: Some(fleet),
        ..RuntimeConfig::default()
    })
    .device_faults(Arc::new(AlwaysHangs))
    .device_fault_targets(vec![0])
    .build()
}

#[test]
fn migrated_then_dropped() {
    let rt = sick_gpu0(GpuConfig::tesla_c1060().registers_per_sm);
    let mut fe = rt.connect();
    launch(&rt, &mut fe);
    fe.sync().unwrap();
    launch(&rt, &mut fe);
    fe.sync().unwrap();
    inspect(&rt, |b| {
        let record = &b.contexts[&fe.ctx()];
        assert_eq!(record.device, Some(1), "drained to gpu1");
        assert_eq!(record.remap.len(), record.allocs.len());
        assert_eq!(b.gpus[0].memory().free_bytes(), DEVICE_BYTES);
    });
    depart(&rt, fe);
    assert_devices_clean(&rt);
    let stats = rt.shutdown().stats;
    assert_eq!((stats.migrations, stats.failed_kernels), (1, 0));
}

#[test]
fn permanently_failed_kernel_whose_owner_never_synced() {
    // gpu1 cannot hold one AES block (256 threads × 20 registers): the
    // launch passed validation against gpu0, was drained to gpu1 with
    // its context, and fails there permanently.
    let rt = sick_gpu0(1024);
    let (mut fe, witness) = (rt.connect(), rt.connect());
    launch(&rt, &mut fe);
    fe.sync().unwrap();
    let seq = launch(&rt, &mut fe);
    witness.sync().unwrap(); // somebody else's sync runs the group
    inspect(&rt, |b| {
        let failures = &b.contexts[&fe.ctx()].failures;
        assert!(
            matches!(failures.front(), Some((s, CoreError::KernelFailed { .. })) if *s == seq),
            "{failures:?}"
        );
    });
    depart(&rt, fe);
    drop(witness);
    assert_devices_clean(&rt);
    let stats = rt.shutdown().stats;
    assert_eq!((stats.failed_kernels, stats.undelivered_failures), (1, 1));
}
