//! Device-boundary fault injection hooks.
//!
//! The simulator is the ideal place to rehearse hardware misbehaviour:
//! every operation already flows through one stateful façade
//! ([`crate::GpuDevice`]), so a single injector attached there can turn
//! any malloc, DMA transfer or kernel launch into a fault — with the
//! simulated clock charging the time the failure wasted, exactly as a
//! real device would burn wall time before a watchdog fired.
//!
//! The trait is deliberately defined *here* (the lowest layer) and
//! implemented elsewhere (the `ewc-load` crate's `SharedFaultPlan`
//! wraps its deterministic, seed-driven `FaultPlan`): the device knows
//! nothing about schedules or probabilities, it only asks "does this
//! operation fault, and how?".

use std::sync::Arc;

/// One injected device fault, interpreted by the device at the faulted
/// operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFault {
    /// The allocation fails as if global memory were exhausted.
    Oom,
    /// The DMA transfer burns its full transfer time, then fails (a
    /// parity/CRC-style error detected at completion).
    TransferFail,
    /// The DMA engine stalls for `extra_s` seconds before the transfer
    /// completes normally (link retraining, contention).
    TransferStall {
        /// Extra stall time charged to the device clock, seconds.
        extra_s: f64,
    },
    /// The kernel never completes. The device clock advances by
    /// `watchdog_s` — the simulated watchdog deadline — and the launch
    /// returns [`crate::GpuError::LaunchTimeout`].
    Hang {
        /// Time the watchdog waits before killing the launch, seconds.
        watchdog_s: f64,
    },
    /// The SMs run transiently degraded (thermal throttling, ECC
    /// scrubbing): the launch completes correctly but takes `slowdown`
    /// times as long.
    DegradedSms {
        /// Elapsed-time multiplier, ≥ 1.
        slowdown: f64,
    },
}

/// Decides whether a device operation faults.
///
/// Implementations are shared between the backend thread and test
/// harnesses, so methods take `&self`; implementors provide their own
/// interior mutability (the reference implementation wraps a mutex).
/// Returning `None` means the operation proceeds normally.
pub trait DeviceFaultInjector: Send + Sync {
    /// Called before each global-memory allocation.
    fn on_malloc(&self, len: u64) -> Option<DeviceFault>;
    /// Called before each DMA transfer (either direction).
    fn on_transfer(&self, bytes: u64) -> Option<DeviceFault>;
    /// Called before each kernel launch.
    fn on_launch(&self, blocks: u32) -> Option<DeviceFault>;
}

/// A shareable injector handle (one plan can serve several devices).
pub type FaultInjectorHandle = Arc<dyn DeviceFaultInjector>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::device::GpuDevice;
    use crate::error::GpuError;
    use crate::kernel::{KernelDesc, LaunchConfig};
    use std::sync::Mutex;

    /// Scripted injector: pops faults per site in order.
    struct Script {
        mallocs: Mutex<Vec<Option<DeviceFault>>>,
        transfers: Mutex<Vec<Option<DeviceFault>>>,
        launches: Mutex<Vec<Option<DeviceFault>>>,
    }

    impl Script {
        fn new(
            mallocs: Vec<Option<DeviceFault>>,
            transfers: Vec<Option<DeviceFault>>,
            launches: Vec<Option<DeviceFault>>,
        ) -> Arc<Self> {
            Arc::new(Script {
                mallocs: Mutex::new(mallocs),
                transfers: Mutex::new(transfers),
                launches: Mutex::new(launches),
            })
        }
        fn pop(v: &Mutex<Vec<Option<DeviceFault>>>) -> Option<DeviceFault> {
            let mut v = v.lock().unwrap();
            if v.is_empty() {
                None
            } else {
                v.remove(0)
            }
        }
    }

    impl DeviceFaultInjector for Script {
        fn on_malloc(&self, _len: u64) -> Option<DeviceFault> {
            Self::pop(&self.mallocs)
        }
        fn on_transfer(&self, _bytes: u64) -> Option<DeviceFault> {
            Self::pop(&self.transfers)
        }
        fn on_launch(&self, _blocks: u32) -> Option<DeviceFault> {
            Self::pop(&self.launches)
        }
    }

    fn kernel() -> KernelDesc {
        KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1000.0)
            .build()
    }

    #[test]
    fn injected_oom_fails_malloc_then_clears() {
        let script = Script::new(vec![Some(DeviceFault::Oom), None], vec![], vec![]);
        let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060())
            .with_fault_injector(script as FaultInjectorHandle);
        let err = gpu.malloc(64).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { requested: 64, .. }));
        // The next (clean) attempt succeeds: the fault was transient.
        gpu.malloc(64).unwrap();
    }

    #[test]
    fn transfer_fail_burns_time_and_errors() {
        let script = Script::new(vec![], vec![Some(DeviceFault::TransferFail), None], vec![]);
        let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060())
            .with_fault_injector(script as FaultInjectorHandle);
        let p = gpu.malloc(1024).unwrap();
        let t0 = gpu.now_s();
        let err = gpu.memcpy_h2d(p, 0, &[1u8; 1024]).unwrap_err();
        assert_eq!(err, GpuError::TransferFault);
        assert!(gpu.now_s() > t0, "failed DMA still burned link time");
        // Retry succeeds and the data lands.
        gpu.memcpy_h2d(p, 0, &[2u8; 1024]).unwrap();
        assert_eq!(gpu.memory().read(p, 0, 4).unwrap(), &[2u8; 4][..]);
    }

    #[test]
    fn transfer_stall_adds_exact_extra_time() {
        let script = Script::new(
            vec![],
            vec![Some(DeviceFault::TransferStall { extra_s: 0.5 })],
            vec![],
        );
        let mut clean = GpuDevice::new(GpuConfig::tesla_c1060());
        let mut faulty = GpuDevice::new(GpuConfig::tesla_c1060())
            .with_fault_injector(script as FaultInjectorHandle);
        let pc = clean.malloc(1024).unwrap();
        let pf = faulty.malloc(1024).unwrap();
        clean.memcpy_h2d(pc, 0, &[0u8; 1024]).unwrap();
        faulty.memcpy_h2d(pf, 0, &[0u8; 1024]).unwrap();
        assert!((faulty.now_s() - clean.now_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hang_charges_watchdog_time_and_times_out() {
        let script = Script::new(
            vec![],
            vec![],
            vec![Some(DeviceFault::Hang { watchdog_s: 2.0 }), None],
        );
        let mut gpu = GpuDevice::new(GpuConfig::tesla_c1060())
            .with_fault_injector(script as FaultInjectorHandle);
        let t0 = gpu.now_s();
        let err = gpu.launch(&LaunchConfig::single(kernel(), 4)).unwrap_err();
        assert_eq!(err, GpuError::LaunchTimeout);
        assert!((gpu.now_s() - t0 - 2.0).abs() < 1e-12);
        assert_eq!(gpu.launch_count(), 0, "a hung launch never completed");
        // The retry goes through.
        gpu.launch(&LaunchConfig::single(kernel(), 4)).unwrap();
        assert_eq!(gpu.launch_count(), 1);
    }

    #[test]
    fn degraded_sms_stretch_elapsed_time() {
        let script = Script::new(
            vec![],
            vec![],
            vec![Some(DeviceFault::DegradedSms { slowdown: 3.0 })],
        );
        let mut clean = GpuDevice::new(GpuConfig::tesla_c1060());
        let mut faulty = GpuDevice::new(GpuConfig::tesla_c1060())
            .with_fault_injector(script as FaultInjectorHandle);
        let a = clean.launch(&LaunchConfig::single(kernel(), 4)).unwrap();
        let b = faulty.launch(&LaunchConfig::single(kernel(), 4)).unwrap();
        let overhead = clean.config().launch_overhead_s;
        let clean_kernel_s = a.elapsed_s - overhead;
        assert!(
            (b.elapsed_s - overhead - 3.0 * clean_kernel_s).abs() < 1e-9,
            "degraded run should be 3x the kernel time: {} vs {}",
            b.elapsed_s,
            a.elapsed_s
        );
    }
}
