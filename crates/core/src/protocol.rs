//! Types shared by the frontend and the backend: the errors a frontend
//! call can answer with, the captured execution configuration, and the
//! queued kernel launch.
//!
//! Each intercepted API call (`cudaMalloc`, `cudaMemcpy`,
//! `cudaConfigureCall`, `cudaSetupArgument`, `cudaLaunch`, …) is one
//! method on the backend and one charged message; the answer is the
//! method's return value.

use std::fmt;
use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{GpuError, KernelDesc};
use ewc_workloads::Workload;

use crate::admission::{Priority, ShedCause};

/// Errors surfaced to frontends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Device-side failure.
    Gpu(GpuError),
    /// `launch` was called for a kernel name the backend has no
    /// precompiled template/registration for.
    UnknownKernel(String),
    /// `launch` without a preceding `configure_call`.
    NotConfigured,
    /// The execution configuration does not match the registered kernel.
    BadConfiguration {
        /// What `configure_call` captured.
        configured: ExecConfig,
        /// What the kernel was registered with.
        registered: ExecConfig,
    },
    /// The backend is gone: the runtime was shut down or dropped, or a
    /// panic inside the backend poisoned it.
    Disconnected,
    /// A previously enqueued kernel launch could not be completed by any
    /// rung of the degradation ladder (retry, serial re-dispatch, CPU
    /// fallback). Reported at the next `sync` of the submitting context;
    /// `seq` is the ticket the original `launch` returned.
    KernelFailed {
        /// Ticket (sequence number) of the failed launch.
        seq: u64,
        /// The underlying device error.
        gpu: GpuError,
    },
    /// Backpressure: the admission controller refused this launch
    /// attempt. The frontend should retry after (roughly) the hinted
    /// delay with seeded jitter; the backend sheds permanently after
    /// `busy_retry_limit` attempts. Times are integer microseconds on
    /// the virtual clock (this enum is `Eq`).
    Busy {
        /// Suggested retry delay, microseconds.
        retry_after_us: u64,
        /// Why this attempt was refused.
        cause: ShedCause,
    },
    /// The request was shed permanently by the admission controller:
    /// either a launch exhausted its `Busy` retries, or a queued launch
    /// (`seq = Some`) aged past its deadline and was dropped
    /// CoDel-style before dispatch (reported at the next `sync`).
    Shed {
        /// Ticket of the shed launch, when it had already been queued.
        seq: Option<u64>,
        /// Why it was shed.
        cause: ShedCause,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Gpu(e) => write!(f, "device error: {e}"),
            CoreError::UnknownKernel(k) => write!(f, "unknown kernel '{k}'"),
            CoreError::NotConfigured => write!(f, "launch without configure_call"),
            CoreError::BadConfiguration {
                configured: c,
                registered: r,
            } => write!(
                f,
                "bad execution configuration: configured {}x{}, registered {}x{}",
                c.grid_blocks, c.threads_per_block, r.grid_blocks, r.threads_per_block
            ),
            CoreError::Disconnected => write!(f, "backend disconnected"),
            CoreError::KernelFailed { seq, gpu } => {
                write!(f, "kernel launch (ticket {seq}) failed: {gpu}")
            }
            CoreError::Busy {
                retry_after_us,
                cause,
            } => {
                write!(
                    f,
                    "backend busy ({}); retry after {retry_after_us} us",
                    cause.label()
                )
            }
            CoreError::Shed { seq, cause } => match seq {
                Some(seq) => write!(f, "request (ticket {seq}) shed: {}", cause.label()),
                None => write!(f, "request shed at admission: {}", cause.label()),
            },
        }
    }
}

impl std::error::Error for CoreError {}

impl From<GpuError> for CoreError {
    fn from(e: GpuError) -> Self {
        CoreError::Gpu(e)
    }
}

/// Execution configuration captured by `configure_call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Grid size in blocks.
    pub grid_blocks: u32,
    /// Block size in threads.
    pub threads_per_block: u32,
}

/// A registered kernel: everything the launch path needs of a
/// [`Workload`], resolved once at registration, so a queued request
/// carries one shared pointer and enqueue, assessment and every launch
/// attempt read fields.
pub struct RegisteredKernel {
    /// The name the kernel was registered (and is launched) under,
    /// interned: requests, outcomes and audit records share it.
    pub name: Arc<str>,
    /// GPU cost descriptor of one kernel.
    pub desc: KernelDesc,
    /// Thread blocks per instance.
    pub blocks: u32,
    /// The functional kernel body.
    pub body: BlockFn,
    /// CPU-side profile of one instance.
    pub cpu_task: CpuTask,
}

impl RegisteredKernel {
    /// Resolve `workload` under its registry `name`.
    pub fn resolve(name: &str, workload: &dyn Workload) -> Self {
        RegisteredKernel {
            name: Arc::from(name),
            desc: workload.desc(),
            blocks: workload.blocks(),
            body: workload.body(),
            cpu_task: workload.cpu_task(),
        }
    }
}

/// A kernel launch waiting in the backend's pending queue.
pub struct KernelRequest {
    /// Submitting context (process) id.
    pub ctx: u64,
    /// Monotonic sequence number (arrival order).
    pub seq: u64,
    /// The registered kernel this launch names (shared, not cloned,
    /// along the submit path).
    pub kernel: Arc<RegisteredKernel>,
    /// Launch arguments (valid in the backend's context — all memory is
    /// backend-allocated).
    pub args: Vec<KernelArg>,
    /// Device-clock time at which the launch was enqueued (for latency
    /// accounting and staleness-triggered flushes).
    pub submitted_at_s: f64,
    /// Priority class (admission control sheds low classes first).
    pub priority: Priority,
}

impl fmt::Debug for KernelRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRequest")
            .field("ctx", &self.ctx)
            .field("seq", &self.seq)
            .field("name", &self.kernel.name)
            .field("args", &self.args.len())
            .finish()
    }
}

/// The one workload and request fixture of the crate's unit tests.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;
    use ewc_workloads::registry::DeviceBuffers;

    /// A one-block workload that does nothing, registered under `.0`.
    struct Dummy(&'static str);

    impl Workload for Dummy {
        fn name(&self) -> &'static str {
            self.0
        }
        fn desc(&self) -> KernelDesc {
            KernelDesc::builder(self.0).threads_per_block(32).build()
        }
        fn blocks(&self) -> u32 {
            1
        }
        fn cpu_task(&self) -> CpuTask {
            CpuTask::new(self.0, 1.0, 1, 0)
        }
        fn h2d_bytes(&self) -> u64 {
            0
        }
        fn d2h_bytes(&self) -> u64 {
            0
        }
        fn body(&self) -> BlockFn {
            Arc::new(|_, _| {})
        }
        fn build_args(
            &self,
            _gpu: &mut dyn ewc_gpu::DeviceAlloc,
            _seed: u64,
        ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
            unimplemented!("the fixture is never launched")
        }
        fn expected_output(&self, _seed: u64) -> Vec<u8> {
            Vec::new()
        }
    }

    /// A queued launch of [`Dummy`] `name` from context `id`, ticket `id`.
    pub(crate) fn req(name: &'static str, id: u64) -> KernelRequest {
        KernelRequest {
            ctx: id,
            seq: id,
            kernel: Arc::new(RegisteredKernel::resolve(name, &Dummy(name))),
            args: Vec::new(),
            submitted_at_s: 0.0,
            priority: Priority::Normal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::UnknownKernel("x".into())
            .to_string()
            .contains('x'));
        assert!(CoreError::from(GpuError::EmptyGrid)
            .to_string()
            .contains("empty"));
    }
}
