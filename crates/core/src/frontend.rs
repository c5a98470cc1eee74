//! The frontend shim (Section IV).
//!
//! "The frontend is a shared library, loaded into applications to
//! intercept specific CUDA Runtime API calls" — here, a handle each user
//! "process" (thread) holds. Every call is one message to the backend:
//! it takes the shared backend's lock, pays the modelled channel round
//! trip there, and returns the answer — blocking, like the synchronous
//! CUDA runtime API. With **argument batching** on, `setup_argument`
//! values accumulate locally and ride along with `launch`, cutting the
//! per-call round trips that dominate small-workload consolidation
//! overhead.

use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DevicePtr, SimRng};
use ewc_workloads::registry::DeviceBuffers;
use ewc_workloads::Workload;

use crate::admission::Priority;
use crate::backend::{Backend, SharedBackend};
use crate::protocol::{CoreError, ExecConfig};

/// A per-process frontend handle. Cloning is intentionally not provided:
/// one frontend = one process context, as in the paper.
pub struct Frontend {
    ctx: u64,
    backend: SharedBackend,
    batching: bool,
    held_args: Vec<KernelArg>,
    /// Per-frontend jitter stream for backoff under `Busy` answers.
    /// Seeded from the context id alone — never shared state — so
    /// same-seed overload replays stay byte-identical no matter how
    /// wakeups interleave across frontends.
    rng: SimRng,
}

impl Frontend {
    pub(crate) fn new(ctx: u64, backend: SharedBackend, batching: bool) -> Self {
        Frontend {
            ctx,
            backend,
            batching,
            held_args: Vec::new(),
            rng: SimRng::seed_from_u64(
                0x6f76_6572_6c6f_6164u64 ^ ctx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }

    /// This frontend's context id.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// Deliver one message: run `f` on the backend under the shared
    /// lock. [`CoreError::Disconnected`] when the runtime has shut down
    /// or a panic inside the backend poisoned the lock.
    fn call<T>(&self, f: impl FnOnce(&mut Backend) -> T) -> Result<T, CoreError> {
        let mut backend = self.backend.lock().map_err(|_| CoreError::Disconnected)?;
        backend.as_mut().map(f).ok_or(CoreError::Disconnected)
    }

    /// `cudaMalloc`.
    pub fn malloc(&self, len: u64) -> Result<DevicePtr, CoreError> {
        self.call(|b| b.malloc(self.ctx, len))?
    }

    /// `cudaFree`.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), CoreError> {
        self.call(|b| b.free(self.ctx, ptr))?
    }

    /// `cudaMemcpyHostToDevice`.
    pub fn memcpy_h2d(&self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), CoreError> {
        self.call(|b| b.memcpy_h2d(self.ctx, dst, offset, data))?
    }

    /// `cudaMemcpyDeviceToHost`.
    pub fn memcpy_d2h(&self, src: DevicePtr, offset: u64, len: u64) -> Result<Vec<u8>, CoreError> {
        self.call(|b| b.memcpy_d2h(self.ctx, src, offset, len))?
    }

    /// `cudaConfigureCall`: capture the execution configuration.
    pub fn configure_call(
        &self,
        grid_blocks: u32,
        threads_per_block: u32,
    ) -> Result<(), CoreError> {
        let config = ExecConfig {
            grid_blocks,
            threads_per_block,
        };
        self.call(|b| b.configure_call(self.ctx, config))
    }

    /// `cudaSetupArgument`: with batching on, held locally until
    /// [`Frontend::launch`]; otherwise forwarded immediately.
    pub fn setup_argument(&mut self, arg: KernelArg) -> Result<(), CoreError> {
        if self.batching {
            self.held_args.push(arg);
            Ok(())
        } else {
            self.call(|b| b.setup_argument(self.ctx, arg))
        }
    }

    /// `cudaLaunch`: enqueue the kernel for (possible) consolidation.
    /// Returns a ticket; completion is observed via [`Frontend::sync`].
    pub fn launch(&mut self, kernel: &str) -> Result<u64, CoreError> {
        self.launch_attempt(kernel, 0)
    }

    /// Submit one seeded instance of `w`, registered as `name`: the
    /// intercepted sequence an application makes per kernel —
    /// `build_args` (allocate and upload), `configure_call`, one
    /// `setup_argument` per argument, `launch`. Returns the instance's
    /// buffers for the read-back after [`Frontend::sync`]. Constant data
    /// is not registered here; call [`Frontend::register_constant`]
    /// first where the workload has some.
    pub fn submit(
        &mut self,
        name: &str,
        w: &dyn Workload,
        seed: u64,
    ) -> Result<DeviceBuffers, CoreError> {
        let (args, bufs) = w.build_args(self, seed)?;
        self.configure_call(w.blocks(), w.desc().threads_per_block)?;
        for a in args {
            self.setup_argument(a)?;
        }
        self.launch(name)?;
        Ok(bufs)
    }

    /// One launch attempt; `attempt` counts prior [`CoreError::Busy`]
    /// answers (the backend sheds permanently at its retry limit). With
    /// batching on, the held arguments survive a `Busy` answer so the
    /// retry can resend them without replaying `setup_argument`.
    fn launch_attempt(&mut self, kernel: &str, attempt: u32) -> Result<u64, CoreError> {
        let batched = self.batching.then(|| self.held_args.clone());
        let r = self.call(|b| b.launch(self.ctx, kernel, batched, Priority::Normal, attempt))?;
        if self.batching && !matches!(r, Err(CoreError::Busy { .. })) {
            self.held_args.clear();
        }
        r
    }

    /// Launch with explicit arguments, bypassing the held-argument
    /// buffer — the open-loop harness path, where several arrivals from
    /// one stream can be in flight (and in `Busy` backoff) at once.
    pub fn launch_with(
        &mut self,
        kernel: &str,
        args: Vec<KernelArg>,
        priority: Priority,
        attempt: u32,
    ) -> Result<u64, CoreError> {
        self.call(|b| b.launch(self.ctx, kernel, Some(args), priority, attempt))?
    }

    /// Launch, retrying [`CoreError::Busy`] backpressure answers until
    /// the backend either admits or permanently sheds the request. Each
    /// retry waits out the backend's hint plus jitter drawn from this
    /// frontend's own [`SimRng`] stream, advanced on the virtual clock.
    pub fn launch_with_retries(&mut self, kernel: &str) -> Result<u64, CoreError> {
        let mut attempt = 0u32;
        loop {
            match self.launch_attempt(kernel, attempt) {
                Err(CoreError::Busy { retry_after_us, .. }) => {
                    attempt += 1;
                    let delay_s =
                        retry_after_us as f64 * 1e-6 * (1.0 + self.rng.range_f64(0.0, 0.5));
                    self.advance_clock_by(delay_s)?;
                }
                other => return other,
            }
        }
    }

    /// Advance the simulated clock by `delay_s` from now (clamped at
    /// zero) — the closed-loop client's way of waiting out a backoff
    /// interval.
    pub fn advance_clock_by(&self, delay_s: f64) -> Result<(), CoreError> {
        self.call(|b| b.advance_clock_by(delay_s))
    }

    /// Register load-once constant data (the Section IV backend API).
    pub fn register_constant(&self, key: &str, data: &[u8]) -> Result<DevicePtr, CoreError> {
        self.call(|b| b.register_constant(self.ctx, key, data))?
    }

    /// Advance the simulated device clock to (at least) `to_s` — the
    /// trace-driven harness's way of modelling request arrival times.
    pub fn advance_clock(&self, to_s: f64) -> Result<(), CoreError> {
        self.call(|b| b.advance_clock(to_s))
    }

    /// Block until all pending kernels (from every frontend) executed.
    pub fn sync(&self) -> Result<(), CoreError> {
        self.call(|b| b.sync(self.ctx))?
    }
}

// User "processes" are threads: a frontend must be movable into one.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Frontend>();
};

impl Drop for Frontend {
    /// Announce the process's departure so the backend can drain any
    /// launches it will never sync on. Best-effort: if the backend is
    /// already gone there is nobody left to care.
    fn drop(&mut self) {
        let _ = self.call(|b| b.disconnect(self.ctx));
    }
}

impl ewc_gpu::DeviceAlloc for Frontend {
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, ewc_gpu::GpuError> {
        self.malloc(len).map_err(core_to_gpu)
    }
    fn upload(
        &mut self,
        dst: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<(), ewc_gpu::GpuError> {
        self.memcpy_h2d(dst, offset, data).map_err(core_to_gpu)
    }
}

/// Flatten a frontend error into a device error for the [`ewc_gpu::DeviceAlloc`]
/// abstraction (framework-level failures surface as configuration
/// errors).
fn core_to_gpu(e: CoreError) -> ewc_gpu::GpuError {
    match e {
        CoreError::Gpu(g) => g,
        other => ewc_gpu::GpuError::BadConfig(other.to_string()),
    }
}

// Frontend tests live in `runtime.rs` and the crate's integration
// tests, where a real backend answers.
