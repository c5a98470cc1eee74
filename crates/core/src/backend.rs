//! The backend (Section IV).
//!
//! "The backend is a daemon, launched before any workload execution...
//! it is the backend that really conducts the CUDA API calls and kernel
//! calls." It owns the node's GPUs; every device operation requested by
//! a frontend executes in the backend's context, so kernel-call
//! arguments are always valid device pointers. Host→device copies cross
//! process boundaries through a **pre-allocated staging buffer**
//! (process → buffer → device: two copies, the paper's main overhead),
//! and every frontend message pays a channel round trip.
//!
//! The paper's daemon is a process behind an RPC channel; here it is a
//! value behind a mutex ([`SharedBackend`]) that frontends call
//! directly. What the channel *costs* — one round trip per message,
//! staging copies, coordination — is charged to the virtual clock per
//! message; the flush conditions are re-checked after every message, so
//! batching depends only on the order calls arrive in.
//!
//! Kernel launches queue in the pending list. When the pending count
//! reaches the threshold (10 × number of GPUs, Section VII) — or a
//! sync/shutdown forces a drain, or the oldest request exceeds its
//! staleness bound — the backend matches pending kernels against the
//! template registry *per device* (each context's buffers live on one
//! GPU), coordinates the participating frontends (leader election for
//! homogeneous groups), asks the [`DecisionEngine`] which alternative
//! wins on predicted energy, and executes it.
//!
//! **Clocks.** The backend keeps a host clock for channel, staging and
//! coordination costs. Each device has its own clock; synchronous API
//! operations (memcpys) drag the host clock along, while kernel launches
//! are issued asynchronously — the device's clock runs ahead on its own,
//! so groups dispatched to different GPUs genuinely overlap.

mod flush;
mod ladder;
mod migrate;
mod power;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, FleetGovernor};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DevicePtr, GpuDevice};
use ewc_telemetry::{DecisionRecord, TelemetrySink, Verdict};

use crate::admission::{AdmissionDecision, AdmissionState, Priority, ShedCause};
use crate::config::RuntimeConfig;
use crate::decision::DecisionEngine;
use crate::leader::LeaderCoordinator;
use crate::optimize::ConstantCache;
use crate::protocol::{CoreError, ExecConfig, KernelRequest, RegisteredKernel};
use crate::resilience::RuntimeFaultInjector;
use crate::stats::BackendStats;
use crate::template::TemplateRegistry;

/// The one backend a [`crate::Runtime`] and all its frontends share.
/// `None` once the runtime has shut down: every later frontend call
/// answers [`CoreError::Disconnected`].
pub(crate) type SharedBackend = Arc<Mutex<Option<Backend>>>;

/// What [`Backend::shutdown`] hands back: final statistics, each
/// device's activity profile, and the final host clock.
pub(crate) type ShutdownReport = (
    BackendStats,
    Vec<Vec<ewc_gpu::counters::ActivityInterval>>,
    f64,
);

/// Start the backend over a pool of devices.
///
/// `faults` is the optional runtime-boundary fault injector (channel
/// drops/retransmits); pass `None` for a healthy channel.
pub(crate) fn start(
    cfg: RuntimeConfig,
    gpus: Vec<GpuDevice>,
    registry: HashMap<String, Arc<RegisteredKernel>>,
    templates: TemplateRegistry,
    decision: DecisionEngine,
    sink: TelemetrySink,
    faults: Option<Arc<dyn RuntimeFaultInjector>>,
) -> SharedBackend {
    assert!(!gpus.is_empty(), "backend needs at least one GPU");
    let coordinator = LeaderCoordinator::new(&cfg);
    let constants = gpus
        .iter()
        .map(|_| ConstantCache::new(cfg.constant_reuse))
        .collect();
    // Without an explicit fleet the governor runs the bit-compatible
    // homogeneous round-robin configuration over the device pool.
    let fleet_mode = cfg.fleet.is_some();
    let fleet_cfg = cfg
        .fleet
        .clone()
        .unwrap_or_else(|| FleetConfig::homogeneous(gpus.len()));
    assert_eq!(
        fleet_cfg.devices.len(),
        gpus.len(),
        "fleet spec must describe every device in the pool"
    );
    let fleet = FleetGovernor::new(&fleet_cfg, &cfg.resilience);
    // A sink that carries an executor clock lends it to the backend as
    // its host clock, so spans land on the exact timeline the caller is
    // driving.
    let clock = sink.virtual_clock().cloned().unwrap_or_default();
    let admission = cfg.admission.clone().map(AdmissionState::new);
    let device_counters = if sink.is_enabled() {
        (0..gpus.len()).map(DeviceCounters::new).collect()
    } else {
        Vec::new()
    };
    let backend = Backend {
        cfg,
        gpus,
        registry,
        templates,
        decision,
        coordinator,
        constants,
        sink,
        device_counters,
        faults,
        fleet,
        fleet_mode,
        stats: BackendStats::default(),
        pending: Vec::new(),
        ctx_state: HashMap::new(),
        ctx_allocs: HashMap::new(),
        ctx_constants: HashMap::new(),
        remap: HashMap::new(),
        failures: HashMap::new(),
        admission,
        next_seq: 0,
        clock,
        extract_scratch: Vec::new(),
        flush_scratch: Vec::new(),
        saturated_scratch: Vec::new(),
        fleet_throttles_seen: 0,
    };
    Arc::new(Mutex::new(Some(backend)))
}

/// The counters kept per device, named once for device `d`.
struct DeviceCounters {
    placements: String,
    migrations: String,
    gpu_faults: String,
    breaker_trips: String,
}

impl DeviceCounters {
    fn new(d: usize) -> Self {
        DeviceCounters {
            placements: format!("placements_gpu{d}"),
            migrations: format!("migrations_gpu{d}"),
            gpu_faults: format!("gpu_faults_gpu{d}"),
            breaker_trips: format!("breaker_trips_gpu{d}"),
        }
    }
}

#[derive(Default)]
struct CtxState {
    config: Option<ExecConfig>,
    args: Vec<KernelArg>,
}

pub(crate) struct Backend {
    cfg: RuntimeConfig,
    gpus: Vec<GpuDevice>,
    /// Every registered kernel, resolved when it was registered.
    registry: HashMap<String, Arc<RegisteredKernel>>,
    templates: TemplateRegistry,
    decision: DecisionEngine,
    coordinator: LeaderCoordinator,
    /// One constant cache per device (constants live in device memory).
    constants: Vec<ConstantCache>,
    /// Telemetry handle (no-op unless the runtime enabled it).
    sink: TelemetrySink,
    /// Per-device counter names, one entry per GPU on an enabled sink
    /// (empty otherwise): built once, not `format!`-ed per event.
    device_counters: Vec<DeviceCounters>,
    /// Runtime-boundary fault injector (channel drops), when attached.
    faults: Option<Arc<dyn RuntimeFaultInjector>>,
    /// The fleet governor: context→device placement, live-load
    /// accounting, per-device circuit breakers, and the power cap.
    fleet: FleetGovernor,
    /// `true` when the runtime configured an explicit fleet. Placement
    /// audit records are gated on this so default (fleet-less) runs keep
    /// their pre-fleet telemetry byte-identical.
    fleet_mode: bool,
    stats: BackendStats,
    pending: Vec<KernelRequest>,
    ctx_state: HashMap<u64, CtxState>,
    /// Frontend-visible allocations per context (`(ptr, len)`), in
    /// allocation order — the buffer manifest drain/migrate moves.
    ctx_allocs: HashMap<u64, Vec<(DevicePtr, u64)>>,
    /// Constants each context registered (`(key, ptr, data)`): migration
    /// re-loads the data on the destination device.
    ctx_constants: HashMap<u64, Vec<(String, DevicePtr, Vec<u8>)>>,
    /// Frontend pointer → actual device pointer after migration;
    /// identity when absent. Resolved at every execution/access site so
    /// frontends keep using the pointers malloc handed them.
    remap: HashMap<u64, HashMap<DevicePtr, DevicePtr>>,
    /// Permanently failed launches awaiting delivery: each context's
    /// next `sync` pops (and returns) one queued failure.
    failures: HashMap<u64, VecDeque<(u64, CoreError)>>,
    /// Admission controller + degradation ladder; `None` (the default)
    /// keeps queues unbounded and every path byte-identical with the
    /// pre-admission backend.
    admission: Option<AdmissionState>,
    next_seq: u64,
    /// Host-side clock: channel, staging and coordination costs. A
    /// shared [`VirtualClock`] handle, so a caller that lent its
    /// executor clock through the sink and the circuit breaker observe
    /// the same timeline the backend advances.
    clock: VirtualClock,
    /// Recycled storage for [`Backend::extract`]'s mark pass, kept
    /// (emptied, capacity intact) between groups so the per-flush
    /// bookkeeping stops allocating on the admission hot path.
    extract_scratch: Vec<Option<KernelRequest>>,
    /// Recycled per-device index list for the flush matcher window.
    flush_scratch: Vec<usize>,
    /// Recycled per-device saturation flags for overload-aware placement.
    saturated_scratch: Vec<bool>,
    /// High-water mark into the governor's power-cap throttle log:
    /// throttles past this index still need replaying onto the devices.
    fleet_throttles_seen: usize,
}

impl Backend {
    /// One intercepted API call from context `ctx`: charge the channel
    /// hop, handle the call, emit one span over the interval the
    /// frontend blocked on (round trip + backend-side handling), then
    /// re-check the flush conditions — after *every* message, so batch
    /// boundaries depend only on the order calls arrive in. The answer
    /// is returned only once the flush has settled the clock.
    fn rpc<T>(&mut self, kind: &'static str, ctx: u64, handle: impl FnOnce(&mut Self) -> T) -> T {
        let rpc_start_s = self.clock.now_s();
        self.charge_channel();
        let answer = handle(self);
        if self.sink.is_enabled() {
            self.sink
                .span("host", "backend", kind, rpc_start_s, self.clock.now_s())
                .attr("ctx", ctx)
                .emit();
        }
        self.check_flush();
        answer
    }

    /// Queued launches currently bound to device `d`.
    fn device_depth(&self, d: usize) -> usize {
        self.pending
            .iter()
            .filter(|r| self.fleet.binding(r.ctx) == Some(d))
            .count()
    }

    /// Audit one permanent shed (admission-final or queue-age).
    fn audit_shed(&mut self, name: &Arc<str>, ctx: u64, seq: Option<u64>, cause: ShedCause) {
        let Some(mut rec) = self.sink.lock() else {
            return;
        };
        rec.counter_add("requests_shed", 1.0);
        let reason = match seq {
            Some(seq) => format!(
                "request '{name}' (ctx {ctx}, seq {seq}) shed from the queue: {}",
                cause.label()
            ),
            None => format!(
                "launch of '{name}' (ctx {ctx}) shed at admission: {}",
                cause.label()
            ),
        };
        rec.audit(DecisionRecord {
            time_s: self.clock.now_s(),
            kernels: vec![name.clone()],
            verdict: Verdict::Shed,
            consolidated: None,
            serial: None,
            cpu: None,
            reason,
        });
    }

    /// Device assigned to a context (placed by the fleet governor on
    /// first touch).
    fn device_for(&mut self, ctx: u64) -> usize {
        if let Some(d) = self.fleet.binding(ctx) {
            return d;
        }
        // Overload coordination with the governor: when admission
        // bounds the queues, a device sitting at its bound is
        // "overloaded but healthy" — steer new contexts elsewhere so it
        // sheds load before its breaker ever trips.
        let rec = match &self.admission {
            Some(adm) if self.gpus.len() > 1 => {
                let cap = adm.cfg.max_per_device;
                // Swap the scratch flags out so the borrow checker lets
                // us fill them from `device_depth` while the fleet call
                // below borrows `self.fleet` and `self.clock`.
                let mut saturated = std::mem::take(&mut self.saturated_scratch);
                saturated.clear();
                saturated.extend((0..self.gpus.len()).map(|d| self.device_depth(d) >= cap));
                let rec = self.fleet.place_avoiding(ctx, &self.clock, &saturated);
                self.saturated_scratch = saturated;
                rec
            }
            _ => self.fleet.place(ctx, &self.clock),
        };
        let d = rec.device as usize;
        self.sync_fleet_throttles();
        if self.fleet_mode && self.sink.is_enabled() {
            self.sink
                .counter_add(&self.device_counters[d].placements, 1.0);
            self.sink.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: Vec::new(),
                verdict: Verdict::Placed,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "ctx {ctx} placed on gpu{d} ({}) by {} policy ({})",
                    self.fleet.spec(d).name,
                    self.fleet.policy_label(),
                    rec.reason.label()
                ),
            });
        }
        d
    }

    /// Actual device pointer behind a frontend-visible pointer:
    /// identity until drain/migrate moved the context's buffers.
    fn resolve(&self, ctx: u64, ptr: DevicePtr) -> DevicePtr {
        self.remap
            .get(&ctx)
            .and_then(|m| m.get(&ptr))
            .copied()
            .unwrap_or(ptr)
    }

    /// Kernel arguments with every device pointer resolved through the
    /// context's migration remap.
    fn resolved_args(&self, ctx: u64, args: &[KernelArg]) -> Vec<KernelArg> {
        args.iter()
            .map(|a| match a {
                KernelArg::Ptr(p) => KernelArg::Ptr(self.resolve(ctx, *p)),
                other => *other,
            })
            .collect()
    }

    /// Bring device `d` up to the host clock (it cannot serve a new
    /// synchronous request in the past).
    fn catch_up(&mut self, d: usize) {
        let host = self.clock.now_s();
        let now = self.gpus[d].now_s();
        if now < host {
            self.gpus[d].idle(host - now);
        }
    }

    /// After a *synchronous* device operation the host has waited for it.
    fn host_joins(&mut self, d: usize) {
        self.clock.advance_to(self.gpus[d].now_s());
    }

    /// Execute everything pending and wait for every device to finish.
    fn drain(&mut self) {
        self.flush(true);
        for d in 0..self.gpus.len() {
            self.host_joins(d);
        }
    }

    /// Advance the host clock to (at least) `to_s`. A harness
    /// construct, not an API call: no channel cost, no span.
    pub(crate) fn advance_clock(&mut self, to_s: f64) {
        self.clock.advance_to(to_s);
        self.check_flush();
    }

    /// A client waiting out a backoff: no channel cost, no span.
    pub(crate) fn advance_clock_by(&mut self, by_s: f64) {
        self.clock.advance_by(by_s.max(0.0));
        self.check_flush();
    }

    /// A frontend is gone. A dying process pays nothing and can observe
    /// nothing: no channel cost, no span. Its pending work is drained.
    pub(crate) fn disconnect(&mut self, ctx: u64) {
        self.reap(ctx);
        self.check_flush();
    }

    /// `cudaMalloc`.
    pub(crate) fn malloc(&mut self, ctx: u64, len: u64) -> Result<DevicePtr, CoreError> {
        self.rpc("malloc", ctx, |b| {
            let d = b.device_for(ctx);
            let ptr = b.gpus[d].malloc(len)?;
            b.ctx_allocs.entry(ctx).or_default().push((ptr, len));
            Ok(ptr)
        })
    }

    /// `cudaFree`.
    pub(crate) fn free(&mut self, ctx: u64, ptr: DevicePtr) -> Result<(), CoreError> {
        self.rpc("free", ctx, |b| {
            let d = b.device_for(ctx);
            let actual = b.resolve(ctx, ptr);
            b.gpus[d].free(actual)?;
            if let Some(allocs) = b.ctx_allocs.get_mut(&ctx) {
                allocs.retain(|(p, _)| *p != ptr);
            }
            if let Some(m) = b.remap.get_mut(&ctx) {
                m.remove(&ptr);
            }
            Ok(())
        })
    }

    /// `cudaMemcpy` host→device: the data crosses process boundaries
    /// via the staging buffer.
    pub(crate) fn memcpy_h2d(
        &mut self,
        ctx: u64,
        dst: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<(), CoreError> {
        self.rpc("memcpy_h2d", ctx, |b| {
            b.charge_staging(data.len() as u64);
            let d = b.device_for(ctx);
            let dst = b.resolve(ctx, dst);
            b.catch_up(d);
            let r = b.gpus[d].memcpy_h2d(dst, offset, data);
            b.host_joins(d);
            r.map(|_| ()).map_err(CoreError::from)
        })
    }

    /// `cudaMemcpy` device→host.
    pub(crate) fn memcpy_d2h(
        &mut self,
        ctx: u64,
        src: DevicePtr,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, CoreError> {
        self.rpc("memcpy_d2h", ctx, |b| {
            let d = b.device_for(ctx);
            let src = b.resolve(ctx, src);
            b.catch_up(d);
            let r = b.gpus[d].memcpy_d2h(src, offset, len);
            b.host_joins(d);
            b.charge_staging(len);
            r.map(|(bytes, _)| bytes).map_err(CoreError::from)
        })
    }

    /// `cudaConfigureCall`: capture the execution configuration.
    pub(crate) fn configure_call(&mut self, ctx: u64, config: ExecConfig) {
        self.rpc("configure_call", ctx, |b| {
            b.ctx_state.entry(ctx).or_default().config = Some(config);
        })
    }

    /// `cudaSetupArgument`, when argument batching is off.
    pub(crate) fn setup_argument(&mut self, ctx: u64, arg: KernelArg) {
        self.rpc("setup_argument", ctx, |b| {
            b.ctx_state.entry(ctx).or_default().args.push(arg);
        })
    }

    /// `cudaLaunch`: enqueue a kernel; the answer is its ticket. With
    /// argument batching on, the accumulated arguments ride along as
    /// `batched_args`; `attempt` counts prior `Busy` answers.
    pub(crate) fn launch(
        &mut self,
        ctx: u64,
        name: &str,
        batched_args: Option<Vec<KernelArg>>,
        priority: Priority,
        attempt: u32,
    ) -> Result<u64, CoreError> {
        self.rpc("launch", ctx, |b| {
            let r = b.enqueue_launch(ctx, name, batched_args, priority, attempt);
            // A rejected launch takes its forwarded `setup_argument`
            // values with it, or the context's next launch would run on
            // them. Only a `Busy` retry reuses them.
            if !matches!(r, Ok(_) | Err(CoreError::Busy { .. })) {
                if let Some(state) = b.ctx_state.get_mut(&ctx) {
                    state.args.clear();
                }
            }
            r
        })
    }

    /// Load-once constant data (the backend API of Section IV's
    /// application-specific optimisation).
    pub(crate) fn register_constant(
        &mut self,
        ctx: u64,
        key: &str,
        data: &[u8],
    ) -> Result<DevicePtr, CoreError> {
        self.rpc("register_constant", ctx, |b| {
            b.charge_staging(data.len() as u64);
            let d = b.device_for(ctx);
            b.catch_up(d);
            let r = b.constants[d].register(&mut b.gpus[d], key, data);
            b.host_joins(d);
            match &r {
                Ok(up) => {
                    if up.cache_hit {
                        b.stats.constant_hits += 1;
                    } else {
                        b.stats.constant_misses += 1;
                    }
                    // Remember the registration so drain/migrate can
                    // re-load the constant on a destination device.
                    let entry = b.ctx_constants.entry(ctx).or_default();
                    if !entry.iter().any(|(k, _, _)| k == key) {
                        entry.push((key.to_string(), up.ptr, data.to_vec()));
                    }
                }
                Err(e) => {
                    // The error reaches the frontend in the answer; it
                    // must also be visible backend-side, not swallowed.
                    b.stats.constant_errors += 1;
                    if let Some(mut rec) = b.sink.lock() {
                        rec.counter_add("constant_errors", 1.0);
                        rec.span(
                            "host",
                            "backend",
                            "constant_error",
                            b.clock.now_s(),
                            b.clock.now_s(),
                        )
                        .attr("error", &e.to_string())
                        .emit();
                    }
                }
            }
            r.map(|u| u.ptr).map_err(CoreError::from)
        })
    }

    /// Block until every pending kernel (from every frontend) has
    /// executed.
    pub(crate) fn sync(&mut self, ctx: u64) -> Result<(), CoreError> {
        self.rpc("sync", ctx, |b| {
            b.drain();
            // Deliver one queued permanent failure per sync: the
            // launch already returned a ticket, so this is where the
            // offending frontend learns its kernel died.
            match b.failures.get_mut(&ctx).and_then(VecDeque::pop_front) {
                Some((_seq, e)) => Err(e),
                None => Ok(()),
            }
        })
    }

    /// Drain everything and stop: the last message a backend handles.
    pub(crate) fn shutdown(mut self) -> ShutdownReport {
        let rpc_start_s = self.clock.now_s();
        self.charge_channel();
        self.drain();
        let activities = self.gpus.iter().map(|g| g.activity().to_vec()).collect();
        self.stats.placements = self.fleet.placements().to_vec();
        self.stats.cap_redirects = self.fleet.cap_redirects();
        let elapsed_s = self.clock.now_s();
        if self.sink.is_enabled() {
            self.sink
                .span("host", "backend", "shutdown", rpc_start_s, elapsed_s)
                .emit();
        }
        (self.stats, activities, elapsed_s)
    }

    fn charge_channel(&mut self) {
        // An injected channel drop means the frontend had to retransmit:
        // each retransmission costs one extra round trip.
        let retx = self.faults.as_ref().map_or(0, |f| f.on_message()) as u64;
        let cost = self.cfg.channel_latency_s * (1 + retx) as f64;
        self.stats.messages += 1;
        self.stats.retransmits += retx;
        self.stats.channel_s += cost;
        self.clock.advance_by(cost);
        if retx > 0 && self.sink.is_enabled() {
            self.sink.counter_add("channel_retransmits", retx as f64);
        }
    }

    /// Drain a departed frontend: drop its queued launches (group peers
    /// must not wait on a corpse), its call state and its undelivered
    /// failures. Runs once per context — `Frontend::drop` is the only
    /// way a context leaves.
    fn reap(&mut self, ctx: u64) {
        self.ctx_state.remove(&ctx);
        // Failure notices queued for a dead context can never be
        // delivered (delivery is pull-based, at sync): drop them here
        // and account for them, so the map cannot grow across frontend
        // churn and no request silently vanishes from the books.
        if let Some(q) = self.failures.remove(&ctx) {
            self.stats.undelivered_failures += q.len() as u64;
        }
        self.ctx_allocs.remove(&ctx);
        self.ctx_constants.remove(&ctx);
        self.remap.remove(&ctx);
        // Release the device binding so the governor's live-context
        // counts track surviving frontends — a long-lived fleet no
        // longer skews around reaped contexts.
        self.fleet.release(ctx);
        // Reaps vastly outnumber reaps-with-work: a frontend that
        // synced before disconnecting leaves nothing queued. Check
        // read-only before rebuilding the queue.
        let mut drained: Vec<KernelRequest> = Vec::new();
        if self.pending.iter().any(|r| r.ctx == ctx) {
            let mut kept: Vec<KernelRequest> = Vec::with_capacity(self.pending.len());
            for r in self.pending.drain(..) {
                if r.ctx == ctx {
                    drained.push(r);
                } else {
                    kept.push(r);
                }
            }
            self.pending = kept;
        }
        self.stats.drained_requests += drained.len() as u64;
        // A clean disconnect with nothing pending is the normal end of a
        // process's life — not worth a log line or a stat.
        if drained.is_empty() {
            return;
        }
        self.stats.reaped_frontends += 1;
        if let Some(mut rec) = self.sink.lock() {
            rec.counter_add("frontends_reaped", 1.0);
            rec.counter_add("requests_drained", drained.len() as f64);
            rec.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: drained.iter().map(|r| r.kernel.name.clone()).collect(),
                verdict: Verdict::Drained,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "frontend ctx {ctx} gone (disconnect); drained {} pending launch(es)",
                    drained.len()
                ),
            });
        }
    }

    /// Host-to-host copy into/out of the pre-allocated staging buffer:
    /// bytes over staging bandwidth, plus one extra channel round trip
    /// per buffer-sized chunk beyond the first.
    fn charge_staging(&mut self, bytes: u64) {
        let start_s = self.clock.now_s();
        let copy_s = bytes as f64 / self.cfg.staging_bandwidth;
        let chunks = bytes.div_ceil(self.cfg.staging_buffer_bytes.max(1)).max(1);
        let extra = (chunks - 1) as f64 * self.cfg.channel_latency_s;
        self.stats.staged_bytes += bytes;
        self.stats.staging_s += copy_s + extra;
        self.clock.advance_by(copy_s + extra);
        if let Some(mut rec) = self.sink.lock() {
            rec.span("host", "backend", "staging", start_s, self.clock.now_s())
                .attr("bytes", bytes)
                .emit();
            rec.counter_add("staged_bytes", bytes as f64);
        }
    }

    fn enqueue_launch(
        &mut self,
        ctx: u64,
        name: &str,
        batched_args: Option<Vec<KernelArg>>,
        priority: Priority,
        attempt: u32,
    ) -> Result<u64, CoreError> {
        let kernel = self
            .registry
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownKernel(name.to_string()))?;
        let d = self.device_for(ctx); // bind early so flush can partition
        let state = self.ctx_state.entry(ctx).or_default();
        let config = state.config.take().ok_or(CoreError::NotConfigured)?;
        if config.grid_blocks != kernel.blocks
            || config.threads_per_block != kernel.desc.threads_per_block
        {
            return Err(CoreError::BadConfiguration(format!(
                "configured {}x{}, registered {}x{}",
                config.grid_blocks,
                config.threads_per_block,
                kernel.blocks,
                kernel.desc.threads_per_block
            )));
        }
        // Validate schedulability at enqueue time: a kernel that cannot
        // fit one block on an SM would fail every rung of the ladder, so
        // reject it here — synchronously, to the offending frontend —
        // instead of poisoning a consolidation group later.
        ewc_gpu::Occupancy::of(&kernel.desc, self.gpus[d].config()).map_err(CoreError::from)?;
        // Admission, after validation (a malformed launch keeps its
        // original error) and before the arguments are consumed (a
        // `Busy` retry resends them). The terminal shed-vs-retry call is
        // made here, in exactly one place, so the conservation invariant
        // is plain stats arithmetic.
        if self.admission.is_some() {
            let now = self.clock.now_s();
            let device_depth = self.device_depth(d);
            let ctx_depth = self.pending.iter().filter(|r| r.ctx == ctx).count();
            let (decision, retry_after_s) = match &mut self.admission {
                Some(adm) => (
                    adm.admit(now, device_depth, ctx_depth, priority, attempt),
                    adm.retry_after_s(),
                ),
                None => unreachable!("guarded above"),
            };
            match decision {
                AdmissionDecision::Admit => {}
                AdmissionDecision::Busy { cause } => {
                    self.stats.busy_rejections += 1;
                    if self.sink.is_enabled() {
                        self.sink.counter_add("busy_rejections", 1.0);
                    }
                    // Restore the configuration so the retry does not
                    // need to re-send configure_call.
                    if let Some(st) = self.ctx_state.get_mut(&ctx) {
                        st.config = Some(config);
                    }
                    return Err(CoreError::Busy {
                        retry_after_us: (retry_after_s * 1e6).ceil().max(1.0) as u64,
                        cause,
                    });
                }
                AdmissionDecision::Shed { cause } => {
                    self.stats.shed_requests += 1;
                    self.audit_shed(&kernel.name, ctx, None, cause);
                    return Err(CoreError::Shed { seq: None, cause });
                }
            }
        }
        let state = self.ctx_state.entry(ctx).or_default();
        let args = match batched_args {
            Some(a) => a,
            None => std::mem::take(&mut state.args),
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let submitted_at_s = self.clock.now_s();
        // Push-at-back with a monotonic `seq` and clock, and every removal
        // (`extract`, disconnect reaping, `shed_stale`) keeps relative
        // order: `pending` is always in submission order, oldest first.
        debug_assert!(self
            .pending
            .last()
            .is_none_or(|r| r.seq < seq && r.submitted_at_s <= submitted_at_s));
        self.pending.push(KernelRequest {
            ctx,
            seq,
            kernel,
            args,
            submitted_at_s,
            priority,
        });
        self.stats.max_pending_depth = self.stats.max_pending_depth.max(self.pending.len() as u64);
        Ok(seq)
    }
}
