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

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use ewc_cpu::CpuTask;
use ewc_exec::VirtualClock;
use ewc_fleet::{FleetConfig, FleetGovernor};
use ewc_gpu::grid::GridSegment;
use ewc_gpu::kernel::{BlockCtx, KernelArg, LaunchConfig};
use ewc_gpu::{DevicePtr, GpuDevice, GpuError, Grid};
use ewc_telemetry::{DecisionRecord, TelemetrySink, Verdict};
use ewc_workloads::Workload;

use crate::admission::{AdmissionDecision, AdmissionState, Priority, ShedCause};
use crate::config::RuntimeConfig;
use crate::decision::{Choice, DecisionEngine};
use crate::leader::LeaderCoordinator;
use crate::optimize::ConstantCache;
use crate::protocol::{CoreError, ExecConfig, KernelRequest};
use crate::resilience::RuntimeFaultInjector;
use crate::stats::{BackendStats, ConsolidationRecord, KernelOutcome};
use crate::template::TemplateRegistry;
use ewc_models::PolicyKnob;

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
    registry: HashMap<String, Arc<dyn Workload>>,
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
    let backend = Backend {
        cfg,
        gpus,
        registry,
        templates,
        decision,
        coordinator,
        constants,
        sink,
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

#[derive(Default)]
struct CtxState {
    config: Option<ExecConfig>,
    args: Vec<ewc_gpu::kernel::KernelArg>,
}

/// How one member of a dispatched group ended up.
enum MemberFate {
    /// Completed, on the given rung (consolidated, serial GPU, or CPU).
    Done(Choice),
    /// Failed permanently; the error is queued for the frontend's next
    /// `sync`.
    Failed(GpuError),
}

pub(crate) struct Backend {
    cfg: RuntimeConfig,
    gpus: Vec<GpuDevice>,
    registry: HashMap<String, Arc<dyn Workload>>,
    templates: TemplateRegistry,
    decision: DecisionEngine,
    coordinator: LeaderCoordinator,
    /// One constant cache per device (constants live in device memory).
    constants: Vec<ConstantCache>,
    /// Telemetry handle (no-op unless the runtime enabled it).
    sink: TelemetrySink,
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

    /// The batching conditions: flush on reaching the group-size
    /// threshold, or when the oldest pending request has waited past
    /// the staleness bound (trace-driven runs may never reach the
    /// threshold). With admission control on, the CoDel-style age shed
    /// runs first (blown requests are dropped before more work is
    /// dispatched) and the queue-age watchdog **after** the flush:
    /// flushing always empties pending work onto the device, so any age
    /// the flush could clear is batching delay, not overload — what the
    /// watchdog must react to is the pressure that *survives* a flush
    /// (device backlog, or a queue the flush could not move).
    fn check_flush(&mut self) {
        if self.admission.is_some() {
            self.shed_stale();
        }
        if self.pending.len() >= self.effective_threshold() {
            self.flush(false);
        } else if !self.pending.is_empty() {
            let oldest = self
                .pending
                .iter()
                .map(|r| r.submitted_at_s)
                .fold(f64::INFINITY, f64::min);
            if self.clock.now_s() - oldest > self.cfg.max_pending_wait_s {
                self.flush(true);
            }
        }
        if self.admission.is_some() {
            self.watchdog();
        }
    }

    /// The consolidation threshold adjusted by the degradation ladder:
    /// level ≥ 3 widens batching to 2× so each coordination round moves
    /// more work per unit of overhead.
    fn effective_threshold(&self) -> usize {
        let base = self.cfg.threshold();
        match &self.admission {
            Some(a) if a.level() >= 3 => base * 2,
            _ => base,
        }
    }

    /// Queued launches currently bound to device `d`.
    fn device_depth(&self, d: usize) -> usize {
        self.pending
            .iter()
            .filter(|r| self.fleet.binding(r.ctx) == Some(d))
            .count()
    }

    /// The queue-age watchdog driving the degradation ladder: sustained
    /// pressure (oldest pending request older than the configured age)
    /// steps the ladder down one level at a time; a full quiet period
    /// steps it back up. Audited as `Verdict::Degraded`.
    ///
    /// Launches are asynchronous, so sustained overload mostly shows up
    /// as a device clock running *ahead* of the host clock (queued work
    /// on the device) rather than as pending-queue depth — the watchdog
    /// treats that backlog lead as pressure too: it is exactly the extra
    /// queueing delay a newly admitted request would face.
    fn watchdog(&mut self) {
        let now = self.clock.now_s();
        let age = self
            .pending
            .iter()
            .map(|r| (now - r.submitted_at_s).max(0.0))
            .fold(0.0, f64::max);
        let backlog = self
            .gpus
            .iter()
            .map(|g| (g.now_s() - now).max(0.0))
            .fold(0.0, f64::max);
        let age = age.max(backlog);
        let moved = match &mut self.admission {
            Some(a) => {
                let before = a.level();
                a.observe(now, age).map(|level| (before, level))
            }
            None => return,
        };
        let Some((before, level)) = moved else { return };
        self.stats.degradation_steps += 1;
        self.stats.max_degradation_level = self.stats.max_degradation_level.max(level);
        if self.sink.is_enabled() {
            self.sink.gauge_set("degradation_level", f64::from(level));
            self.sink.audit(DecisionRecord {
                time_s: now,
                kernels: Vec::new(),
                verdict: Verdict::Degraded,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "degradation ladder {} {before} -> {level} (oldest pending age {age:.4} s, {} pending)",
                    if level > before {
                        "stepped down under pressure:"
                    } else {
                        "recovered after quiet period:"
                    },
                    self.pending.len()
                ),
            });
        }
    }

    /// CoDel-style age shed: queued requests older than `shed_age_s`
    /// have already blown their latency budget — executing them would
    /// only burn energy, so they are dropped with a `Shed` notice
    /// queued for the owner's next `sync` and a `Verdict::Shed` audit.
    fn shed_stale(&mut self) {
        let shed_age_s = match &self.admission {
            Some(a) => a.cfg.shed_age_s,
            None => return,
        };
        if !shed_age_s.is_finite() || self.pending.is_empty() {
            return;
        }
        let now = self.clock.now_s();
        // This runs per message; almost always nothing has aged out.
        // Settle that with a read-only scan before touching the queue,
        // so the common case neither allocates nor moves a request.
        if !self
            .pending
            .iter()
            .any(|r| now - r.submitted_at_s > shed_age_s)
        {
            return;
        }
        let mut kept = Vec::with_capacity(self.pending.len());
        let mut stale: Vec<KernelRequest> = Vec::new();
        for r in self.pending.drain(..) {
            if now - r.submitted_at_s > shed_age_s {
                stale.push(r);
            } else {
                kept.push(r);
            }
        }
        self.pending = kept;
        for req in stale {
            self.stats.shed_requests += 1;
            self.stats.shed_queue_age += 1;
            self.failures.entry(req.ctx).or_default().push_back((
                req.seq,
                CoreError::Shed {
                    seq: Some(req.seq),
                    cause: ShedCause::QueueAge,
                },
            ));
            self.audit_shed(&req.name, req.ctx, Some(req.seq), ShedCause::QueueAge);
        }
    }

    /// Audit one permanent shed (admission-final or queue-age).
    fn audit_shed(&mut self, name: &Arc<str>, ctx: u64, seq: Option<u64>, cause: ShedCause) {
        if !self.sink.is_enabled() {
            return;
        }
        self.sink.counter_add("requests_shed", 1.0);
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
        self.sink.audit(DecisionRecord {
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
            self.sink.counter_add(&format!("placements_gpu{d}"), 1.0);
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
        name: Arc<str>,
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
                    if b.sink.is_enabled() {
                        b.sink.counter_add("constant_errors", 1.0);
                        b.sink
                            .span(
                                "host",
                                "backend",
                                "constant_error",
                                b.clock.now_s(),
                                b.clock.now_s(),
                            )
                            .attr("error", e.to_string())
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
            b.flush(true);
            // Sync waits for every device to drain.
            for d in 0..b.gpus.len() {
                b.host_joins(d);
            }
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
        self.flush(true);
        for d in 0..self.gpus.len() {
            self.host_joins(d);
        }
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
        if self.sink.is_enabled() {
            self.sink.counter_add("frontends_reaped", 1.0);
            self.sink
                .counter_add("requests_drained", drained.len() as f64);
            self.sink.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: drained.iter().map(|r| r.name.clone()).collect(),
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
        if self.sink.is_enabled() {
            self.sink
                .span("host", "backend", "staging", start_s, self.clock.now_s())
                .attr("bytes", bytes)
                .emit();
            self.sink.counter_add("staged_bytes", bytes as f64);
        }
    }

    fn enqueue_launch(
        &mut self,
        ctx: u64,
        name: Arc<str>,
        batched_args: Option<Vec<ewc_gpu::kernel::KernelArg>>,
        priority: Priority,
        attempt: u32,
    ) -> Result<u64, CoreError> {
        let workload = self
            .registry
            .get(name.as_ref())
            .cloned()
            .ok_or_else(|| CoreError::UnknownKernel(name.to_string()))?;
        let d = self.device_for(ctx); // bind early so flush can partition
        let state = self.ctx_state.entry(ctx).or_default();
        let config = state.config.take().ok_or(CoreError::NotConfigured)?;
        let desc = workload.desc();
        if config.grid_blocks != workload.blocks()
            || config.threads_per_block != desc.threads_per_block
        {
            return Err(CoreError::BadConfiguration(format!(
                "configured {}x{}, registered {}x{}",
                config.grid_blocks,
                config.threads_per_block,
                workload.blocks(),
                desc.threads_per_block
            )));
        }
        // Validate schedulability at enqueue time: a kernel that cannot
        // fit one block on an SM would fail every rung of the ladder, so
        // reject it here — synchronously, to the offending frontend —
        // instead of poisoning a consolidation group later.
        ewc_gpu::Occupancy::of(&desc, self.gpus[d].config()).map_err(CoreError::from)?;
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
                    self.audit_shed(&name, ctx, None, cause);
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
        self.pending.push(KernelRequest {
            ctx,
            seq,
            name,
            args,
            workload,
            submitted_at_s,
            priority,
        });
        self.stats.max_pending_depth = self.stats.max_pending_depth.max(self.pending.len() as u64);
        Ok(seq)
    }

    /// Drain the pending queue. With `force`, everything executes now;
    /// otherwise only while the threshold is met. Groups form per device
    /// (a context's data lives on its bound GPU).
    fn flush(&mut self, force: bool) {
        loop {
            if self.pending.is_empty() {
                return;
            }
            if !force && self.pending.len() < self.effective_threshold() {
                return;
            }
            // Degradation level ≥ 2 coarsens the consolidation search:
            // only the oldest `threshold` requests per device are
            // template-matched, bounding matcher cost under a deep
            // backlog (the rest wait their turn).
            let window = match &self.admission {
                Some(a) if a.level() >= 2 => self.cfg.threshold().max(1),
                _ => usize::MAX,
            };
            let mut grouped = false;
            for d in 0..self.gpus.len() {
                // The per-device index list is rebuilt every iteration of
                // a hot loop; recycle its storage across flushes.
                let mut local = std::mem::take(&mut self.flush_scratch);
                local.clear();
                local.extend(
                    (0..self.pending.len())
                        .filter(|&i| self.fleet.binding(self.pending[i].ctx) == Some(d)),
                );
                local.truncate(window);
                if local.is_empty() {
                    self.flush_scratch = local;
                    continue;
                }
                let refs: Vec<&KernelRequest> = local.iter().map(|&i| &self.pending[i]).collect();
                if let Some((t, sel)) = self.templates.best_match(&refs) {
                    let tname = t.name.clone();
                    let global: Vec<usize> = sel.into_iter().map(|i| local[i]).collect();
                    self.flush_scratch = local;
                    let group = self.extract(global);
                    self.execute_group(d, &tname, group);
                    grouped = true;
                    break;
                }
                self.flush_scratch = local;
            }
            if !grouped {
                // No template matches anywhere: run the oldest kernel on
                // its own ("the backend lets the kernels run normally").
                // The queue cannot be empty here (checked at loop top),
                // but the backend must never bet its life on an invariant.
                let Some(oldest) = (0..self.pending.len()).min_by_key(|&i| self.pending[i].seq)
                else {
                    return;
                };
                let group = self.extract(vec![oldest]);
                let Some(d) = self.fleet.binding(group[0].ctx) else {
                    // No device binding (cannot happen: enqueue binds):
                    // drop rather than panic under the shared lock.
                    return;
                };
                self.execute_group(d, "<individual>", group);
            }
        }
    }

    /// Remove the given indices from pending, preserving the order the
    /// indices are listed in (the template's layout order).
    fn extract(&mut self, idx: Vec<usize>) -> Vec<KernelRequest> {
        // Mark-and-sweep through recycled scratch: requests move (no
        // clones), and neither the mark vector nor the rebuilt queue
        // allocates once the scratch has warmed up.
        self.extract_scratch.clear();
        self.extract_scratch
            .extend(self.pending.drain(..).map(Some));
        let group: Vec<KernelRequest> = idx
            .iter()
            .map(|&i| self.extract_scratch[i].take().expect("duplicate index"))
            .collect();
        self.pending
            .extend(self.extract_scratch.drain(..).flatten());
        group
    }

    fn execute_group(&mut self, device: usize, template: &str, group: Vec<KernelRequest>) {
        // Coordination between the participating frontends (host side).
        let coord_start_s = self.clock.now_s();
        let refs: Vec<&KernelRequest> = group.iter().collect();
        let coord = self.coordinator.plan(&refs);
        self.stats.messages += coord.messages;
        self.stats.coordination_s += coord.cost_s;
        self.clock.advance_by(coord.cost_s);

        // Model the alternatives.
        let mut plan = ewc_models::ConsolidationPlan::new();
        let mut cpu_tasks = Vec::with_capacity(group.len());
        for req in &group {
            plan.push(ewc_models::KernelSpec::new(
                req.workload.desc(),
                req.workload.blocks(),
            ));
            cpu_tasks.push(req.workload.cpu_task());
        }
        let mut assessment = self.decision.assess(&plan, &cpu_tasks);
        let mut forced = false;
        if self.cfg.force_gpu && assessment.choice == Choice::Cpu {
            forced = true;
            assessment.choice =
                if assessment.consolidated.system_energy_j <= assessment.serial.system_energy_j {
                    Choice::Consolidate
                } else {
                    Choice::SerialGpu
                };
        }
        // The device's circuit breaker outranks everything, force_gpu
        // included — but a trip is per-device now: the group's contexts
        // drain to a healthy card when one exists, and only a fully sick
        // fleet sends the group to the CPU until a cooldown expires and
        // a probe group half-opens a breaker.
        let mut tripped = false;
        let mut device = device;
        if assessment.choice != Choice::Cpu && !self.fleet.gpu_allowed(device, &self.clock) {
            let target = self.fleet.healthy_target(device, &self.clock);
            match target {
                Some(to) if self.migrate_group(&group, device, to) => device = to,
                _ => {
                    tripped = true;
                    assessment.choice = Choice::Cpu;
                }
            }
        }
        // Degradation level 4: the CPU lifeboat. Whole groups without a
        // High-priority member spill to the host so the device queue can
        // drain — force_gpu does not outrank a ladder at its last rung.
        let mut spilled = false;
        if assessment.choice != Choice::Cpu
            && matches!(&self.admission, Some(a) if a.level() >= 4)
            && group.iter().all(|r| r.priority < Priority::High)
        {
            spilled = true;
            assessment.choice = Choice::Cpu;
        }
        if self.sink.is_enabled() {
            self.sink
                .span(
                    "host",
                    "backend",
                    "coordinate",
                    coord_start_s,
                    self.clock.now_s(),
                )
                .attr("template", template)
                .attr("group_size", group.len())
                .emit();
            self.audit_decision(&assessment, &group, device, forced, tripped, spilled);
        }

        // Kernel launches are asynchronous: the device clock runs ahead
        // of the host clock, so other devices' groups can overlap.
        self.catch_up(device);
        // Apply the knob-chosen operating point before the launch; the
        // wake latency lands on the device clock. Race-to-idle parks the
        // device in the deepest state once the group completes.
        let mut park_after = None;
        if let Some(sd) = &assessment.state {
            if assessment.choice != Choice::Cpu {
                if let Some(choice) = sd.chosen(assessment.choice) {
                    let level = choice.level;
                    if matches!(sd.knob, PolicyKnob::RaceToIdle) {
                        park_after = self.decision.power_policy().and_then(|ps| ps.table.park());
                    }
                    self.apply_power_state(device, level);
                }
            }
        }
        let t0 = self.gpus[device].now_s();
        let fates = match assessment.choice {
            Choice::Consolidate => self.run_ladder(device, &group, true),
            Choice::SerialGpu => self.run_ladder(device, &group, false),
            Choice::Cpu => {
                self.run_cpu(device, &group, &cpu_tasks);
                group
                    .iter()
                    .map(|_| MemberFate::Done(Choice::Cpu))
                    .collect()
            }
        };

        let completed_at_s = self.gpus[device].now_s();
        if let Some(park) = park_after {
            self.apply_power_state(device, park);
        }
        for (req, fate) in group.iter().zip(&fates) {
            // Failed members never completed; they get no outcome record
            // — their story is told by `failed_kernels` and the audit log.
            if let MemberFate::Done(choice) = fate {
                self.stats.kernel_outcomes.push(KernelOutcome {
                    ctx: req.ctx,
                    seq: req.seq,
                    name: req.name.clone(),
                    submitted_at_s: req.submitted_at_s,
                    completed_at_s,
                    choice: *choice,
                });
            }
        }
        self.stats.records.push(ConsolidationRecord {
            template: template.to_string(),
            kernels: group.iter().map(|r| r.name.clone()).collect(),
            choice: assessment.choice,
            predicted_time_s: assessment.chosen_time_s(),
            predicted_energy_j: assessment.chosen_energy_j(),
            actual_time_s: completed_at_s - t0,
        });

        if self.sink.is_enabled() {
            for (req, fate) in group.iter().zip(&fates) {
                let label = match fate {
                    MemberFate::Done(c) => verdict_of(*c).label(),
                    MemberFate::Failed(_) => Verdict::Failed.label(),
                };
                // Full request lifecycle on the submitting context's lane:
                // queued behind the threshold, then executing on the device
                // (or host, for CPU verdicts).
                let lane = format!("ctx{}", req.ctx);
                let mut span = self
                    .sink
                    .span("host", &lane, "request", req.submitted_at_s, completed_at_s)
                    .attr("kernel", &req.name)
                    .attr("seq", req.seq)
                    .attr("choice", label);
                if let MemberFate::Failed(e) = fate {
                    span = span.attr("error", e.to_string());
                }
                let parent = span.emit();
                self.sink
                    .span("host", &lane, "queued", req.submitted_at_s, coord_start_s)
                    .parent(parent)
                    .emit();
                self.sink
                    .span("host", &lane, "execute", t0, completed_at_s)
                    .parent(parent)
                    .attr("device", device)
                    .emit();
                self.sink
                    .histogram_record("request_latency_s", completed_at_s - req.submitted_at_s);
            }
            let label = verdict_of(assessment.choice).label();
            self.sink.counter_add("groups", 1.0);
            self.sink.counter_add(&format!("verdict_{label}"), 1.0);
        }
    }

    /// Drain every context of a dispatching group off tripped device
    /// `from` onto healthy device `to`. All-or-nothing per context;
    /// returns `false` (and leaves bindings untouched) when any context
    /// could not move, in which case the caller falls back to the CPU.
    fn migrate_group(&mut self, group: &[KernelRequest], from: usize, to: usize) -> bool {
        let mut ctxs: Vec<u64> = group.iter().map(|r| r.ctx).collect();
        ctxs.sort_unstable();
        ctxs.dedup();
        for ctx in ctxs {
            if !self.migrate_ctx(ctx, from, to) {
                return false;
            }
        }
        true
    }

    /// Move one context's device state from `from` to `to`: copy every
    /// allocation across (raw memory ops — the staging happens inside
    /// the backend, not through the injected-fault transfer path),
    /// re-load its constants, install frontend-pointer remaps, charge
    /// deterministic PCIe time for both legs on the host clock, and
    /// rebind the context in the governor. All-or-nothing: a failure
    /// (e.g. the destination card is full) rolls back and returns
    /// `false` with the context still bound to `from`.
    fn migrate_ctx(&mut self, ctx: u64, from: usize, to: usize) -> bool {
        let allocs = self.ctx_allocs.get(&ctx).cloned().unwrap_or_default();
        let consts = self.ctx_constants.get(&ctx).cloned().unwrap_or_default();
        // Stage every buffer onto the destination first.
        let mut staged: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        let mut moved = 0u64;
        let mut ok = true;
        for (fe_ptr, len) in &allocs {
            let actual = self.resolve(ctx, *fe_ptr);
            let bytes = match self.gpus[from].memory().read(actual, 0, *len) {
                Ok(b) => b.to_vec(),
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            let new_ptr = match self.gpus[to].memory_mut().alloc(*len) {
                Ok(p) => p,
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            if self.gpus[to]
                .memory_mut()
                .write(new_ptr, 0, &bytes)
                .is_err()
            {
                let _ = self.gpus[to].memory_mut().free(new_ptr);
                ok = false;
                break;
            }
            staged.push((*fe_ptr, new_ptr));
            moved += len;
        }
        // Constants: hit the destination's cache or re-load the data
        // kept from registration (`load_constant` stores the bytes).
        let mut const_remaps: Vec<(DevicePtr, DevicePtr)> = Vec::new();
        if ok {
            for (key, fe_ptr, data) in &consts {
                let ptr = match self.constants[to].lookup(key) {
                    Some(p) => p,
                    None => match self.gpus[to].load_constant(data) {
                        Ok(p) => {
                            self.constants[to].seed(key, p);
                            moved += data.len() as u64;
                            p
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    },
                };
                const_remaps.push((*fe_ptr, ptr));
            }
        }
        if !ok {
            for (_, new_ptr) in staged {
                let _ = self.gpus[to].memory_mut().free(new_ptr);
            }
            return false;
        }
        // Commit: free the source copies and install the remaps.
        for (fe_ptr, new_ptr) in &staged {
            let actual = self.resolve(ctx, *fe_ptr);
            let _ = self.gpus[from].memory_mut().free(actual);
            self.remap.entry(ctx).or_default().insert(*fe_ptr, *new_ptr);
        }
        for (fe_ptr, ptr) in const_remaps {
            self.remap.entry(ctx).or_default().insert(fe_ptr, ptr);
        }
        // The bytes cross PCIe twice (device→host staging, host→device):
        // one latency + bandwidth charge per leg, on the host clock —
        // the backend orchestrates the drain synchronously.
        let leg = |bw: f64, lat: f64| moved as f64 / bw + lat;
        let out_cfg = self.gpus[from].config();
        let t_out = leg(out_cfg.pcie_bandwidth, out_cfg.pcie_latency_s);
        let in_cfg = self.gpus[to].config();
        let t_in = leg(in_cfg.pcie_bandwidth, in_cfg.pcie_latency_s);
        self.clock.advance_by(t_out + t_in);
        self.fleet.rebind(ctx, to);
        self.stats.migrations += 1;
        self.stats.migrated_bytes += moved;
        if self.sink.is_enabled() {
            self.sink.counter_add("migrations", 1.0);
            self.sink.counter_add(&format!("migrations_gpu{to}"), 1.0);
            self.sink.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: Vec::new(),
                verdict: Verdict::Placed,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "ctx {ctx} drained off gpu{from} (breaker open) to gpu{to}: \
                     {} buffer(s), {} constant(s), {moved} bytes",
                    staged.len(),
                    consts.len()
                ),
            });
        }
        true
    }

    /// Rungs 1–3 of the degradation ladder for a group headed to the GPU.
    ///
    /// * Rung 1: the planned dispatch — one consolidated grid
    ///   (`consolidate`) or per-member grids — with retry + backoff.
    /// * Rung 2: a failing consolidated launch is aborted and its members
    ///   re-dispatched serially, isolating a poisoned merge.
    /// * Rung 3: members the GPU persistently refuses (transient faults
    ///   exhausting retries/deadline) run on the CPU lifeboat.
    /// * Permanent errors exit the ladder: the request is failed back to
    ///   its frontend, and the rest of the group still completes.
    fn run_ladder(
        &mut self,
        device: usize,
        group: &[KernelRequest],
        consolidate: bool,
    ) -> Vec<MemberFate> {
        if consolidate {
            match self.launch_with_retries(device, group) {
                Ok(()) => {
                    self.stats.launches += 1;
                    if group.len() >= 2 {
                        self.stats.consolidated_launches += 1;
                    }
                    return group
                        .iter()
                        .map(|_| MemberFate::Done(Choice::Consolidate))
                        .collect();
                }
                Err(e) => {
                    self.stats.serial_fallbacks += 1;
                    self.note_recovery(
                        group,
                        Verdict::SerialGpu,
                        &format!(
                            "consolidated launch failed on gpu{device} ({e}); re-dispatching {} member(s) serially",
                            group.len()
                        ),
                    );
                }
            }
        }
        let mut fates = Vec::with_capacity(group.len());
        for req in group {
            let member = std::slice::from_ref(req);
            let fate = match self.launch_with_retries(device, member) {
                Ok(()) => {
                    self.stats.launches += 1;
                    MemberFate::Done(Choice::SerialGpu)
                }
                Err(e) if e.is_transient() => {
                    self.stats.cpu_fallbacks += 1;
                    self.note_recovery(
                        member,
                        Verdict::Cpu,
                        &format!(
                            "serial launch of '{}' (seq {}) on gpu{device} still failing ({e}); falling back to CPU",
                            req.name, req.seq
                        ),
                    );
                    self.run_cpu(device, member, &[req.workload.cpu_task()]);
                    MemberFate::Done(Choice::Cpu)
                }
                Err(e) => {
                    self.record_failure(req, e.clone());
                    MemberFate::Failed(e)
                }
            };
            fates.push(fate);
        }
        fates
    }

    /// Launch `members` as one grid, retrying transient faults with
    /// exponential backoff on the device clock (retries are not
    /// energetically free — the device burns idle power while waiting).
    /// Gives up early when a member's deadline would blow or the circuit
    /// breaker opens mid-retry; the caller escalates down the ladder.
    fn launch_with_retries(
        &mut self,
        device: usize,
        members: &[KernelRequest],
    ) -> Result<(), GpuError> {
        let pol = self.cfg.resilience.clone();
        let deadline_s = members
            .iter()
            .map(|r| r.submitted_at_s)
            .fold(f64::INFINITY, f64::min)
            + pol.request_deadline_s;
        let mut backoff = pol.retry_backoff_s.max(0.0);
        let mut attempts = 0u32;
        loop {
            let mut grid = Grid::new();
            for req in members {
                grid.push(
                    GridSegment::bare(req.workload.desc(), req.workload.blocks())
                        .with_args(self.resolved_args(req.ctx, &req.args))
                        .with_body(req.workload.body())
                        .with_tag(req.ctx),
                );
            }
            let err = match self.gpus[device].launch(&LaunchConfig::from_grid(grid)) {
                Ok(_) => {
                    self.fleet.record_success(device);
                    return Ok(());
                }
                Err(e) => e,
            };
            self.stats.faults_observed += 1;
            if self.sink.is_enabled() {
                self.sink.counter_add("gpu_faults", 1.0);
                self.sink
                    .counter_add(&format!("gpu_faults_gpu{device}"), 1.0);
            }
            if self.fleet.record_fault(device, self.gpus[device].clock()) {
                self.stats.breaker_trips += 1;
                if self.sink.is_enabled() {
                    self.sink.counter_add("breaker_trips", 1.0);
                    self.sink
                        .counter_add(&format!("breaker_trips_gpu{device}"), 1.0);
                }
                self.note_recovery(
                    members,
                    Verdict::Cpu,
                    &format!(
                        "circuit breaker on gpu{device} tripped at {:.6} s ({err}); device closed for {:.3} s",
                        self.gpus[device].now_s(),
                        pol.breaker_cooldown_s
                    ),
                );
            }
            if !err.is_transient() || attempts >= pol.max_gpu_retries {
                return Err(err);
            }
            if self.fleet.is_open(device, self.gpus[device].clock()) {
                // The breaker just closed the GPU path: stop burning
                // retries on a device declared sick.
                return Err(err);
            }
            if self.gpus[device].now_s() + backoff > deadline_s {
                self.stats.deadline_escalations += 1;
                if self.sink.is_enabled() {
                    self.sink.counter_add("deadline_escalations", 1.0);
                }
                self.note_recovery(
                    members,
                    Verdict::Cpu,
                    &format!(
                        "deadline {:.6} s would blow before retry {} ({err}); escalating",
                        deadline_s,
                        attempts + 1
                    ),
                );
                return Err(err);
            }
            self.gpus[device].idle(backoff);
            self.stats.gpu_retries += 1;
            self.stats.backoff_s += backoff;
            if self.sink.is_enabled() {
                self.sink.counter_add("gpu_retries", 1.0);
            }
            backoff *= 2.0;
            attempts += 1;
        }
    }

    /// The CPU rung: run the members' functional bodies host-side into
    /// the backend-owned device buffers (frontends read back as usual)
    /// and charge CPU time and energy.
    fn run_cpu(&mut self, device: usize, group: &[KernelRequest], tasks: &[CpuTask]) {
        // The instances run on the host; results must still materialise
        // in the (backend-owned) device buffers the frontends will read.
        let (makespan, energy) = self.decision.run_on_cpu(tasks);
        for req in group {
            let body = req.workload.body();
            let args = self.resolved_args(req.ctx, &req.args);
            for b in 0..req.workload.blocks() {
                let ctx = BlockCtx {
                    block_idx: b,
                    num_blocks: req.workload.blocks(),
                    threads_per_block: req.workload.desc().threads_per_block,
                    args: &args,
                };
                body(&ctx, self.gpus[device].memory_mut());
            }
        }
        // CPU work occupies the host timeline; the device just waits for
        // the results to land.
        self.clock.advance_by(makespan.max(0.0));
        self.gpus[device].idle(makespan.max(0.0));
        self.stats.cpu_executions += group.len() as u64;
        self.stats.cpu_time_s += makespan;
        self.stats.cpu_energy_j += energy;
    }

    /// Queue a permanent failure for delivery at the context's next
    /// `sync`, and audit it.
    fn record_failure(&mut self, req: &KernelRequest, e: GpuError) {
        self.stats.failed_kernels += 1;
        self.failures.entry(req.ctx).or_default().push_back((
            req.seq,
            CoreError::KernelFailed {
                seq: req.seq,
                gpu: e.clone(),
            },
        ));
        if self.sink.is_enabled() {
            self.sink.counter_add("requests_failed", 1.0);
            self.sink.audit(DecisionRecord {
                time_s: self.clock.now_s(),
                kernels: vec![req.name.clone()],
                verdict: Verdict::Failed,
                consolidated: None,
                serial: None,
                cpu: None,
                reason: format!(
                    "kernel '{}' (ctx {}, seq {}) failed permanently: {e}",
                    req.name, req.ctx, req.seq
                ),
            });
        }
    }

    /// Audit one recovery decision (a hop down the degradation ladder).
    fn note_recovery(&mut self, members: &[KernelRequest], verdict: Verdict, reason: &str) {
        if !self.sink.is_enabled() {
            return;
        }
        self.sink.counter_add("recoveries", 1.0);
        self.sink.audit(DecisionRecord {
            time_s: self.clock.now_s(),
            kernels: members.iter().map(|r| r.name.clone()).collect(),
            verdict,
            consolidated: None,
            serial: None,
            cpu: None,
            reason: reason.to_string(),
        });
    }

    /// Move `device` to state `level` of the configured ladder. No-op
    /// without a power-state stack or when already there. Audited as
    /// [`Verdict::StateChanged`]; the device itself emits the
    /// `dvfs_level_gpu{d}` gauge and transition counter.
    fn apply_power_state(&mut self, device: usize, level: usize) -> bool {
        let Some((name, freq, latency)) = self.decision.power_policy().and_then(|ps| {
            ps.table.get(level).map(|s| {
                // Park states cannot run work; the engine clock scale is
                // irrelevant there, so leave it at the base clock.
                let freq = if s.can_run() { s.freq_scale } else { 1.0 };
                (s.name, freq, s.wake_latency_s)
            })
        }) else {
            return false;
        };
        let from = self.gpus[device].power_level();
        let changed = self.gpus[device].set_power_state(level as u32, freq, latency);
        if changed {
            self.stats.state_changes += 1;
            if self.sink.is_enabled() {
                self.sink.audit(DecisionRecord {
                    time_s: self.gpus[device].now_s(),
                    kernels: Vec::new(),
                    verdict: Verdict::StateChanged,
                    consolidated: None,
                    serial: None,
                    cpu: None,
                    reason: format!(
                        "gpu{device}: power state {} -> {name} (level {level})",
                        from.map_or_else(|| "p0".to_string(), |l| format!("level {l}")),
                    ),
                });
            }
        }
        changed
    }

    /// Replay power-cap throttles the governor recorded onto the
    /// actual devices so projections and simulated timing agree, and
    /// audit each as a state change driven by the fleet cap.
    fn sync_fleet_throttles(&mut self) {
        while self.fleet_throttles_seen < self.fleet.state_changes().len() {
            let rec = self.fleet.state_changes()[self.fleet_throttles_seen];
            self.fleet_throttles_seen += 1;
            let d = rec.device as usize;
            let Some(state) = self.fleet.spec(d).states.get(rec.to).copied() else {
                continue;
            };
            let freq = if state.can_run() {
                state.freq_scale
            } else {
                1.0
            };
            let changed = self.gpus[d].set_power_state(rec.to as u32, freq, state.wake_latency_s);
            if changed {
                self.stats.state_changes += 1;
                if self.sink.is_enabled() {
                    self.sink.audit(DecisionRecord {
                        time_s: self.gpus[d].now_s(),
                        kernels: Vec::new(),
                        verdict: Verdict::StateChanged,
                        consolidated: None,
                        serial: None,
                        cpu: None,
                        reason: format!(
                            "gpu{d}: power cap throttled level {} -> {} (level {})",
                            rec.from, state.name, rec.to
                        ),
                    });
                }
            }
        }
    }

    /// Record the verdict and the predictions that justified it.
    fn audit_decision(
        &self,
        assessment: &crate::decision::Assessment,
        group: &[KernelRequest],
        device: usize,
        forced: bool,
        tripped: bool,
        spilled: bool,
    ) {
        let state_note = match &assessment.state {
            Some(sd) => match sd.chosen(assessment.choice) {
                Some(c) => format!(
                    "; {} policy chose state {} ({:.3} J over horizon)",
                    sd.knob.label(),
                    c.state,
                    c.horizon_energy_j
                ),
                None => String::new(),
            },
            None => String::new(),
        };
        let reason = format!(
            "predicted energy: consolidated {:.3} J (margin-adjusted), serial {:.3} J, cpu {:.3} J{}{}{}{state_note}",
            assessment.consolidated.system_energy_j,
            assessment.serial.system_energy_j,
            assessment.cpu_energy_j,
            if forced { "; force_gpu overrode a CPU verdict" } else { "" },
            if tripped {
                format!("; circuit breaker open on gpu{device}, no healthy device: group tripped to CPU")
            } else {
                String::new()
            },
            if spilled {
                "; overload level 4: group spilled to the CPU lifeboat"
            } else {
                ""
            }
        );
        self.sink.audit(DecisionRecord {
            time_s: self.clock.now_s(),
            kernels: group.iter().map(|r| r.name.clone()).collect(),
            verdict: verdict_of(assessment.choice),
            consolidated: Some((
                assessment.consolidated.time_s,
                assessment.consolidated.system_energy_j,
            )),
            serial: Some((assessment.serial.time_s, assessment.serial.system_energy_j)),
            cpu: Some((assessment.cpu_time_s, assessment.cpu_energy_j)),
            reason,
        });
    }
}

/// Map the decision engine's [`Choice`] onto the telemetry [`Verdict`].
fn verdict_of(choice: Choice) -> Verdict {
    match choice {
        Choice::Consolidate => Verdict::Consolidate,
        Choice::SerialGpu => Verdict::SerialGpu,
        Choice::Cpu => Verdict::Cpu,
    }
}
