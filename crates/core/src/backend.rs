//! The backend (Section IV).
//!
//! "The backend is a daemon, launched before any workload execution...
//! it is the backend that really conducts the CUDA API calls and kernel
//! calls." It owns the node's GPUs; every device operation requested by
//! a frontend executes in the backend's context, so kernel-call
//! arguments are always valid device pointers. Host→device copies cross
//! process boundaries through a **pre-allocated staging buffer**
//! (process → buffer → device: two copies, the paper's main overhead),
//! and every frontend message pays a channel round trip. What the
//! backend knows of one frontend is one [`Context`] record, removed
//! whole when the frontend leaves.
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
#[cfg(test)]
mod lifecycle_tests;
mod migrate;
mod power;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use ewc_exec::{FxBuildHasher, Memo, VirtualClock};
use ewc_fleet::{FleetConfig, FleetGovernor, PlacementReason};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{DevicePtr, GpuDevice, GpuError};
use ewc_telemetry::{AuditEvent, DecisionRecord, TelemetrySink, Verdict};

use crate::admission::{AdmissionConfig, AdmissionDecision, AdmissionState, Priority, ShedCause};
use crate::config::RuntimeConfig;
use crate::decision::{Assessment, Choice, DecisionEngine};
use crate::leader::LeaderCoordinator;
use crate::optimize::ConstantCache;
use crate::protocol::{CoreError, ExecConfig, KernelRequest, RegisteredKernel};
use crate::resilience::RuntimeFaultInjector;
use crate::stats::BackendStats;
use crate::template::TemplateRegistry;

/// Bandwidth of host-to-host copies into and out of the staging buffer,
/// bytes/second.
const STAGING_BANDWIDTH: f64 = 1.2e9;

/// Size of the pre-allocated staging buffer, bytes. Transfers larger
/// than this are chunked (one extra round trip per chunk).
const STAGING_BUFFER_BYTES: u64 = 64 << 20;

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
        fleet_cfg.roster().len(),
        gpus.len(),
        "fleet spec must describe every device in the pool"
    );
    let fleet = FleetGovernor::new(&fleet_cfg, &cfg.resilience);
    // A sink that carries an executor clock lends it to the backend as
    // its host clock, so spans land on the exact timeline the caller is
    // driving.
    let clock = sink.virtual_clock().cloned().unwrap_or_default();
    // The one place the `Option` is read: no admission config means
    // limits that never bind, not a second code path.
    let limits = cfg.admission.clone();
    let admission = AdmissionState::new(limits.unwrap_or_else(AdmissionConfig::unbounded));
    let queued_on = vec![0; gpus.len()];
    let device_faults = vec![[0; 2]; gpus.len()];
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
        queued_on,
        device_faults,
        contexts: HashMap::default(),
        admission,
        next_seq: 0,
        clock,
        extract_scratch: Vec::new(),
        flush_scratch: Vec::new(),
        assessments: Memo::default(),
    };
    Arc::new(Mutex::new(Some(backend)))
}

/// Everything the backend holds for one connected frontend — the
/// paper's per-process GPU context. Created by the context's first
/// message, removed whole by [`Backend::reap`].
#[derive(Default)]
struct Context {
    /// The device its buffers live on (the governor's binding): set by
    /// the first call that needs one, moved by drain/migrate.
    device: Option<usize>,
    /// Its launches in `pending`: the queue depth admission reads.
    queued: usize,
    /// The captured `configure_call`, consumed by the next launch.
    config: Option<ExecConfig>,
    /// Forwarded `setup_argument` values (argument batching off).
    args: Vec<KernelArg>,
    /// Frontend-visible allocations (`(ptr, len)`), in allocation order
    /// — the buffer manifest drain/migrate moves and `reap` frees.
    allocs: Vec<(DevicePtr, u64)>,
    /// Constants the context registered (`(key, ptr, data)`): migration
    /// re-loads the data on the destination device.
    constants: Vec<(String, DevicePtr, Vec<u8>)>,
    /// Frontend pointer → actual device pointer after migration;
    /// identity when absent. Resolved at every execution/access site so
    /// frontends keep using the pointers malloc handed them.
    remap: HashMap<DevicePtr, DevicePtr>,
    /// Permanent failures awaiting delivery: each `sync` returns one.
    failures: VecDeque<(u64, CoreError)>,
}

impl Context {
    /// Actual device pointer behind a frontend-visible pointer.
    fn resolve(&self, ptr: DevicePtr) -> DevicePtr {
        self.remap.get(&ptr).copied().unwrap_or(ptr)
    }
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
    /// Runtime-boundary fault injector (channel drops), when attached.
    faults: Option<Arc<dyn RuntimeFaultInjector>>,
    /// The fleet governor: context→device placement, live-load
    /// accounting and per-device circuit breakers.
    fleet: FleetGovernor,
    /// `true` when the runtime configured an explicit fleet. Placement
    /// audit records are gated on this so default (fleet-less) runs keep
    /// their pre-fleet telemetry byte-identical.
    fleet_mode: bool,
    stats: BackendStats,
    pending: Vec<KernelRequest>,
    /// Launches in `pending` per device, by their context's binding;
    /// with [`Context::queued`], the depths admission reads without
    /// scanning the queue.
    queued_on: Vec<usize>,
    /// Per device, the faults its launches met and the breaker trips
    /// they caused: `stats.faults_observed` and `stats.breaker_trips`
    /// are their sums at shutdown.
    device_faults: Vec<[u64; 2]>,
    /// One record per connected frontend — the only context-keyed state
    /// the backend holds. Context ids are the runtime's own counter, so
    /// the fast hasher is safe here.
    contexts: HashMap<u64, Context, FxBuildHasher>,
    /// Admission controller + degradation ladder: always present,
    /// [`AdmissionConfig::unbounded`] when none was configured.
    admission: AdmissionState,
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
    /// Assessments by the group's kernel addresses in layout order (see
    /// [`Backend::assess`]).
    assessments: Memo<usize, Assessment>,
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

    /// The record of `ctx`, created on first touch.
    fn context(&mut self, ctx: u64) -> &mut Context {
        self.contexts.entry(ctx).or_default()
    }

    /// The device `ctx` is bound to, once placed.
    fn bound(&self, ctx: u64) -> Option<usize> {
        self.contexts.get(&ctx).and_then(|c| c.device)
    }

    /// Queued launches currently bound to device `d`.
    fn device_depth(&self, d: usize) -> usize {
        debug_assert_eq!(
            self.queued_on[d],
            self.pending
                .iter()
                .filter(|r| self.bound(r.ctx) == Some(d))
                .count(),
            "gpu{d}'s queue depth drifted from the queue"
        );
        self.queued_on[d]
    }

    /// Queued launches of context `ctx`.
    fn ctx_depth(&self, ctx: u64) -> usize {
        let queued = self.contexts.get(&ctx).map_or(0, |c| c.queued);
        debug_assert_eq!(
            queued,
            self.pending.iter().filter(|r| r.ctx == ctx).count(),
            "ctx {ctx}'s queue depth drifted from the queue"
        );
        queued
    }

    /// Book one launch of `ctx` into (`joined`) or out of the queue
    /// depths. Every queued launch's context has a record bound to a
    /// device: its launch created and bound it, and the record outlives
    /// the launch's stay in the queue.
    fn book_queued(&mut self, ctx: u64, joined: bool) {
        let step = |n: &mut usize| *n = if joined { *n + 1 } else { *n - 1 };
        let record = self.contexts.get_mut(&ctx);
        debug_assert!(
            record.as_ref().is_some_and(|c| c.device.is_some()),
            "queued launch of ctx {ctx} without a bound record"
        );
        if let Some(c) = record {
            step(&mut c.queued);
            if let Some(d) = c.device {
                step(&mut self.queued_on[d]);
            }
        }
    }

    /// Remove every pending request `take` selects, in submission
    /// order; the rest keep theirs.
    fn take_pending(&mut self, take: impl Fn(&KernelRequest) -> bool) -> Vec<KernelRequest> {
        // Almost every call takes nothing: look before rebuilding.
        if !self.pending.iter().any(&take) {
            return Vec::new();
        }
        let (taken, kept): (Vec<_>, _) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(take);
        self.pending = kept;
        for r in &taken {
            self.book_queued(r.ctx, false);
        }
        taken
    }

    /// Audit one permanent shed (admission-final or queue-age).
    fn audit_shed(&self, name: &Arc<str>, ctx: u64, seq: Option<u64>, cause: ShedCause) {
        if self.sink.is_enabled() {
            let event = AuditEvent::Shed {
                ctx,
                seq,
                cause: cause.label(),
            };
            let now = self.clock.now_s();
            self.sink.audit(DecisionRecord::event(
                now,
                Verdict::Shed,
                vec![name.clone()],
                event,
            ));
        }
    }

    /// Audit an event that weighed no candidates, naming `members`'
    /// kernels, at the host clock's now. `event` is built only on an
    /// enabled sink.
    fn audit_event(
        &self,
        verdict: Verdict,
        members: &[KernelRequest],
        event: impl FnOnce() -> AuditEvent,
    ) {
        if self.sink.is_enabled() {
            let kernels = members.iter().map(|r| r.kernel.name.clone()).collect();
            let now = self.clock.now_s();
            self.sink
                .audit(DecisionRecord::event(now, verdict, kernels, event()));
        }
    }

    /// Device assigned to a context (placed by the fleet governor on
    /// first touch).
    fn device_for(&mut self, ctx: u64) -> usize {
        if let Some(d) = self.bound(ctx) {
            return d;
        }
        // Overload coordination with the governor: a device sitting at
        // its admission bound is "overloaded but healthy" — steer new
        // contexts elsewhere so it sheds load before its breaker ever
        // trips. No device saturated is exactly the governor's `place`.
        let cap = self.admission.cfg.max_per_device;
        let saturated: Vec<bool> = (0..self.gpus.len())
            .map(|d| self.device_depth(d) >= cap)
            .collect();
        let rec = self.fleet.place_avoiding(ctx, &self.clock, &saturated);
        let d = rec.device as usize;
        let record = self.context(ctx);
        // Launches bind before they queue: nothing to book over.
        debug_assert_eq!(record.queued, 0, "ctx {ctx} queued while unbound");
        record.device = Some(d);
        if self.fleet_mode {
            self.audit_event(Verdict::Placed, &[], || AuditEvent::Placed {
                ctx,
                device: d,
                device_name: self.fleet.spec(d).name.clone(),
                policy: self.fleet.policy_label(),
                reason: rec.reason.label(),
            });
        }
        d
    }

    /// Actual device pointer behind a frontend-visible pointer:
    /// identity until drain/migrate moved the context's buffers.
    fn resolve(&self, ctx: u64, ptr: DevicePtr) -> DevicePtr {
        self.contexts.get(&ctx).map_or(ptr, |c| c.resolve(ptr))
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
            b.context(ctx).allocs.push((ptr, len));
            Ok(ptr)
        })
    }

    /// `cudaFree`.
    pub(crate) fn free(&mut self, ctx: u64, ptr: DevicePtr) -> Result<(), CoreError> {
        self.rpc("free", ctx, |b| {
            let d = b.device_for(ctx);
            let actual = b.resolve(ctx, ptr);
            b.gpus[d].free(actual)?;
            let c = b.context(ctx);
            c.allocs.retain(|(p, _)| *p != ptr);
            c.remap.remove(&ptr);
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
            // Staging is paid by bytes that moved, or by an injected
            // fault that burned the link — not by a read the device
            // refused (bad pointer, out of bounds).
            if r.as_ref().err().is_none_or(GpuError::is_transient) {
                b.charge_staging(len);
            }
            r.map(|(bytes, _)| bytes).map_err(CoreError::from)
        })
    }

    /// `cudaConfigureCall`: capture the execution configuration.
    pub(crate) fn configure_call(&mut self, ctx: u64, config: ExecConfig) {
        self.rpc("configure_call", ctx, |b| {
            b.context(ctx).config = Some(config);
        })
    }

    /// `cudaSetupArgument`, when argument batching is off.
    pub(crate) fn setup_argument(&mut self, ctx: u64, arg: KernelArg) {
        self.rpc("setup_argument", ctx, |b| {
            b.context(ctx).args.push(arg);
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
                if let Some(c) = b.contexts.get_mut(&ctx) {
                    c.args.clear();
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
                    let held = &mut b.context(ctx).constants;
                    if !held.iter().any(|(k, _, _)| k == key) {
                        held.push((key.to_string(), up.ptr, data.to_vec()));
                    }
                }
                Err(e) => {
                    // The error reaches the frontend in the answer; it
                    // must also be visible backend-side, not swallowed.
                    b.stats.constant_errors += 1;
                    if b.sink.is_enabled() {
                        let now = b.clock.now_s();
                        b.sink
                            .span("host", "backend", "constant_error", now, now)
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
            let record = b.contexts.get_mut(&ctx);
            match record.and_then(|c| c.failures.pop_front()) {
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
        self.stats.decision_reuses = self.assessments.reuses();
        for (gpu, [faults, trips]) in self.gpus.iter().zip(&self.device_faults) {
            self.stats.simulation_reuses += gpu.simulation_reuses();
            self.stats.launches += gpu.launch_count();
            self.stats.state_changes += gpu.state_transitions().len() as u64;
            self.stats.faults_observed += faults;
            self.stats.breaker_trips += trips;
        }
        self.project_counters();
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
    }

    /// Write each device's telemetry counters and gauge, then the
    /// backend's, from the counts they keep, once `stats` is final. A
    /// count of zero writes nothing, so a run without faults reports none.
    fn project_counters(&self) {
        for gpu in &self.gpus {
            gpu.project_counters();
        }
        let Some(mut rec) = self.sink.lock() else {
            return;
        };
        let st = &self.stats;
        let verdicts = |choice| st.records.iter().filter(|r| r.choice == choice).count() as u64;
        let recoveries =
            st.serial_fallbacks + st.cpu_fallbacks + st.breaker_trips + st.deadline_escalations;
        let totals = [
            ("groups", st.records.len() as u64),
            ("verdict_consolidate", verdicts(Choice::Consolidate)),
            ("verdict_serial_gpu", verdicts(Choice::SerialGpu)),
            ("verdict_cpu", verdicts(Choice::Cpu)),
            ("staged_bytes", st.staged_bytes),
            ("channel_retransmits", st.retransmits),
            ("busy_rejections", st.busy_rejections),
            ("requests_shed", st.shed_requests),
            ("constant_errors", st.constant_errors),
            ("gpu_faults", st.faults_observed),
            ("gpu_retries", st.gpu_retries),
            ("breaker_trips", st.breaker_trips),
            ("deadline_escalations", st.deadline_escalations),
            ("recoveries", recoveries),
            ("requests_failed", st.failed_kernels),
            ("migrations", st.migrations),
            ("frontends_reaped", st.reaped_frontends),
            ("requests_drained", st.drained_requests),
        ];
        let mut add = |name: &str, n: u64| {
            if n > 0 {
                rec.counter_add(name, n as f64);
            }
        };
        for (name, n) in totals {
            add(name, n);
        }
        for (d, [faults, trips]) in self.device_faults.iter().enumerate() {
            let on_d = |migrated: bool| {
                st.placements
                    .iter()
                    .filter(|p| p.device as usize == d)
                    .filter(|p| (p.reason == PlacementReason::Migrated) == migrated)
                    .count() as u64
            };
            let gpu = d.to_string();
            add(&["gpu_faults_gpu", &gpu].concat(), *faults);
            add(&["breaker_trips_gpu", &gpu].concat(), *trips);
            add(&["migrations_gpu", &gpu].concat(), on_d(true));
            if self.fleet_mode {
                add(&["placements_gpu", &gpu].concat(), on_d(false));
            }
        }
        if st.degradation_steps > 0 {
            rec.gauge_set("degradation_level", f64::from(self.admission.level()));
        }
    }

    /// A departed frontend: remove its record, release what it owned,
    /// account for it. Runs once per context — `Frontend::drop` is the
    /// only way a context leaves.
    fn reap(&mut self, ctx: u64) {
        // A frontend that never sent a message left nothing behind.
        if !self.contexts.contains_key(&ctx) {
            return;
        }
        // Group peers must not wait on a corpse. Drained while the
        // record still books their queue depth.
        let drained = self.take_pending(|r| r.ctx == ctx);
        let Some(gone) = self.contexts.remove(&ctx) else {
            return;
        };
        // Failure notices queued for a dead context can never be
        // delivered (delivery is pull-based, at sync): account for
        // them, so no request silently vanishes from the books.
        self.stats.undelivered_failures += gone.failures.len() as u64;
        // Its device memory goes back to the card it ended on — raw
        // frees, as in `migrate_ctx`: a dying process pays nothing.
        // Constants stay: a device-lifetime cache shared across
        // contexts.
        if let Some(d) = gone.device {
            for (ptr, _) in &gone.allocs {
                let _ = self.gpus[d].memory_mut().free(gone.resolve(*ptr));
            }
            // Its binding goes back too, so the governor's live-context
            // counts track surviving frontends.
            self.fleet.release(d);
        }
        self.stats.drained_requests += drained.len() as u64;
        // A clean disconnect with nothing pending is the normal end of a
        // process's life — not worth a log line or a stat.
        if drained.is_empty() {
            return;
        }
        self.stats.reaped_frontends += 1;
        self.audit_event(Verdict::Drained, &drained, || AuditEvent::Reaped { ctx });
    }

    /// Host-to-host copy into/out of the pre-allocated staging buffer:
    /// bytes over staging bandwidth, plus one extra channel round trip
    /// per buffer-sized chunk beyond the first.
    fn charge_staging(&mut self, bytes: u64) {
        let start_s = self.clock.now_s();
        let copy_s = bytes as f64 / STAGING_BANDWIDTH;
        let chunks = bytes.div_ceil(STAGING_BUFFER_BYTES).max(1);
        let extra = (chunks - 1) as f64 * self.cfg.channel_latency_s;
        self.stats.staged_bytes += bytes;
        self.stats.staging_s += copy_s + extra;
        self.clock.advance_by(copy_s + extra);
        if self.sink.is_enabled() {
            self.sink
                .span("host", "backend", "staging", start_s, self.clock.now_s())
                .attr("bytes", bytes)
                .emit();
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
        let record = self.context(ctx);
        let config = record.config.take().ok_or(CoreError::NotConfigured)?;
        let registered = ExecConfig {
            grid_blocks: kernel.blocks,
            threads_per_block: kernel.desc.threads_per_block,
        };
        if config != registered {
            return Err(CoreError::BadConfiguration {
                configured: config,
                registered,
            });
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
        let now = self.clock.now_s();
        let device_depth = self.device_depth(d);
        let ctx_depth = self.ctx_depth(ctx);
        let decision = self
            .admission
            .admit(now, device_depth, ctx_depth, priority, attempt);
        match decision {
            AdmissionDecision::Admit => {}
            AdmissionDecision::Busy { cause } => {
                self.stats.busy_rejections += 1;
                // Restore the configuration so the retry does not need
                // to re-send configure_call.
                self.context(ctx).config = Some(config);
                let retry_after_s = self.admission.retry_after_s();
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
        let args = match batched_args {
            Some(a) => a,
            None => std::mem::take(&mut self.context(ctx).args),
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
        self.book_queued(ctx, true);
        self.stats.max_pending_depth = self.stats.max_pending_depth.max(self.pending.len() as u64);
        Ok(seq)
    }
}
