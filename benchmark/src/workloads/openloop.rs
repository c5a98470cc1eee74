//! The two full-stack request workloads, `openloop_storm` and
//! `fleet_policy_burst`.
//!
//! The driver below is the benchmark's own copy of the loop in
//! `ewc_load::openloop::run`, rebuilt from the same public API so that it
//! can time each call it makes (`configure_call`, `launch_with`, `sync`,
//! `shutdown`) and remember when every request was due. It must stay
//! behaviourally identical to that loop: same seeds, same RNG draws in
//! the same order, same quiesce before the schedule is laid down.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ewc_core::{
    AdmissionConfig, BackendStats, CoreError, Frontend, PowerStatesConfig, Priority, Runtime,
    RuntimeConfig, RuntimeReport, Template,
};
use ewc_exec::{Executor, SimTask, VirtualClock};
use ewc_fleet::{FleetConfig, PolicyKind};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{GpuConfig, KernelDesc, SimRng};
use ewc_load::openloop::{ClientCounts, LoadConfig};
use ewc_load::ArrivalGen;
use ewc_telemetry::{TelemetrySink, TelemetrySnapshot};
use ewc_workloads::calibrate::latency_bound;
use ewc_workloads::{SearchWorkload, Workload as Kernel};

use crate::env;
use crate::replay::{self, Session};
use crate::run::{Fingerprint, LayerReport, Rep, Workload};
use crate::spans::SpanLog;
use crate::stats::{latency_summary, median, sorted, tail_percentile};

/// The registry name every stream launches.
const KERNEL: &str = "search";

/// Seed domains, as in `ewc_load::openloop`.
const ARRIVAL_DOMAIN: u64 = 0xa441_4a11;
const BEHAVIOR_DOMAIN: u64 = 0xbe4a_0b57;

fn stream_seed(master: u64, domain: u64, s: u64) -> u64 {
    master ^ domain ^ (s + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The harness's small search kernel (~2 KiB of text, `target_s` solo).
fn tiny_search(cfg: &GpuConfig, target_s: f64) -> SearchWorkload {
    let desc = KernelDesc::builder("substring_search")
        .threads_per_block(64)
        .regs_per_thread(16)
        .shared_mem_per_block(1024)
        .build();
    let desc = latency_bound(desc, target_s, 0.30, cfg);
    SearchWorkload::new(2048, b"gpu".to_vec(), desc, 2, 2.0 * target_s, 2, 64 << 10)
}

/// One request-stream scenario.
pub struct OpenLoop {
    name: &'static str,
    cfg: LoadConfig,
    fleet: Option<FleetConfig>,
    /// Render the Chrome-trace and JSONL exports inside the timed region
    /// (what a user with telemetry on pays). They are rendered, not
    /// written: 160 MB of file writes per repetition measured the disk.
    export: bool,
    /// What the last traced repetition recorded, for the replays.
    last: Option<Recorded>,
}

/// Everything a recorded repetition keeps for the replays.
struct Recorded {
    stats: BackendStats,
    /// `(clock now, priority, attempt)` of every launch attempt, in
    /// fire order.
    attempts: Vec<(f64, Priority, u32)>,
    /// Host seconds spent in launch round trips.
    launch_wall_s: f64,
    /// Host seconds of the whole timed region.
    wall_s: f64,
    generated: u64,
    /// Fires (arrivals + retries).
    events: u64,
    /// Arrival instants, for the isolated queue probe.
    due_s: Vec<f64>,
    /// p99 of clock-now minus scheduled instant at fire.
    lag_p99_s: f64,
    gen_ns_per_arrival: f64,
    /// Median `build_args` per stream, µs.
    build_args_us: f64,
    /// Driver-thread voluntary context switches over the timed region.
    vol_ctx_switches: u64,
    telemetry_events: u64,
    export_s: f64,
    export_bytes: u64,
    /// Power-meter samples in the snapshot.
    meter_samples: u64,
}

impl OpenLoop {
    /// `openloop_storm`: 256 streams × 256 Poisson arrivals at 2×, preset
    /// admission, one GPU, nothing optional switched on.
    pub fn storm(seed: u64, smoke: bool) -> Self {
        let mut cfg = LoadConfig::storm(seed);
        (cfg.streams, cfg.arrivals_per_stream) = if smoke { (16, 16) } else { (256, 256) };
        OpenLoop {
            name: "openloop_storm",
            cfg,
            fleet: None,
            export: false,
            last: None,
        }
    }

    /// `fleet_policy_burst`: bursty MMPP at 8×, 20 ms kernel, four
    /// heterogeneous devices under `FragAware` with the DVFS ladder, the
    /// race-to-idle policy, queue-bound admission, telemetry recorded
    /// and exported.
    pub fn fleet_burst(seed: u64, smoke: bool) -> Self {
        let mut cfg = LoadConfig::scaled(seed, LoadConfig::bursty(), 8.0);
        (cfg.streams, cfg.arrivals_per_stream) = if smoke { (16, 16) } else { (128, 256) };
        cfg.kernel_target_s = 20e-3;
        cfg.admission = Some(AdmissionConfig {
            max_per_device: 256,
            max_per_ctx: 32,
            ..AdmissionConfig::default()
        });
        cfg.power_states = Some(PowerStatesConfig::race());
        cfg.telemetry = true;
        OpenLoop {
            name: "fleet_policy_burst",
            cfg,
            fleet: Some(
                FleetConfig::heterogeneous(4)
                    .with_policy(PolicyKind::FragAware)
                    .with_dvfs(),
            ),
            export: true,
            last: None,
        }
    }
}

/// One live request stream.
struct Stream {
    fe: Frontend,
    args: Vec<KernelArg>,
    rng: SimRng,
}

/// Executor state.
struct Harness<'a> {
    streams: Vec<Stream>,
    counts: ClientCounts,
    p_low: f64,
    p_high: f64,
    grid_blocks: u32,
    threads_per_block: u32,
    /// Launch ticket per request (`u64::MAX` until admitted).
    ticket: Vec<u64>,
    /// One latency sample per fire: `configure_call` + `launch_with`, ns.
    fire_ns: Vec<u64>,
    /// Clock-now minus scheduled instant per fire.
    lag_s: Vec<f64>,
    launch_ns: u64,
    /// Keep the attempt sequence for the admission replay.
    record: bool,
    attempts: Vec<(f64, Priority, u32)>,
    spans: Option<&'a mut SpanLog>,
    run_span: u32,
}

/// One event on the virtual timeline.
enum LoadTask {
    Arrive {
        s: usize,
        req: u32,
        at_s: f64,
    },
    Retry {
        s: usize,
        req: u32,
        at_s: f64,
        attempt: u32,
        priority: Priority,
    },
}

impl<'a> SimTask<Harness<'a>> for LoadTask {
    fn fire(self, now_s: f64, st: &mut Harness<'a>, exec: &mut Executor<Harness<'a>, Self>) {
        let (s, req, at_s, attempt, priority) = match self {
            LoadTask::Arrive { s, req, at_s } => {
                let u = st.streams[s].rng.next_f64();
                let priority = if u < st.p_low {
                    Priority::Low
                } else if u < st.p_low + st.p_high {
                    Priority::High
                } else {
                    Priority::Normal
                };
                (s, req, at_s, 0, priority)
            }
            LoadTask::Retry {
                s,
                req,
                at_s,
                attempt,
                priority,
            } => (s, req, at_s, attempt, priority),
        };
        st.lag_s.push(now_s - at_s);
        let (grid_blocks, threads_per_block) = (st.grid_blocks, st.threads_per_block);
        let stream = &mut st.streams[s];
        let t_fire = Instant::now();
        let configured = stream.fe.configure_call(grid_blocks, threads_per_block);
        let t_launch = Instant::now();
        if configured.is_err() {
            st.counts.client_errors += 1;
            return;
        }
        let answer = stream
            .fe
            .launch_with(KERNEL, stream.args.clone(), priority, attempt);
        let t_done = Instant::now();
        st.fire_ns.push((t_done - t_fire).as_nanos() as u64);
        st.launch_ns += (t_done - t_launch).as_nanos() as u64;
        if let Some(spans) = st.spans.as_deref_mut() {
            let fire = spans.push(st.run_span, req + 1, "fire", t_fire, t_done);
            spans.push(fire, req + 1, "Frontend::configure_call", t_fire, t_launch);
            spans.push(fire, req + 1, "Frontend::launch_with", t_launch, t_done);
        }
        if st.record {
            st.attempts.push((now_s, priority, attempt));
        }
        match answer {
            Ok(seq) => {
                st.counts.admitted += 1;
                st.ticket[req as usize] = seq;
            }
            Err(CoreError::Busy { retry_after_us, .. }) => {
                st.counts.busy_answers += 1;
                let jitter = stream.rng.range_f64(0.0, 0.5);
                let delay_s = retry_after_us as f64 * 1e-6 * (1.0 + jitter);
                let at_s = exec.clock().now_s() + delay_s;
                exec.schedule_at(
                    at_s,
                    LoadTask::Retry {
                        s,
                        req,
                        at_s,
                        attempt: attempt + 1,
                        priority,
                    },
                );
            }
            Err(CoreError::Shed { .. }) => st.counts.shed_at_admission += 1,
            Err(_) => st.counts.client_errors += 1,
        }
    }
}

/// p99 of completion minus the instant the request was *due* (its first
/// attempt), joined to the backend's outcome records by launch ticket —
/// so time spent in `Busy` backoff counts as waiting.
fn due_latency_p99(stats: &BackendStats, ticket: &[u64], due_s: &[f64]) -> f64 {
    let mut due_of_seq = vec![f64::NAN; stats.kernel_outcomes.len().max(1)];
    for (req, &seq) in ticket.iter().enumerate() {
        if seq != u64::MAX {
            let seq = seq as usize;
            if seq >= due_of_seq.len() {
                due_of_seq.resize(seq + 1, f64::NAN);
            }
            due_of_seq[seq] = due_s[req];
        }
    }
    let lat: Vec<f64> = stats
        .kernel_outcomes
        .iter()
        .filter_map(|o| {
            let due = *due_of_seq.get(o.seq as usize)?;
            due.is_finite().then_some(o.completed_at_s - due)
        })
        .collect();
    tail_percentile(&sorted(&lat)).0
}

fn fingerprint(report: &RuntimeReport, counts: &ClientCounts) -> u64 {
    let mut h = Fingerprint::default();
    h.bits(&[report.elapsed_s, report.energy.energy_j]);
    h.debug(&report.stats);
    h.debug(counts);
    h.finish()
}

fn telemetry_events(snap: &TelemetrySnapshot) -> u64 {
    (snap.spans.len() + snap.audit.len() + snap.series.values().map(Vec::len).sum::<usize>()) as u64
}

impl OpenLoop {
    fn runtime(&self, clock: &VirtualClock, telemetry: bool, w: &Arc<SearchWorkload>) -> Runtime {
        let cfg = &self.cfg;
        let sink = if telemetry {
            TelemetrySink::enabled_virtual(clock.clone())
        } else {
            TelemetrySink::disabled_virtual(clock.clone())
        };
        Runtime::builder(RuntimeConfig {
            num_gpus: cfg.num_gpus,
            threshold_factor: cfg.threshold_factor,
            max_pending_wait_s: cfg.max_pending_wait_s,
            coordination_s: cfg.coordination_s,
            channel_latency_s: cfg.channel_latency_s,
            noise_seed: Some(cfg.seed),
            admission: cfg.admission.clone(),
            power_states: cfg.power_states.clone(),
            fleet: self.fleet.clone(),
            ..RuntimeConfig::default()
        })
        .telemetry(sink)
        .workload(KERNEL, Arc::clone(w) as Arc<dyn Kernel>)
        .template(Template::homogeneous(KERNEL))
        .build()
    }

    /// One repetition with the telemetry sink as given (the flipped pass
    /// of the traced run passes the opposite of the scenario's own);
    /// `record` keeps what the replays need in `self.last`.
    fn rep_with(&mut self, telemetry: bool, record: bool, mut spans: Option<&mut SpanLog>) -> Rep {
        let cfg = self.cfg.clone();
        let generated = cfg.generated();

        // ---- set-up (outside the timed region) ----
        let gpu_cfg = GpuConfig::tesla_c1060();
        let w = Arc::new(tiny_search(&gpu_cfg, cfg.kernel_target_s));
        let clock = VirtualClock::new();
        let mut exec: Executor<Harness, LoadTask> = Executor::with_clock(clock.clone());
        let rt = self.runtime(&clock, telemetry, &w);

        let mut streams = Vec::with_capacity(cfg.streams);
        let mut build_us = Vec::with_capacity(cfg.streams);
        for s in 0..cfg.streams {
            let mut fe = rt.connect();
            let t = Instant::now();
            let (args, _bufs) = w
                .build_args(&mut fe, cfg.seed ^ s as u64)
                .expect("stream argument build");
            build_us.push(t.elapsed().as_secs_f64() * 1e6);
            fe.configure_call(w.blocks(), w.desc().threads_per_block)
                .expect("stream configure");
            streams.push(Stream {
                fe,
                args,
                rng: SimRng::seed_from_u64(stream_seed(cfg.seed, BEHAVIOR_DOMAIN, s as u64)),
            });
        }
        // Quiesce before `t0` is read, as the harness does.
        if let Some(stream) = streams.last() {
            stream.fe.sync().expect("setup quiesce sync");
        }

        let t0_s = exec.clock().now_s();
        let per_stream = cfg.process.scaled(1.0 / cfg.streams.max(1) as f64);
        let mut arrivals: Vec<(f64, usize)> = Vec::with_capacity(generated as usize);
        let t_gen = Instant::now();
        for s in 0..cfg.streams {
            let mut rng = SimRng::seed_from_u64(stream_seed(cfg.seed, ARRIVAL_DOMAIN, s as u64));
            let mut gen = ArrivalGen::new(per_stream.clone());
            let mut t = t0_s;
            for _ in 0..cfg.arrivals_per_stream {
                t += gen.next_gap_s(&mut rng);
                arrivals.push((t, s));
            }
        }
        let gen_ns_per_arrival = t_gen.elapsed().as_nanos() as f64 / generated.max(1) as f64;
        let due_s: Vec<f64> = arrivals.iter().map(|a| a.0).collect();

        let mut harness = Harness {
            streams,
            counts: ClientCounts::default(),
            p_low: cfg.p_low,
            p_high: cfg.p_high,
            grid_blocks: w.blocks(),
            threads_per_block: w.desc().threads_per_block,
            ticket: vec![u64::MAX; generated as usize],
            fire_ns: Vec::with_capacity(4 * generated as usize),
            lag_s: Vec::with_capacity(4 * generated as usize),
            launch_ns: 0,
            record,
            attempts: Vec::with_capacity(if record { 4 * generated as usize } else { 0 }),
            spans: None,
            run_span: 0,
        };

        // ---- timed region: first schedule call to shutdown return ----
        let ctx0 = env::vol_ctx_switches();
        let t_run = Instant::now();
        for (req, &(t, s)) in arrivals.iter().enumerate() {
            exec.schedule_at(
                t,
                LoadTask::Arrive {
                    s,
                    req: req as u32,
                    at_s: t,
                },
            );
        }
        let t_idle = Instant::now();
        if let Some(log) = spans.as_deref_mut() {
            log.push(0, 0, "Executor::schedule_at", t_run, t_idle);
            harness.run_span = log.open(0, 0, "Executor::run_until_idle", t_idle);
        }
        harness.spans = spans;
        exec.run_until_idle(&mut harness);
        let t_drain = Instant::now();
        let mut spans = harness.spans.take();
        if let Some(log) = spans.as_deref_mut() {
            log.close(harness.run_span, t_drain);
        }

        // Drain every stream: each sync returns one queued terminal
        // notice (age-shed or permanent failure) until none remain.
        let mut sync_us = Vec::with_capacity(harness.streams.len());
        for stream in &mut harness.streams {
            loop {
                let t = Instant::now();
                let r = stream.fe.sync();
                let t_end = Instant::now();
                sync_us.push((t_end - t).as_secs_f64() * 1e6);
                if let Some(log) = spans.as_deref_mut() {
                    log.push(0, 0, "Frontend::sync", t, t_end);
                }
                match r {
                    Ok(()) => break,
                    Err(CoreError::Shed { .. }) => harness.counts.shed_notices += 1,
                    Err(CoreError::KernelFailed { .. }) => harness.counts.failure_notices += 1,
                    Err(_) => {
                        harness.counts.client_errors += 1;
                        break;
                    }
                }
            }
        }
        let Harness {
            streams,
            counts,
            ticket,
            fire_ns,
            lag_s,
            launch_ns,
            attempts,
            ..
        } = harness;
        drop(streams); // disconnect every frontend before shutdown
        let t_shutdown = Instant::now();
        let report = rt.shutdown();
        let t_export = Instant::now();
        if let Some(log) = spans.as_deref_mut() {
            log.push(0, 0, "Runtime::shutdown", t_shutdown, t_export);
        }
        let mut export_bytes = 0u64;
        if let (true, Some(snap)) = (self.export && telemetry, &report.telemetry) {
            let chrome = ewc_telemetry::export::chrome::render(snap);
            let jsonl = ewc_telemetry::export::jsonl::render(snap);
            export_bytes = (chrome.len() + jsonl.len()) as u64;
            black_box((chrome, jsonl));
        }
        let t_end = Instant::now();
        if let (Some(log), true) = (spans, export_bytes > 0) {
            log.push(0, 0, "telemetry::export", t_export, t_end);
        }
        let wall_s = (t_end - t_run).as_secs_f64();
        let vol_ctx_switches = env::vol_ctx_switches() - ctx0;
        let export_s = (t_end - t_export).as_secs_f64();

        // ---- checks and simulated results (untimed) ----
        let stats = &report.stats;
        let completed = stats.kernel_outcomes.len() as u64;
        let mut violations = Vec::new();
        let accounted =
            completed + stats.failed_kernels + stats.shed_requests + stats.drained_requests;
        if generated != accounted {
            violations.push(format!(
                "conservation: generated {generated} != completed {completed} + failed {} + shed {} + drained {}",
                stats.failed_kernels, stats.shed_requests, stats.drained_requests
            ));
        }
        if stats.shed_requests != counts.shed_at_admission + counts.shed_notices {
            violations.push(format!(
                "shed accounting: backend {} != client {} + {}",
                stats.shed_requests, counts.shed_at_admission, counts.shed_notices
            ));
        }
        if counts.client_errors > 0 {
            violations.push(format!("{} client errors", counts.client_errors));
        }
        let fire_us: Vec<f64> = fire_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let rep = Rep {
            wall_s,
            attempted: generated,
            completed,
            failed: stats.failed_kernels + stats.drained_requests + counts.client_errors,
            refused: stats.shed_requests,
            op_us: latency_summary(&fire_us),
            sim_time_s: report.elapsed_s,
            sim_energy_j: report.energy.energy_j + stats.cpu_energy_j,
            sim_p99_latency_s: due_latency_p99(stats, &ticket, &due_s),
            fingerprint: fingerprint(&report, &counts),
            violations,
        };
        if record {
            let (events, meter_samples) = report.telemetry.as_ref().map_or((0, 0), |snap| {
                let meter = snap
                    .series
                    .iter()
                    .filter(|(k, _)| k.starts_with("power_w/"))
                    .map(|(_, v)| v.len())
                    .sum::<usize>();
                (telemetry_events(snap), meter as u64)
            });
            self.last = Some(Recorded {
                attempts,
                launch_wall_s: launch_ns as f64 * 1e-9,
                wall_s,
                generated,
                events: fire_ns.len() as u64,
                due_s,
                lag_p99_s: tail_percentile(&sorted(&lag_s)).0,
                gen_ns_per_arrival,
                build_args_us: median(&build_us),
                vol_ctx_switches,
                telemetry_events: events,
                export_s,
                export_bytes,
                meter_samples,
                stats: report.stats,
            });
        }
        rep
    }
}

impl Workload for OpenLoop {
    fn rep(&mut self, spans: Option<&mut SpanLog>) -> Rep {
        let record = spans.is_some();
        self.rep_with(self.cfg.telemetry, record, spans)
    }

    fn span_capacity(&self) -> usize {
        // Three spans per fire; storms fire ~2.4× per request.
        16 * self.cfg.generated() as usize
    }

    fn layers(&mut self, spans: &SpanLog, out: &mut LayerReport) {
        let rec = self.last.take().expect("a traced repetition ran");
        let ops = rec.generated as f64;
        let stats = &rec.stats;

        // (c) One plain pass with the sink flipped, against the plain
        // passes as configured: the wall ratio is what telemetry costs.
        let peak_before_mb = env::peak_rss_mb();
        let flipped = self.rep_with(!self.cfg.telemetry, true, None);
        let peak_grown_mb = env::peak_rss_mb() - peak_before_mb;
        let flipped_rec = self.last.take().expect("the flipped pass recorded");
        let (on_wall, off_wall, on_rec) = if self.cfg.telemetry {
            (out.plain_wall_s, flipped.wall_s, &rec)
        } else {
            (flipped.wall_s, out.plain_wall_s, &flipped_rec)
        };
        let events = on_rec.telemetry_events;
        let v = &mut out.values;
        v.insert("telemetry.on_wall_ratio", on_wall / off_wall);
        v.insert("telemetry.events", events as f64);
        // What the sink-on pass added to the process's peak, per event.
        // Only measurable where telemetry is off by default, so that the
        // sink-on pass is the one that raises the peak; where it is on
        // by default `peak_rss_mb` already carries it.
        if !self.cfg.telemetry {
            v.insert(
                "telemetry.rss_bytes_per_event",
                peak_grown_mb * 1024.0 * 1024.0 / events.max(1) as f64,
            );
        }
        v.insert("telemetry.export_s", rec.export_s);
        v.insert("telemetry.export_mb", rec.export_bytes as f64 / 1e6);
        v.insert("telemetry.record_ns", replay::telemetry_record_ns());
        v.insert("energy.meter_samples", on_rec.meter_samples as f64);
        drop(flipped_rec);

        v.insert("load.gen_ns_per_arrival", rec.gen_ns_per_arrival);
        v.insert("load.sim_lag_p99_s", rec.lag_p99_s);
        v.insert("workloads.build_args_us", rec.build_args_us);
        v.insert("exec.events", rec.events as f64);
        v.insert("exec.queue_ns_per_op", replay::queue_ns_per_op(&rec.due_s));

        let span_us = |name: &str| spans.durations_us(name);
        let exec_self_ns = spans
            .layer_times()
            .get("Executor::run_until_idle")
            .map_or(0.0, |t| t.self_ns as f64);
        v.insert(
            "exec.self_ns_per_event",
            exec_self_ns / rec.events.max(1) as f64,
        );
        let configure = latency_summary(&span_us("Frontend::configure_call"));
        let launch = latency_summary(&span_us("Frontend::launch_with"));
        v.insert("transport.configure_us_p50", configure.0);
        v.insert("transport.launch_us_p50", launch.0);
        v.insert("transport.launch_us_p99", launch.1);
        v.insert("transport.sync_us_p50", median(&span_us("Frontend::sync")));
        v.insert("transport.msgs_per_op", stats.messages as f64 / ops);
        v.insert(
            "transport.staged_bytes_per_op",
            stats.staged_bytes as f64 / ops,
        );
        v.insert(
            "transport.vol_ctx_switches_per_op",
            rec.vol_ctx_switches as f64 / ops,
        );
        v.insert("transport.memcpy_mb_per_s", replay::memcpy_mb_per_s(2048));
        v.insert("admission.busy_per_op", stats.busy_rejections as f64 / ops);
        v.insert("admission.shed_frac", stats.shed_requests as f64 / ops);
        v.insert(
            "admission.max_pending_depth",
            stats.max_pending_depth as f64,
        );
        v.insert(
            "admission.degradation_steps",
            stats.degradation_steps as f64,
        );
        let w = tiny_search(&GpuConfig::tesla_c1060(), self.cfg.kernel_target_s);
        let session = [Session {
            stats,
            kernels: vec![(KERNEL, &w as &dyn Kernel)],
        }];
        replay::backend_counts(&session, out);

        // (b) Replay the backend-side layers on what the run recorded.
        let admit_ns = self
            .cfg
            .admission
            .as_ref()
            .map_or(0.0, |adm| replay::admission(adm, &rec.attempts, out));
        let backend = replay::backend_layers(
            &session,
            self.cfg.power_states.as_ref(),
            self.cfg.seed,
            ops,
            out,
        );
        let fleet_cfg = self
            .fleet
            .clone()
            .unwrap_or_else(|| FleetConfig::homogeneous(self.cfg.num_gpus as usize));
        replay::fleet(&fleet_cfg, self.cfg.streams as u64, out);

        // The ledger: what one request costs on the host, and which
        // replayed layer accounts for how much of it. Launch round trips
        // block on the backend, so admission, decision, engine and CPU
        // fallback all run inside them; what the round trips cost beyond
        // the replays is the transport's own (channel hops, wake-ups,
        // message handling, the backend's bookkeeping).
        let inside_launch = admit_ns + backend.decision_ns + backend.gpu_ns + backend.cpu_ns;
        let residual = rec.launch_wall_s * 1e9 - inside_launch;
        out.values
            .insert("transport.residual_ns_per_op", residual / ops);
        let total = rec.wall_s * 1e9;
        let mut ledger = format!(
            "host-time ledger of {}, traced repetition, per request (replays omit waiting and cache interference):",
            self.name
        );
        let rows: [(&str, f64); 9] = [
            ("admission (replayed)", admit_ns),
            ("decision (replayed)", backend.decision_ns),
            ("gpu engine (replayed)", backend.gpu_ns),
            ("cpu engine (replayed)", backend.cpu_ns),
            ("transport residual", residual),
            ("= launch round trips", rec.launch_wall_s * 1e9),
            ("exec self", exec_self_ns),
            ("energy integrate (replayed)", backend.energy_ns),
            ("measured host time", total),
        ];
        for (label, ns) in rows {
            ledger.push_str(&format!(
                "\n#   {label:<28} {:>10.1} ns  {:>5.1} %",
                ns / ops,
                100.0 * ns / total
            ));
        }
        out.notes.push(ledger);
        if residual < -0.10 * total {
            out.violations.push(format!(
                "ledger: transport residual is {:.1} % of the measured host time — a replay overstates its layer",
                100.0 * residual / total
            ));
        }
    }
}
