//! The open-loop overload harness.
//!
//! Every request stream is a lightweight state record plus cheap
//! [`SimTask`]s on the discrete-event executor — no OS thread per
//! "user", so 10⁵ concurrent streams is an event-count problem. Arrival
//! instants are precomputed per stream from a dedicated [`SimRng`]
//! (schedule-then-run, the trace-replay pattern), which keeps the
//! schedule bitwise-reproducible no matter how the backend advances the
//! shared virtual clock while the storm runs. A second per-stream RNG
//! drives behaviour (priority draws, retry jitter) at fire time.

use std::sync::Arc;

use ewc_core::{AdmissionConfig, CoreError, Frontend, Priority, Runtime, RuntimeConfig, Template};
use ewc_exec::{Executor, SimTask, VirtualClock};
use ewc_gpu::kernel::KernelArg;
use ewc_gpu::{GpuConfig, KernelDesc, SimRng};
use ewc_telemetry::{TelemetrySink, TelemetrySnapshot};
use ewc_workloads::calibrate::latency_bound;
use ewc_workloads::{SearchWorkload, Workload};

use crate::process::{ArrivalGen, ArrivalProcess};

/// Aggregate offered rate the presets call "1×", requests/second.
///
/// The simulator charges every host-side cost (channel hops, leader
/// coordination) to the one shared virtual clock, so a backend whose
/// host path is expensive *self-paces* any open-loop schedule down to
/// its own service rate — overload could never be offered. The presets
/// therefore configure a cheap host path ([`LoadConfig::coordination_s`]
/// ≈ 2 ms per group, [`LoadConfig::channel_latency_s`] = 100 µs),
/// modelling coordination that overlaps request intake: host + device
/// capacity lands near 1.8 k req/s, far above every preset rate, so the
/// arrival schedule — not the service — drives the clock.
pub const BASE_RATE_HZ: f64 = 100.0;

/// Token-bucket admission rate the presets install: comfortably above
/// 1× (steady state passes untouched) and *the* deliberate bottleneck
/// under storm multipliers — a 2×/10× schedule is shed down to this
/// served rate instead of queueing without bound.
pub const ADMIT_RATE_HZ: f64 = 140.0;

/// One open-loop load scenario.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Master seed: arrival schedules, behaviour streams, energy noise.
    pub seed: u64,
    /// Concurrent request streams (each is one frontend context).
    pub streams: usize,
    /// Arrivals generated per stream; `streams × arrivals_per_stream`
    /// is the conserved request total.
    pub arrivals_per_stream: usize,
    /// Aggregate arrival process (split evenly across streams).
    pub process: ArrivalProcess,
    /// Admission control installed in the backend; `None` runs the
    /// pre-admission unbounded backend (the ablation baseline).
    pub admission: Option<AdmissionConfig>,
    /// Consolidation threshold factor (pending ≥ factor × GPUs flushes).
    pub threshold_factor: u32,
    /// Staleness flush bound, seconds (bounds tail latency).
    pub max_pending_wait_s: f64,
    /// Number of identical devices behind the backend.
    pub num_gpus: u32,
    /// Host-side leader-coordination cost per consolidation round,
    /// seconds. The presets keep this small (2 ms) so the shared clock
    /// stays arrival-driven; see [`BASE_RATE_HZ`].
    pub coordination_s: f64,
    /// One-way channel hop charged per protocol message, seconds.
    pub channel_latency_s: f64,
    /// Solo-latency target the per-request kernel is calibrated to,
    /// seconds. The presets keep it tiny (2 ms) so the framework — not
    /// one giant kernel — is what the storm stresses; [`LoadConfig::ladder`]
    /// raises it to make the *device* the bottleneck instead.
    pub kernel_target_s: f64,
    /// Probability an arrival is [`Priority::Low`].
    pub p_low: f64,
    /// Probability an arrival is [`Priority::High`].
    pub p_high: f64,
    /// Record telemetry (spans, audit log) and return the snapshot.
    /// Also switches the backend into virtual-span mode on the
    /// executor's own clock, the byte-identical replay configuration.
    pub telemetry: bool,
    /// Optional power-state stack installed in the backend; `None` (all
    /// presets) runs the flat P0-only runtime. `Some` exercises the
    /// DVFS policy engine under open-loop load — the CI policy matrix's
    /// openloop leg.
    pub power_states: Option<ewc_core::PowerStatesConfig>,
}

impl LoadConfig {
    /// A scenario offering `mult ×` [`BASE_RATE_HZ`] through `process`
    /// (whose rates are interpreted at 1× and scaled by `mult`), with
    /// the preset admission policy installed.
    pub fn scaled(seed: u64, process: ArrivalProcess, mult: f64) -> Self {
        LoadConfig {
            seed,
            streams: 64,
            arrivals_per_stream: 32,
            process: process.scaled(mult),
            admission: Some(Self::preset_admission()),
            threshold_factor: 8,
            // Strictly below the watchdog's `pressure_age_s` (0.5 s):
            // trickle traffic that is merely accumulating a batch gets
            // force-flushed before its age ever reads as overload
            // pressure, so light load cannot walk the ladder down.
            max_pending_wait_s: 0.25,
            num_gpus: 1,
            coordination_s: 2e-3,
            channel_latency_s: 100e-6,
            kernel_target_s: 2e-3,
            p_low: 0.2,
            p_high: 0.1,
            telemetry: false,
            power_states: None,
        }
    }

    /// The admission policy the presets install.
    pub fn preset_admission() -> AdmissionConfig {
        AdmissionConfig {
            token_rate_hz: ADMIT_RATE_HZ,
            token_burst: 32.0,
            max_per_ctx: 8,
            ..AdmissionConfig::default()
        }
    }

    /// The default Poisson process at 1× (aggregate [`BASE_RATE_HZ`]).
    pub fn poisson() -> ArrivalProcess {
        ArrivalProcess::Poisson {
            rate_hz: BASE_RATE_HZ,
        }
    }

    /// The default bursty process at 1× mean rate: quiet at 0.5×,
    /// bursting at 3.5× for ~1 s out of every ~6 s.
    pub fn bursty() -> ArrivalProcess {
        ArrivalProcess::Bursty {
            base_hz: 0.5 * BASE_RATE_HZ,
            burst_hz: 3.5 * BASE_RATE_HZ,
            mean_burst_s: 1.0,
            mean_quiet_s: 5.0,
        }
    }

    /// The default diurnal process at 1× mean rate (80% modulation over
    /// a 20 s "day").
    pub fn diurnal() -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            rate_hz: BASE_RATE_HZ,
            period_s: 20.0,
            depth: 0.8,
        }
    }

    /// Light load: 0.5× Poisson.
    pub fn light(seed: u64) -> Self {
        Self::scaled(seed, Self::poisson(), 0.5)
    }

    /// Storm: 2× Poisson — past the backend's service capacity.
    pub fn storm(seed: u64) -> Self {
        Self::scaled(seed, Self::poisson(), 2.0)
    }

    /// Sustained overload: 10× Poisson.
    pub fn overload(seed: u64) -> Self {
        Self::scaled(seed, Self::poisson(), 10.0)
    }

    /// The degradation-ladder scenario: no rate limit, a heavy kernel
    /// (20 ms solo target) that makes the **device** the bottleneck, and
    /// an 8× schedule. Admitted work piles up as device backlog, the
    /// queue-age watchdog reads that lead as pressure, and the ladder
    /// steps down (shedding [`Priority::Low`] first) until the storm
    /// passes and the quiet period walks it back up.
    pub fn ladder(seed: u64) -> Self {
        let mut cfg = Self::scaled(seed, Self::poisson(), 8.0);
        cfg.kernel_target_s = 20e-3;
        cfg.admission = Some(AdmissionConfig {
            max_per_device: 256,
            max_per_ctx: 32,
            ..AdmissionConfig::default()
        });
        cfg
    }

    /// Total requests this scenario generates.
    pub fn generated(&self) -> u64 {
        (self.streams * self.arrivals_per_stream) as u64
    }
}

/// Client-side tallies (what the frontends observed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounts {
    /// Launches the backend admitted (a ticket came back).
    pub admitted: u64,
    /// `Busy` backpressure answers (each re-armed a retry).
    pub busy_answers: u64,
    /// Launches shed permanently at admission.
    pub shed_at_admission: u64,
    /// `Shed` notices collected at sync (queued requests aged out).
    pub shed_notices: u64,
    /// `KernelFailed` notices collected at sync.
    pub failure_notices: u64,
    /// Any other frontend-visible error (should stay zero).
    pub client_errors: u64,
}

/// Outcome of one open-loop run: backend statistics plus the client's
/// own tallies, and the conservation identity over both.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests generated (`streams × arrivals_per_stream`).
    pub generated: u64,
    /// What the frontends observed.
    pub client: ClientCounts,
    /// Requests that completed execution (backend lifecycle records).
    pub completed: u64,
    /// Requests that failed permanently with an audit trail.
    pub failed: u64,
    /// Requests shed permanently (admission-final + queue-age).
    pub shed: u64,
    /// Requests drained because their frontend disconnected.
    pub drained: u64,
    /// High-water mark of the backend's pending queue.
    pub max_pending_depth: u64,
    /// Deepest degradation-ladder level reached.
    pub max_degradation_level: u8,
    /// Ladder level changes (both directions).
    pub degradation_steps: u64,
    /// Total simulated wall time, seconds.
    pub elapsed_s: f64,
    /// Whole-system energy, joules.
    pub energy_j: f64,
    /// 99th-percentile completed-request latency, seconds.
    pub p99_latency_s: f64,
    /// Mean completed-request latency, seconds.
    pub mean_latency_s: f64,
    /// Full backend statistics.
    pub stats: ewc_core::BackendStats,
    /// Telemetry snapshot when [`LoadConfig::telemetry`] was set.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl LoadReport {
    /// The conservation invariant: every generated request is accounted
    /// for exactly once — completed, failed with an audit, shed with an
    /// audit, or drained at disconnect.
    pub fn conserved(&self) -> bool {
        self.generated == self.completed + self.failed + self.shed + self.drained
    }

    /// Completed requests per simulated second.
    pub fn goodput_hz(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Fraction of generated requests shed.
    pub fn shed_rate(&self) -> f64 {
        if self.generated > 0 {
            self.shed as f64 / self.generated as f64
        } else {
            0.0
        }
    }

    /// Whole-system energy per completed request, joules.
    pub fn joules_per_request(&self) -> f64 {
        if self.completed > 0 {
            self.energy_j / self.completed as f64
        } else {
            f64::INFINITY
        }
    }
}

/// The registry name every stream launches.
const KERNEL: &str = "search";

/// Derive stream `s`'s RNG seed for one `domain` (arrival schedule vs
/// behaviour) from the master seed: every stream gets an independent
/// stream in each domain, all reproducible from the one seed.
fn stream_seed(master: u64, domain: u64, s: u64) -> u64 {
    master ^ domain ^ (s + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Seed domain for the precomputed arrival schedules.
const ARRIVAL_DOMAIN: u64 = 0xa441_4a11;

/// Seed domain for fire-time behaviour (priority draws, retry jitter).
const BEHAVIOR_DOMAIN: u64 = 0xbe4a_0b57;

/// A deliberately small search instance (~2 KiB of text, `target_s`
/// solo) so the harness measures the *framework's* overload behaviour,
/// not a single giant kernel. The ladder preset raises `target_s` to
/// shift the bottleneck onto the device.
fn tiny_search(cfg: &GpuConfig, target_s: f64) -> SearchWorkload {
    let desc = KernelDesc::builder("substring_search")
        .threads_per_block(64)
        .regs_per_thread(16)
        .shared_mem_per_block(1024)
        .build();
    let desc = latency_bound(desc, target_s, 0.30, cfg);
    SearchWorkload::new(2048, b"gpu".to_vec(), desc, 2, 2.0 * target_s, 2, 64 << 10)
}

/// One live request stream: its frontend, the prebuilt kernel
/// arguments, and its private behaviour RNG.
struct Stream {
    fe: Frontend,
    args: Vec<KernelArg>,
    rng: SimRng,
}

/// Executor state: every stream plus the client tallies.
struct Harness {
    streams: Vec<Stream>,
    counts: ClientCounts,
    p_low: f64,
    p_high: f64,
    /// Execution configuration re-sent before every launch attempt
    /// (CUDA semantics: `configure_call` precedes each `launch`, and
    /// the backend consumes it per launch).
    grid_blocks: u32,
    threads_per_block: u32,
}

/// One event on the virtual timeline.
enum LoadTask {
    /// A fresh arrival on stream `s` (priority drawn at fire time).
    Arrive {
        /// Stream index.
        s: usize,
    },
    /// A backoff retry of a `Busy`-answered launch.
    Retry {
        /// Stream index.
        s: usize,
        /// Prior `Busy` answers for this request.
        attempt: u32,
        /// Priority drawn at the original arrival.
        priority: Priority,
    },
}

impl SimTask<Harness> for LoadTask {
    // The task never reads the fire time: the backend shares the
    // executor's clock instance, so it is already at `now_s`.
    fn fire(self, _now_s: f64, st: &mut Harness, exec: &mut Executor<Harness, Self>) {
        let (s, attempt, priority) = match self {
            LoadTask::Arrive { s } => {
                let u = st.streams[s].rng.next_f64();
                let priority = if u < st.p_low {
                    Priority::Low
                } else if u < st.p_low + st.p_high {
                    Priority::High
                } else {
                    Priority::Normal
                };
                (s, 0, priority)
            }
            LoadTask::Retry {
                s,
                attempt,
                priority,
            } => (s, attempt, priority),
        };
        let (grid_blocks, threads_per_block) = (st.grid_blocks, st.threads_per_block);
        let stream = &mut st.streams[s];
        // CUDA semantics: `configure_call` precedes each launch and the
        // backend consumes it per launch — including on retries, because
        // an interleaved arrival on the same context may have consumed
        // the configuration a `Busy` answer restored.
        if stream
            .fe
            .configure_call(grid_blocks, threads_per_block)
            .is_err()
        {
            st.counts.client_errors += 1;
            return;
        }
        match stream
            .fe
            .launch_with(KERNEL, stream.args.clone(), priority, attempt)
        {
            Ok(_) => st.counts.admitted += 1,
            Err(CoreError::Busy { retry_after_us, .. }) => {
                st.counts.busy_answers += 1;
                // Seeded jitter from this stream's own RNG: spreads the
                // retry herd without any cross-stream shared state.
                let jitter = stream.rng.range_f64(0.0, 0.5);
                let delay_s = retry_after_us as f64 * 1e-6 * (1.0 + jitter);
                exec.schedule_in(
                    delay_s,
                    LoadTask::Retry {
                        s,
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

/// Run one open-loop scenario to completion and account for every
/// generated request.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let gpu_cfg = GpuConfig::tesla_c1060();
    let w = Arc::new(tiny_search(&gpu_cfg, cfg.kernel_target_s));

    let clock = VirtualClock::new();
    let mut exec: Executor<Harness, LoadTask> = Executor::with_clock(clock.clone());
    // Either way the backend adopts the executor's exact clock;
    // `telemetry` only decides whether spans and the audit log are
    // collected.
    let sink = if cfg.telemetry {
        TelemetrySink::enabled_virtual(clock)
    } else {
        TelemetrySink::disabled_virtual(clock)
    };

    let rt = Runtime::builder(RuntimeConfig {
        num_gpus: cfg.num_gpus,
        threshold_factor: cfg.threshold_factor,
        max_pending_wait_s: cfg.max_pending_wait_s,
        coordination_s: cfg.coordination_s,
        channel_latency_s: cfg.channel_latency_s,
        noise_seed: Some(cfg.seed),
        admission: cfg.admission.clone(),
        power_states: cfg.power_states.clone(),
        ..RuntimeConfig::default()
    })
    .telemetry(sink)
    .workload(KERNEL, Arc::clone(&w) as Arc<dyn Workload>)
    .template(Template::homogeneous(KERNEL))
    .build();

    // Connect every stream and prebuild its arguments once — the
    // open-loop arrivals then reuse them, so each arrival costs one
    // launch message, not a full upload.
    let mut streams = Vec::with_capacity(cfg.streams);
    for s in 0..cfg.streams {
        let mut fe = rt.connect();
        let (args, _bufs) = w
            .build_args(&mut fe, cfg.seed ^ s as u64)
            .expect("stream argument build");
        fe.configure_call(w.blocks(), w.desc().threads_per_block)
            .expect("stream configure");
        streams.push(Stream {
            fe,
            args,
            rng: SimRng::seed_from_u64(stream_seed(cfg.seed, BEHAVIOR_DOMAIN, s as u64)),
        });
    }

    // One sync closes the setup phase before `t0` is read. It is a
    // charged message: every recorded schedule starts one channel hop
    // after the last `configure_call`.
    if let Some(stream) = streams.last() {
        stream.fe.sync().expect("setup sync");
    }

    // Precompute every arrival instant upfront, one dedicated RNG per
    // stream (the trace-replay pattern): the schedule is fixed before
    // the backend ever advances the shared clock, so replays cannot be
    // perturbed by clock interleaving.
    let t0 = exec.clock().now_s();
    let per_stream = cfg.process.scaled(1.0 / cfg.streams.max(1) as f64);
    for s in 0..cfg.streams {
        let mut rng = SimRng::seed_from_u64(stream_seed(cfg.seed, ARRIVAL_DOMAIN, s as u64));
        let mut gen = ArrivalGen::new(per_stream.clone());
        let mut t = t0;
        for _ in 0..cfg.arrivals_per_stream {
            t += gen.next_gap_s(&mut rng);
            exec.schedule_at(t, LoadTask::Arrive { s });
        }
    }

    let mut harness = Harness {
        streams,
        counts: ClientCounts::default(),
        p_low: cfg.p_low,
        p_high: cfg.p_high,
        grid_blocks: w.blocks(),
        threads_per_block: w.desc().threads_per_block,
    };
    exec.run_until_idle(&mut harness);

    // Drain every stream: each sync returns one queued terminal notice
    // (age-shed or permanent failure) until none remain.
    for stream in &mut harness.streams {
        loop {
            match stream.fe.sync() {
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
    let counts = harness.counts;
    drop(harness); // disconnect every frontend before shutdown
    let report = rt.shutdown();

    let lat = report.stats.latency_summary();
    LoadReport {
        generated: cfg.generated(),
        client: counts,
        completed: report.stats.kernel_outcomes.len() as u64,
        failed: report.stats.failed_kernels,
        shed: report.stats.shed_requests,
        drained: report.stats.drained_requests,
        max_pending_depth: report.stats.max_pending_depth,
        max_degradation_level: report.stats.max_degradation_level,
        degradation_steps: report.stats.degradation_steps,
        elapsed_s: report.elapsed_s,
        energy_j: report.energy.energy_j + report.stats.cpu_energy_j,
        p99_latency_s: lat.percentile(99.0).unwrap_or(0.0),
        mean_latency_s: lat.mean(),
        stats: report.stats,
        telemetry: report.telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mut cfg: LoadConfig) -> LoadConfig {
        cfg.streams = 8;
        cfg.arrivals_per_stream = 8;
        cfg
    }

    #[test]
    fn light_load_admits_everything_and_conserves() {
        let r = run(&small(LoadConfig::light(1)));
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.generated, 64);
        assert_eq!(r.client.client_errors, 0);
        assert_eq!(r.failed, 0);
        assert!(
            r.completed >= r.generated - r.shed,
            "everything admitted must complete: {r:?}"
        );
    }

    #[test]
    fn overload_sheds_but_conserves() {
        let r = run(&small(LoadConfig::overload(1)));
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.client.client_errors, 0);
        // Client-side and backend-side shed accounting must agree.
        assert_eq!(
            r.shed,
            r.client.shed_at_admission + r.client.shed_notices,
            "{r:?}"
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let cfg = small(LoadConfig::storm(42));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.client, b.client);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        // The full backend statistics (every per-kernel outcome record,
        // every timestamp) must replay byte-identically too.
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    }

    #[test]
    fn policy_enabled_storm_conserves_and_replays_identically() {
        // The DVFS policy engine under open-loop overload: the same
        // conservation and determinism invariants must hold, and the
        // backend must actually be changing device states.
        let mut cfg = small(LoadConfig::storm(42));
        cfg.power_states = Some(ewc_core::PowerStatesConfig::race());
        let a = run(&cfg);
        assert!(a.conserved(), "{a:?}");
        assert_eq!(a.client.client_errors, 0);
        assert!(
            a.stats.state_changes > 0,
            "race must transition states: {:?}",
            a.stats.state_changes
        );
        let b = run(&cfg);
        assert_eq!(a.client, b.client);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    }

    #[test]
    fn admission_off_is_the_unbounded_baseline() {
        let mut cfg = small(LoadConfig::storm(7));
        cfg.admission = None;
        let r = run(&cfg);
        assert!(r.conserved(), "{r:?}");
        assert_eq!(r.shed, 0, "no admission layer, nothing shed");
        assert_eq!(r.client.busy_answers, 0);
        assert_eq!(r.completed, r.generated);
    }
}
