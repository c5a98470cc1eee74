#![allow(clippy::items_after_test_module)] // DeviceAlloc trait appended below tests
//! The simulated device: memory + DMA + execution engine + clock.
//!
//! [`GpuDevice`] is the single stateful façade the consolidation backend
//! talks to. Every operation advances the device clock by its simulated
//! duration, so "wall time" measurements taken by the energy meter are
//! consistent with the engine's timing model. Launches execute functional
//! kernel bodies against real device memory *and* simulate timing, so
//! callers get both answers and durations.
//!
//! The timing simulation is a pure function of the launch's shape, and a
//! consolidation backend launches the same few shapes all its life, so
//! each device simulates a shape once and reuses the outcome
//! ([`GpuDevice::simulation_reuses`] counts how often). Everything else —
//! fault injection, the functional pass, activity, telemetry, the clock —
//! runs on every launch.

use std::sync::Arc;

pub use crate::memory::DevicePtr;

use crate::config::GpuConfig;
use crate::counters::ActivityInterval;
use crate::engine::{ExecutionEngine, SimOutcome};
use crate::error::GpuError;
use crate::fault::{DeviceFault, FaultInjectorHandle};
use crate::grid::{Grid, GridSegment};
use crate::kernel::{KernelDesc, LaunchConfig};
use crate::memory::GlobalMemory;
use crate::scheduler::DispatchPolicy;
use ewc_exec::{Memo, VirtualClock};

use crate::transfer::{Direction, DmaEngine, DmaStats};

/// One completed power-state transition on a device timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTransition {
    /// Device time at which the new state became effective (after the
    /// wake/settle latency elapsed).
    pub at_s: f64,
    /// Level left (index into the caller's power-state table).
    pub from: u32,
    /// Level entered.
    pub to: u32,
    /// Wake/settle latency charged on the device clock.
    pub latency_s: f64,
}

/// DVFS bookkeeping, allocated only once `set_power_state` is called.
/// Devices that never change state carry `None` and behave — and emit —
/// byte-identically to a build without this feature.
struct DvfsControl {
    level: u32,
    freq_scale: f64,
    served: Vec<StateTransition>,
}

/// Outcome of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Total launch duration in seconds (fixed launch overhead + kernel
    /// execution).
    pub elapsed_s: f64,
    /// Device time at which the launch started.
    pub started_at_s: f64,
    /// Detailed simulation outcome (trace, counters, activity profile),
    /// shared with every other launch of the same shape.
    pub sim: Arc<SimOutcome>,
}

/// Everything [`ExecutionEngine::run`] reads of a launch, as words: the
/// engine's clock, the dispatch policy, then [`segment_words`] per
/// segment.
fn shape_key(clock_hz: f64, policy: DispatchPolicy, grid: &Grid) -> impl Iterator<Item = u64> + '_ {
    [clock_hz.to_bits(), policy as u64]
        .into_iter()
        .chain(grid.segments().iter().flat_map(segment_words))
}

/// A segment's block count and every descriptor field the engine reads:
/// all but the name, which its outcome never carries.
fn segment_words(seg: &GridSegment) -> [u64; 6] {
    // Exhaustive on purpose: a new descriptor field fails to compile
    // here until the key covers it (or names it as unread).
    let KernelDesc {
        name: _,
        threads_per_block,
        regs_per_thread,
        shared_mem_per_block,
        comp_insts,
        coalesced_mem,
        uncoalesced_mem,
        sync_insts,
    } = &seg.desc;
    [
        u64::from(seg.blocks) << 32 | u64::from(*threads_per_block),
        u64::from(*regs_per_thread) << 32 | u64::from(*shared_mem_per_block),
        comp_insts.to_bits(),
        coalesced_mem.to_bits(),
        uncoalesced_mem.to_bits(),
        sync_insts.to_bits(),
    ]
}

/// What device `d` calls itself in the trace: process `gpu<d>` and one
/// lane `sm<n>` per SM. Empty on a disabled sink.
#[derive(Default)]
struct TraceNames {
    process: String,
    sm_lanes: Vec<String>,
}

// The sites a device serves faults at, indexing `GpuDevice::faults`.
const MALLOC: usize = 0;
const TRANSFER: usize = 1;
const LAUNCH: usize = 2;
/// The counter each fault site's count is reported under.
const FAULT_COUNTERS: [&str; 3] = [
    "device_faults_malloc",
    "device_faults_transfer",
    "device_faults_launch",
];

/// The simulated GPU.
pub struct GpuDevice {
    cfg: GpuConfig,
    mem: GlobalMemory,
    engine: ExecutionEngine,
    dma: DmaEngine,
    /// The device timeline: a shared simulated clock. The backend holds
    /// clones of this handle, so resilience bookkeeping (circuit
    /// breaker, retry deadlines) reads device time without hand-threaded
    /// timestamp parameters.
    clock: VirtualClock,
    launches: u64,
    /// Activity profile of the whole device lifetime, for power replay:
    /// launches contribute their intervals offset by their start time.
    activity: Vec<ActivityInterval>,
    /// Telemetry handle (no-op unless attached) and the names this
    /// device records under, built once when the sink is attached.
    sink: ewc_telemetry::TelemetrySink,
    names: TraceNames,
    /// Optional fault injector consulted before mallocs, transfers and
    /// launches. `None` (the default) means a perfectly healthy device.
    injector: Option<FaultInjectorHandle>,
    /// Faults this device has actually served, by site
    /// ([`FAULT_COUNTERS`] order).
    faults: [u64; 3],
    /// Power-state control; `None` until the power-state stack is
    /// enabled for this device (the byte-identical default).
    dvfs: Option<DvfsControl>,
    /// Timing simulations by [`shape_key`].
    sims: Memo<u64, Arc<SimOutcome>>,
}

impl GpuDevice {
    /// Create a device.
    ///
    /// # Panics
    /// Panics on an invalid configuration; configurations are static test
    /// or preset data, so this is a programmer error.
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        GpuDevice {
            mem: GlobalMemory::new(cfg.global_mem_bytes, cfg.constant_mem_bytes),
            engine: ExecutionEngine::new(cfg.clone()),
            dma: DmaEngine::new(cfg.pcie_bandwidth, cfg.pcie_latency_s),
            cfg,
            clock: VirtualClock::new(),
            launches: 0,
            activity: Vec::new(),
            sink: ewc_telemetry::TelemetrySink::disabled(),
            names: TraceNames::default(),
            injector: None,
            faults: [0; 3],
            dvfs: None,
            sims: Memo::default(),
        }
    }

    /// Attach a telemetry sink: every launch then emits a kernel span and
    /// per-SM block spans on the `gpu<index>` trace process.
    pub fn with_telemetry(mut self, sink: ewc_telemetry::TelemetrySink, index: usize) -> Self {
        if sink.is_enabled() {
            self.names = TraceNames {
                process: format!("gpu{index}"),
                sm_lanes: (0..self.cfg.num_sms).map(|n| format!("sm{n}")).collect(),
            };
        }
        self.sink = sink;
        self
    }

    /// Attach a fault injector: mallocs, DMA transfers and launches then
    /// consult it and may fail or slow down accordingly.
    pub fn with_fault_injector(mut self, injector: FaultInjectorHandle) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Number of injected faults this device has served.
    pub fn faults_served(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Write the counts this device keeps into its sink, once its work
    /// is done: `gpu_launches`, `power_transitions`, `device_faults` and
    /// `device_faults_<site>` (a zero count writes nothing), and
    /// `dvfs_level_gpu<d>` once it has changed state.
    pub fn project_counters(&self) {
        let Some(mut rec) = self.sink.lock() else {
            return;
        };
        let totals = [
            ("gpu_launches", self.launches),
            ("power_transitions", self.state_transitions().len() as u64),
            ("device_faults", self.faults_served()),
        ];
        for (name, n) in totals
            .into_iter()
            .chain(FAULT_COUNTERS.into_iter().zip(self.faults))
        {
            if n > 0 {
                rec.counter_add(name, n as f64);
            }
        }
        if let Some(level) = self.power_level() {
            rec.gauge_set(&format!("dvfs_level_{}", self.names.process), level.into());
        }
    }

    /// Move the device to power-state `level`, an index into the
    /// caller's state table. `freq_scale` is the relative SM clock of
    /// the target state (1.0 = the configured clock); `latency_s` is the
    /// wake/settle latency, charged on the device clock before the state
    /// becomes effective — launches issued after this call run entirely
    /// in the new state.
    ///
    /// Timing in non-top states comes from re-deriving the execution
    /// engine at the scaled clock: compute throughput scales with `f`
    /// while DRAM bandwidth and PCIe are unaffected, so memory-bound
    /// kernels lose less time than compute-bound ones — exactly the
    /// asymmetry a DVFS policy trades on.
    ///
    /// Returns `false` (and charges nothing) when the device is already
    /// at `level`. Devices on which this is never called behave
    /// byte-identically to builds without power states.
    pub fn set_power_state(&mut self, level: u32, freq_scale: f64, latency_s: f64) -> bool {
        assert!(
            freq_scale > 0.0 && freq_scale.is_finite(),
            "freq_scale must be positive and finite"
        );
        if let Some(ctl) = &self.dvfs {
            if ctl.level == level {
                return false;
            }
        }
        let mut ctl = self.dvfs.take().unwrap_or_else(|| DvfsControl {
            level: 0,
            freq_scale: 1.0,
            served: Vec::new(),
        });
        // The transition settles before this call returns: the clock
        // runs through the settle latency, then the new state holds.
        let now = self.clock.now_s();
        let due = now + latency_s.max(0.0);
        if due > now {
            self.clock.advance_by(due - now);
        }
        ctl.served.push(StateTransition {
            at_s: self.clock.now_s(),
            from: ctl.level,
            to: level,
            latency_s: (due - now).max(0.0),
        });
        if ctl.freq_scale != freq_scale {
            let mut scaled = self.cfg.clone();
            scaled.clock_hz *= freq_scale;
            self.engine = ExecutionEngine::new(scaled);
        }
        ctl.level = level;
        ctl.freq_scale = freq_scale;
        self.dvfs = Some(ctl);
        true
    }

    /// Current power-state level, or `None` if the power-state stack was
    /// never engaged on this device.
    pub fn power_level(&self) -> Option<u32> {
        self.dvfs.as_ref().map(|c| c.level)
    }

    /// Relative SM clock of the active state (1.0 when power states are
    /// disengaged or the device sits at the top state).
    pub fn freq_scale(&self) -> f64 {
        self.dvfs.as_ref().map_or(1.0, |c| c.freq_scale)
    }

    /// Every power-state transition this device has served, in order.
    pub fn state_transitions(&self) -> &[StateTransition] {
        self.dvfs.as_ref().map_or(&[], |c| &c.served)
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current device time in seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// A shared handle on the device clock: clones observe every advance
    /// this device makes.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Advance the device clock by `dt` without doing work (e.g. host-side
    /// think time between calls).
    pub fn idle(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot idle for negative time");
        self.clock.advance_by(dt);
    }

    /// Number of launches executed.
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Immutable view of device memory.
    pub fn memory(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable view of device memory (host-side initialisation in tests).
    pub fn memory_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    /// Activity profile over the device lifetime (device-time offsets).
    pub fn activity(&self) -> &[ActivityInterval] {
        &self.activity
    }

    /// Cumulative DMA statistics.
    pub fn dma_stats(&self) -> DmaStats {
        self.dma.stats()
    }

    /// Allocate device memory (`cudaMalloc`).
    pub fn malloc(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        if let Some(inj) = &self.injector {
            if let Some(DeviceFault::Oom) = inj.on_malloc(len) {
                self.faults[MALLOC] += 1;
                return Err(GpuError::OutOfMemory {
                    requested: len,
                    free: self.mem.free_bytes(),
                });
            }
        }
        self.mem.alloc(len)
    }

    /// Free device memory (`cudaFree`).
    pub fn free(&mut self, ptr: DevicePtr) -> Result<(), GpuError> {
        self.mem.free(ptr)
    }

    /// Load constant data once for the device lifetime; returns its
    /// device pointer.
    pub fn load_constant(&mut self, data: &[u8]) -> Result<DevicePtr, GpuError> {
        self.mem.alloc_constant(data)
    }

    /// Copy host data to device (`cudaMemcpyHostToDevice`). Returns the
    /// transfer duration; the clock advances by it.
    pub fn memcpy_h2d(
        &mut self,
        dst: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<f64, GpuError> {
        if let Some(fault) = self.transfer_fault(data.len() as u64, Direction::HostToDevice)? {
            self.clock.advance_by(fault);
        }
        self.mem.write(dst, offset, data)?;
        let t = self
            .dma
            .transfer(data.len() as u64, Direction::HostToDevice);
        self.clock.advance_by(t);
        Ok(t)
    }

    /// Consult the injector for a DMA transfer. `Ok(Some(stall_s))` means
    /// a stall of `stall_s` seconds before an otherwise normal transfer;
    /// `Err(TransferFault)` means the transfer burned its full link time
    /// (charged here, and counted in DMA stats as wasted work) and failed
    /// without moving data.
    fn transfer_fault(&mut self, bytes: u64, dir: Direction) -> Result<Option<f64>, GpuError> {
        let Some(inj) = &self.injector else {
            return Ok(None);
        };
        match inj.on_transfer(bytes) {
            Some(DeviceFault::TransferFail) => {
                self.faults[TRANSFER] += 1;
                let t = self.dma.transfer(bytes, dir);
                self.clock.advance_by(t);
                Err(GpuError::TransferFault)
            }
            Some(DeviceFault::TransferStall { extra_s }) => {
                self.faults[TRANSFER] += 1;
                Ok(Some(extra_s))
            }
            _ => Ok(None),
        }
    }

    /// Copy device data to host (`cudaMemcpyDeviceToHost`). Returns the
    /// bytes and the transfer duration; the clock advances by it.
    pub fn memcpy_d2h(
        &mut self,
        src: DevicePtr,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, f64), GpuError> {
        if let Some(fault) = self.transfer_fault(len, Direction::DeviceToHost)? {
            self.clock.advance_by(fault);
        }
        let bytes = self.mem.read(src, offset, len)?.to_vec();
        let t = self.dma.transfer(len, Direction::DeviceToHost);
        self.clock.advance_by(t);
        Ok((bytes, t))
    }

    /// Launch a (possibly consolidated) grid: run every functional body,
    /// simulate timing, advance the clock, and report.
    pub fn launch(&mut self, launch: &LaunchConfig) -> Result<LaunchReport, GpuError> {
        let policy = launch.policy.unwrap_or_default();
        let total_blocks: u32 = launch.grid.segments().iter().map(|s| s.blocks).sum();
        let mut slowdown = 1.0;
        if let Some(inj) = &self.injector {
            match inj.on_launch(total_blocks) {
                Some(DeviceFault::Hang { watchdog_s }) => {
                    // The kernel never completes: the watchdog deadline is
                    // burned on the device clock, then the launch is killed.
                    // No functional bodies run, no activity is recorded.
                    self.faults[LAUNCH] += 1;
                    self.clock.advance_by(watchdog_s);
                    return Err(GpuError::LaunchTimeout);
                }
                Some(DeviceFault::DegradedSms { slowdown: s }) => {
                    self.faults[LAUNCH] += 1;
                    slowdown = s.max(1.0);
                }
                _ => {}
            }
        }
        // Timing first (validates the grid), then functional execution.
        let sim = self.simulate(&launch.grid, policy)?;

        launch.grid.run_bodies(&mut self.mem);

        let started_at_s = self.clock.now_s();
        // Degraded SMs stretch wall time by `slowdown`; the activity
        // intervals stay at their healthy shape (the work done is the
        // same, it just takes longer), so power replay sees the extra
        // time as low-activity tail — throttled silicon burns closer to
        // idle than to peak.
        let elapsed = self.cfg.launch_overhead_s + sim.elapsed_s * slowdown;
        for iv in &sim.intervals {
            self.activity.push(ActivityInterval {
                start_s: started_at_s + self.cfg.launch_overhead_s + iv.start_s,
                ..*iv
            });
        }
        self.clock.advance_by(elapsed);
        self.launches += 1;
        self.emit_launch_spans(&launch.grid, started_at_s, elapsed, &sim);
        Ok(LaunchReport {
            elapsed_s: elapsed,
            started_at_s,
            sim,
        })
    }

    /// The engine's outcome for `grid` under `policy`, simulated once per
    /// [`shape_key`]. A shape that failed fails again, through the
    /// engine, on every launch.
    fn simulate(
        &mut self,
        grid: &Grid,
        policy: DispatchPolicy,
    ) -> Result<Arc<SimOutcome>, GpuError> {
        let engine = &self.engine;
        self.sims
            .get_or_try_insert(shape_key(engine.config().clock_hz, policy, grid), || {
                engine.run(grid, policy).map(Arc::new)
            })
    }

    /// Launches whose timing simulation was reused from an earlier
    /// launch of the same shape on this device.
    pub fn simulation_reuses(&self) -> u64 {
        self.sims.reuses()
    }

    /// Emit one kernel span plus a span per executed block, placed on the
    /// SM lane the scheduler actually chose (the trace.rs data). The
    /// whole launch is recorded under one lock.
    fn emit_launch_spans(
        &self,
        grid: &crate::grid::Grid,
        started_at_s: f64,
        elapsed_s: f64,
        sim: &SimOutcome,
    ) {
        let Some(mut rec) = self.sink.lock() else {
            return;
        };
        let process = &self.names.process;
        let names: Vec<&str> = grid.segments().iter().map(|s| &*s.desc.name).collect();
        let kernel = rec
            .span(
                process,
                "stream",
                &names.join("+"),
                started_at_s,
                started_at_s + elapsed_s,
            )
            .attr("segments", names.len())
            .attr("blocks", sim.trace.events().len())
            .emit();
        let t0 = started_at_s + self.cfg.launch_overhead_s;
        for ev in sim.trace.events() {
            rec.span(
                process,
                &self.names.sm_lanes[ev.sm as usize],
                names.get(ev.coord.segment).unwrap_or(&"block"),
                t0 + ev.start_s,
                t0 + ev.end_s,
            )
            .parent(kernel)
            .attr("block", ev.coord.within)
            .emit();
        }
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("sms", &self.cfg.num_sms)
            .field("clock_s", &self.clock.now_s())
            .field("launches", &self.launches)
            .field("mem_used", &self.mem.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid, GridSegment};
    use crate::kernel::{BlockCtx, KernelArg, KernelDesc};
    use std::sync::Arc;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuConfig::tesla_c1060())
    }

    #[test]
    fn clock_advances_with_transfers_and_launches() {
        let mut gpu = device();
        let p = gpu.malloc(1 << 20).unwrap();
        let t0 = gpu.now_s();
        let t = gpu.memcpy_h2d(p, 0, &vec![0u8; 1 << 20]).unwrap();
        assert!(t > 0.0);
        assert!((gpu.now_s() - t0 - t).abs() < 1e-15);

        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1000.0)
            .build();
        let r = gpu.launch(&LaunchConfig::single(k, 4)).unwrap();
        assert!(r.elapsed_s > 0.0);
        assert_eq!(gpu.launch_count(), 1);
        assert!((gpu.now_s() - (t0 + t + r.elapsed_s)).abs() < 1e-12);
    }

    #[test]
    fn functional_body_computes_into_device_memory() {
        let mut gpu = device();
        let n = 1024usize;
        let src = gpu.malloc((n * 4) as u64).unwrap();
        let dst = gpu.malloc((n * 4) as u64).unwrap();
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        gpu.memory_mut().write_f32s(src, 0, &input).unwrap();

        let desc = KernelDesc::builder("double")
            .threads_per_block(256)
            .comp_insts(2.0)
            .coalesced_mem(2.0)
            .build();
        let blocks = 4;
        let body: crate::kernel::BlockFn = Arc::new(move |ctx: &BlockCtx<'_>, mem| {
            let src = ctx.args[0].as_ptr().unwrap();
            let dst = ctx.args[1].as_ptr().unwrap();
            let per = 1024 / ctx.num_blocks as usize;
            let base = ctx.block_idx as usize * per;
            let vals = mem.read_f32s(src, base as u64, per).unwrap();
            let out: Vec<f32> = vals.iter().map(|v| v * 2.0).collect();
            mem.write_f32s(dst, base as u64, &out).unwrap();
        });
        let mut grid = Grid::new();
        grid.push(
            GridSegment::bare(desc, blocks)
                .with_args(vec![KernelArg::Ptr(src), KernelArg::Ptr(dst)])
                .with_body(body),
        );
        gpu.launch(&LaunchConfig::from_grid(grid)).unwrap();
        let (out, _) = gpu.memcpy_d2h(dst, 0, (n * 4) as u64).unwrap();
        let got: Vec<f32> = out
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0);
        }
    }

    #[test]
    fn activity_profile_offsets_by_start_time() {
        let mut gpu = device();
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(10_000.0)
            .build();
        gpu.idle(1.0);
        gpu.launch(&LaunchConfig::single(k, 2)).unwrap();
        let acts = gpu.activity();
        assert!(!acts.is_empty());
        assert!(acts[0].start_s >= 1.0);
    }

    #[test]
    fn launch_overhead_included() {
        let mut gpu = device();
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1.0)
            .build();
        let r = gpu.launch(&LaunchConfig::single(k, 1)).unwrap();
        assert!(r.elapsed_s >= gpu.config().launch_overhead_s);
    }

    #[test]
    fn power_state_scales_kernel_time_and_charges_latency() {
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1e6)
            .build();

        let mut full = device();
        let t_full = full.launch(&LaunchConfig::single(k.clone(), 4)).unwrap();

        let mut half = device();
        let t0 = half.now_s();
        assert!(half.set_power_state(2, 0.5, 20e-6));
        assert!(
            (half.now_s() - t0 - 20e-6).abs() < 1e-12,
            "settle latency charged"
        );
        assert_eq!(half.power_level(), Some(2));
        assert_eq!(half.freq_scale(), 0.5);
        let t_half = half.launch(&LaunchConfig::single(k, 4)).unwrap();

        // Compute-bound kernel at half clock: simulated time ~doubles
        // (launch overhead is clock-independent).
        let full_sim = t_full.elapsed_s - full.config().launch_overhead_s;
        let half_sim = t_half.elapsed_s - half.config().launch_overhead_s;
        assert!(
            half_sim > 1.8 * full_sim,
            "half clock should ~double compute time: {half_sim} vs {full_sim}"
        );
        let tr = half.state_transitions();
        assert_eq!(tr.len(), 1);
        assert_eq!((tr[0].from, tr[0].to), (0, 2));
    }

    #[test]
    fn power_state_noop_and_return_to_top_restores_timing() {
        let k = KernelDesc::builder("k")
            .threads_per_block(64)
            .comp_insts(1e6)
            .build();
        let mut base = device();
        let want = base.launch(&LaunchConfig::single(k.clone(), 4)).unwrap();

        let mut gpu = device();
        assert!(gpu.set_power_state(2, 0.5, 0.0));
        assert!(!gpu.set_power_state(2, 0.5, 0.0), "same level is a no-op");
        assert!(gpu.set_power_state(0, 1.0, 0.0));
        let got = gpu.launch(&LaunchConfig::single(k, 4)).unwrap();
        assert_eq!(
            got.elapsed_s.to_bits(),
            want.elapsed_s.to_bits(),
            "back at the top state, timing is bit-identical"
        );
        assert_eq!(gpu.state_transitions().len(), 2);
    }

    #[test]
    fn untouched_device_reports_no_power_state() {
        let gpu = device();
        assert_eq!(gpu.power_level(), None);
        assert_eq!(gpu.freq_scale(), 1.0);
        assert!(gpu.state_transitions().is_empty());
    }

    fn mixed_grid(second: KernelDesc) -> Grid {
        let first = KernelDesc::builder("a")
            .threads_per_block(128)
            .comp_insts(5e4)
            .coalesced_mem(300.0)
            .build();
        crate::grid::ConsolidatedGrid::new()
            .add(Grid::single(first, 7))
            .add(Grid::single(second, 45))
            .build()
    }

    fn second() -> KernelDesc {
        KernelDesc::builder("b")
            .threads_per_block(256)
            .comp_insts(2e5)
            .build()
    }

    #[test]
    fn a_repeated_shape_reuses_its_simulation_with_identical_timing() {
        let mut gpu = device();
        let launch = LaunchConfig::from_grid(mixed_grid(second()));
        let first = gpu.launch(&launch).unwrap();
        let again = gpu.launch(&launch).unwrap();
        assert_eq!(gpu.simulation_reuses(), 1);
        assert!(Arc::ptr_eq(&first.sim, &again.sim), "the outcome is shared");
        assert_eq!(first.elapsed_s.to_bits(), again.elapsed_s.to_bits());
        assert!(again.started_at_s >= first.started_at_s + first.elapsed_s);
        // Each launch recorded the shared profile at its own start.
        let acts = gpu.activity();
        let (a, b) = acts.split_at(acts.len() / 2);
        let overhead = gpu.config().launch_overhead_s;
        for (report, recorded) in [(&first, a), (&again, b)] {
            assert_eq!(recorded.len(), report.sim.intervals.len());
            for (iv, got) in report.sim.intervals.iter().zip(recorded) {
                let want = report.started_at_s + overhead + iv.start_s;
                assert_eq!(got.start_s.to_bits(), want.to_bits());
                assert_eq!((got.dur_s, got.rates), (iv.dur_s, iv.rates));
            }
        }
        // A fresh device that never saw the shape agrees bit for bit.
        let cold = device().launch(&launch).unwrap();
        assert_eq!(*cold.sim, *again.sim);
    }

    #[test]
    fn clock_policy_and_descriptor_changes_each_miss() {
        let mut gpu = device();
        let base = LaunchConfig::from_grid(mixed_grid(second()));
        gpu.launch(&base).unwrap();
        // Another name, same numbers: the name is not part of the shape.
        let mut renamed = second();
        renamed.name = "b-renamed".into();
        gpu.launch(&LaunchConfig::from_grid(mixed_grid(renamed)))
            .unwrap();
        assert_eq!(gpu.simulation_reuses(), 1);

        let base_policy = base.clone().with_policy(DispatchPolicy::GreedyGlobal);
        gpu.launch(&base_policy).unwrap();
        assert_eq!(gpu.simulation_reuses(), 1, "a different policy misses");

        let mut tweaked = second();
        tweaked.comp_insts *= 1.5;
        gpu.launch(&LaunchConfig::from_grid(mixed_grid(tweaked)))
            .unwrap();
        assert_eq!(gpu.simulation_reuses(), 1, "a changed field misses");

        let fast = gpu.launch(&base).unwrap();
        assert_eq!(gpu.simulation_reuses(), 2);
        assert!(gpu.set_power_state(2, 0.5, 0.0));
        let slow = gpu.launch(&base).unwrap();
        assert_eq!(gpu.simulation_reuses(), 2, "a DVFS state change misses");
        assert!(slow.sim.elapsed_s > fast.sim.elapsed_s);
        // Back at the top clock the first simulation is still there.
        assert!(gpu.set_power_state(0, 1.0, 0.0));
        let back = gpu.launch(&base).unwrap();
        assert_eq!(gpu.simulation_reuses(), 3);
        assert!(Arc::ptr_eq(&back.sim, &fast.sim));
    }

    #[test]
    fn failed_simulations_are_not_remembered() {
        let mut gpu = device();
        let huge = KernelDesc::builder("huge")
            .threads_per_block(2048)
            .comp_insts(1.0)
            .build();
        let launch = LaunchConfig::single(huge, 1);
        for _ in 0..2 {
            assert!(matches!(
                gpu.launch(&launch),
                Err(GpuError::Unschedulable(_))
            ));
        }
        assert_eq!(gpu.simulation_reuses(), 0);
    }

    #[test]
    fn constant_load_and_dma_stats() {
        let mut gpu = device();
        let c = gpu.load_constant(&[1u8; 256]).unwrap();
        assert_eq!(gpu.memory().read(c, 0, 256).unwrap(), &[1u8; 256][..]);
        let p = gpu.malloc(128).unwrap();
        gpu.memcpy_h2d(p, 0, &[2u8; 128]).unwrap();
        let (back, _) = gpu.memcpy_d2h(p, 0, 128).unwrap();
        assert_eq!(back, vec![2u8; 128]);
        let s = gpu.dma_stats();
        assert_eq!(s.h2d_bytes, 128);
        assert_eq!(s.d2h_bytes, 128);
        assert_eq!(s.transfers, 2);
    }
}

/// Device-side allocation + upload, abstracted so workload instance
/// builders can target either the raw device or a consolidation-framework
/// frontend (which proxies these calls to its backend).
pub trait DeviceAlloc {
    /// Allocate `len` bytes of device memory.
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, GpuError>;
    /// Copy host bytes into device memory.
    fn upload(&mut self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError>;
}

impl DeviceAlloc for GpuDevice {
    fn alloc_bytes(&mut self, len: u64) -> Result<DevicePtr, GpuError> {
        self.malloc(len)
    }
    fn upload(&mut self, dst: DevicePtr, offset: u64, data: &[u8]) -> Result<(), GpuError> {
        self.memcpy_h2d(dst, offset, data).map(|_| ())
    }
}
