//! Fluid event-driven execution engine.
//!
//! The engine advances a launch from block-completion event to
//! block-completion event. Between events every resident block progresses
//! at a constant *rate* (fraction of its solo speed) determined by two
//! contention mechanisms:
//!
//! 1. **Issue-slot sharing (warp interleaving).** Each block carries an
//!    issue demand `d` ([`crate::timing::BlockCost::issue_demand`]). On an
//!    SM whose resident demands sum to `Σd ≤ 1`, every block runs at full
//!    solo speed — the SM's warp scheduler interleaves their warps into
//!    each other's stall cycles. Beyond saturation each block is scaled by
//!    `1/Σd` (fair proportional issue sharing). This single rule produces
//!    both of the paper's motivating scenarios: co-residency of two
//!    compute-bound kernels serialises them (scenario 1), while a
//!    compute-bound kernel rides for free in a latency-bound kernel's
//!    stall slots (scenario 2).
//! 2. **Global bandwidth sharing.** Summing every block's instantaneous
//!    bandwidth demand gives the device demand `D`; if `D` exceeds the
//!    DRAM bandwidth, each block's memory-bound fraction is scaled by
//!    `BW/D`.
//!
//! Dispatch follows the configured [`DispatchPolicy`]. Under the default
//! paper policy, blocks are admitted in round-robin waves at launch
//! (occupancy permitting), and whenever SMs go fully idle all untouched
//! blocks are redistributed round-robin among the idle SMs — reproducing
//! the critical-SM placements the paper observes in its two scenarios.
//!
//! # Cohorts, the SoA arena and the incremental hot loop
//!
//! Residency is tracked in **cohorts**, not per-block records: blocks of
//! the same segment admitted to the same SM in the same admission round
//! share one cohort (one cost, one rate, one remaining time), so a wave
//! of identical blocks advances and retires in O(1) instead of O(blocks).
//! Blocks that diverge — different segments, or admitted at different
//! times — simply land in their own cohorts, degenerating gracefully to
//! the per-block behaviour.
//!
//! Cohort state lives in a **struct-of-arrays arena** ([`SimArena`]):
//! parallel lanes for rate, remaining work, anchor, predicted finish,
//! member count and a per-cohort copy of the segment's rate constants
//! ([`SegRate`]), laid out as fixed-stride per-SM runs (the stride is the
//! device's block-slot limit, which also bounds live cohorts per SM).
//! The incremental rate pass therefore streams over contiguous memory —
//! no pointer chasing through cohort records and no random per-event
//! lookups into the per-segment cost table, which matters once storms
//! carry a thousand segments. Retirement is a batched in-place
//! **compaction** of each
//! touched SM's lane run (admission order preserved), not a linked-list
//! unlink. The arena itself is reused across runs through a thread-local
//! slot, so decision-engine fan-outs and benchmark loops stop paying
//! allocation churn per simulation; only the outputs (trace, counters,
//! intervals) are freshly allocated, because [`SimOutcome`] owns them.
//!
//! Each cohort anchors its progress integral at the last time its rate
//! changed: `remaining` solo-seconds at `anchor_s` plus the current rate
//! give an absolute predicted `finish_s`. Between events nothing is
//! advanced; a cohort is re-anchored only when its freshly computed rate
//! differs **bitwise** from the cached one, and hardware counters are
//! folded in once per cohort at retirement. Per event the engine
//! recomputes per-SM aggregates only for SMs whose resident set changed,
//! folding each SM's *delta* into running device-wide totals (bandwidth
//! demand, snapshot rates) so no per-event pass over all SMs remains;
//! the DRAM rescale is a device-wide factor, so when it moves every SM is
//! re-rated (the saturated regime), and when it is stable the update set
//! is just the dirty SMs. The next completion comes from an indexed
//! min-structure — the earliest predicted finish per SM, refreshed for
//! touched SMs only and folded in O(num SMs) — and adjacent
//! [`ActivityInterval`]s with identical [`EventRates`] are coalesced so
//! long soaks stop growing the profile unboundedly.
//!
//! Determinism: [`ExecutionEngine::run`] and the feature-gated
//! [`ExecutionEngine::run_reference`] (which re-rates every SM every
//! event and scans for the minimum) share every arithmetic statement and
//! differ only in *which* SMs they recompute and *how* they locate the
//! minimum. Because recomputation is idempotent — same inputs in the
//! same order produce the same bits — the two produce byte-identical
//! [`SimOutcome`]s; the differential sweep below asserts exactly that.
//! Lane order within an SM is admission order, exactly the order the
//! former intrusive chains were walked in, so the SoA layout changes
//! where the floats live, never the sequence they are combined in.
//!
//! Completion events release occupancy, pull new blocks, and append to
//! the trace and the activity profile. The simulation cost is
//! O(events × (SMs + changed cohorts)), independent of the simulated
//! wall time, which keeps the harnesses fast even for multi-minute
//! simulated workloads.
//!
//! The loop keeps its own time: no other component reads a simulation
//! while it runs, so simulated time is a plain `now_s` float stepped by
//! `dt = f_min − now` at each completion, and the admission round
//! (cohorts merge only within one) is a counter bumped once per event.

use std::cell::RefCell;

use crate::config::GpuConfig;
use crate::counters::{ActivityInterval, DeviceCounters, EventRates};
use crate::error::GpuError;
use crate::grid::{BlockCoord, Grid};
use crate::occupancy::{Occupancy, SmResources};
use crate::scheduler::{BlockDispatcher, DispatchPolicy, DispatchScratch};
use crate::timing::BlockCost;
use crate::trace::{BlockEvent, ExecutionTrace};

/// Relative tolerance under which a block's remaining work counts as done.
const DONE_EPS: f64 = 1e-12;

/// Result of simulating one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Wall time of the launch in seconds (kernel execution only; DMA
    /// time is accounted by the device).
    pub elapsed_s: f64,
    /// Per-block trace.
    pub trace: ExecutionTrace,
    /// Cumulative hardware counters.
    pub counters: DeviceCounters,
    /// Piecewise-constant activity profile for the power ground truth
    /// (adjacent intervals with identical rates are coalesced).
    pub intervals: Vec<ActivityInterval>,
}

/// The execution engine. Stateless apart from configuration; every call
/// to [`ExecutionEngine::run`] simulates one launch from scratch
/// (scratch buffers are recycled through a thread-local [`SimArena`]).
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    cfg: GpuConfig,
}

/// Arena slot for one admitted block: its coordinate plus the index of
/// the next member of the same cohort (`NO_MEMBER` terminates).
#[derive(Debug, Clone, Copy)]
struct MemberNode {
    coord: BlockCoord,
    next: u32,
}

/// Chain terminator for [`MemberNode::next`].
const NO_MEMBER: u32 = u32::MAX;

/// "No cohort yet" sentinel for the per-SM merge cache
/// ([`SimArena::sm_last_seg`]).
const NO_SEG: u32 = u32::MAX;

/// The cold per-cohort fields, packed into one lane array so admission
/// and retirement-compaction touch one location instead of five: the
/// hot loops never read these, only admission and retirement do.
#[derive(Debug, Clone, Copy)]
struct CohortMeta {
    /// Grid segment index (keys the cost and descriptor at retirement).
    seg: u32,
    /// Member count.
    n: u32,
    /// First member (index into `SimArena::members`).
    mhead: u32,
    /// Last member of the chain (where the next merge links in).
    mtail: u32,
    /// Admission time of the cohort.
    start_s: f64,
}

impl Default for CohortMeta {
    fn default() -> Self {
        CohortMeta {
            seg: 0,
            n: 0,
            mhead: NO_MEMBER,
            mtail: NO_MEMBER,
            start_s: 0.0,
        }
    }
}

/// The per-segment constants the rate pass reads for every resident
/// cohort, packed into one cache line (a [`BlockCost`] spans two and
/// carries fields the hot loop never touches). The `*_per_solo` fields
/// fold the segment's reciprocal solo time into its counter totals, so
/// each per-cohort accumulation is one multiply instead of two plus a
/// division. Every cohort carries its own copy in the arena's `c_sr`
/// lane: a thousand-segment storm would otherwise hit a random cache
/// line of the per-segment table on every cohort visit.
#[derive(Debug, Clone, Copy, Default)]
struct SegRate {
    /// Issue demand of one block.
    issue_demand: f64,
    /// Bandwidth demand of one block at issue-limited speed.
    bw_solo: f64,
    /// `1 - mem_fraction`.
    compute_frac: f64,
    /// Memory-bound fraction of the block's solo time.
    mem_fraction: f64,
    /// Compute operations per solo-second.
    comp_ops_per_solo: f64,
    /// Memory transactions per solo-second.
    mem_txn_per_solo: f64,
    /// DRAM bytes per solo-second.
    bytes_per_solo: f64,
    /// Warps per block, as a float.
    warps: f64,
}

impl SegRate {
    fn of(cost: &BlockCost) -> SegRate {
        let inv_solo = 1.0 / cost.t_solo_s;
        SegRate {
            issue_demand: cost.issue_demand,
            bw_solo: cost.bw_solo,
            compute_frac: 1.0 - cost.mem_fraction,
            mem_fraction: cost.mem_fraction,
            comp_ops_per_solo: cost.comp_ops * inv_solo,
            mem_txn_per_solo: cost.mem_requests * inv_solo,
            bytes_per_solo: cost.mem_bytes * inv_solo,
            warps: f64::from(cost.warps),
        }
    }
}

/// Reusable simulation state: every buffer a run needs that is not part
/// of its output. One arena lives per thread (see [`ARENA`]); a run
/// borrows it, resizes the lanes for its device geometry, and leaves the
/// allocations behind for the next run — so fan-outs that assess
/// thousands of candidate grids allocate only on their first simulation.
///
/// Cohort lanes (`c_*`) are parallel arrays with a fixed stride of
/// `max_blocks_per_sm` per SM: cohort `k` of SM `s` lives at index
/// `s * stride + k`, in admission order. An SM can never hold more live
/// cohorts than resident blocks, and occupancy caps those at the block-
/// slot limit, so the stride is exact. Lanes at or past an SM's
/// `sm_len` are garbage by design — admission writes before anything
/// reads — which is why preparing the arena never clears them.
#[derive(Debug, Default)]
struct SimArena {
    /// Per-cohort copy of the segment's rate constants.
    c_sr: Vec<SegRate>,
    /// Current progress rate (0.0 until first rated).
    c_rate: Vec<f64>,
    /// Time of the last re-anchor (rate change).
    c_anchor: Vec<f64>,
    /// Remaining solo-seconds as of the anchor.
    c_remaining: Vec<f64>,
    /// Absolute predicted completion time under the current rate.
    c_finish: Vec<f64>,
    /// Member count as a float (the hot loops' multiplier).
    c_nf: Vec<f64>,
    /// The cold fields (segment, member chain, admission time).
    c_meta: Vec<CohortMeta>,

    /// Live cohorts per SM (length of the SM's lane run).
    sm_len: Vec<u32>,
    /// Membership changed since the SM's last re-rate.
    sm_dirty: Vec<bool>,
    /// The SMs whose `sm_dirty` flag is set, in no particular order
    /// (sorted before use). The per-event update sets are tiny at storm
    /// scale — typically one SM — so the hot loop iterates this list
    /// instead of scanning every SM's flag.
    touched: Vec<u32>,
    /// Cached issue-demand sum of the resident cohorts.
    sm_sum_d: Vec<f64>,
    /// Cached bandwidth demand at issue-limited speed.
    sm_bw: Vec<f64>,
    /// Earliest predicted finish on this SM: the entry the indexed
    /// min-structure folds over, refreshed whenever the SM is re-rated.
    sm_min_finish: Vec<f64>,
    /// Cached event-rate subtotals.
    sm_rates: Vec<EventRates>,
    /// Segment of the SM's most recently admitted cohort (merge cache).
    sm_last_seg: Vec<u32>,
    /// Admission round of that cohort; merges require both to match.
    /// Rounds are unique per event, so a retired tail can never be
    /// merged into — its round is already in the past.
    sm_last_round: Vec<u64>,

    /// Member arena: one slot per admitted block, chained per cohort in
    /// admission order.
    members: Vec<MemberNode>,
    /// Preallocated idle-SM scratch for the redistribution scan.
    idle_buf: Vec<usize>,
    /// Per-SM occupancy trackers.
    sms: Vec<SmResources>,
    /// Recycled dispatcher queues.
    dispatch: DispatchScratch,
}

impl SimArena {
    /// Resize for a device of `n_sms` SMs with `stride` block slots each
    /// and reset all per-run state. Lane contents are *not* cleared —
    /// see the type-level invariant.
    fn prepare(&mut self, n_sms: usize, stride: usize, total_blocks: usize, cfg: &GpuConfig) {
        let lanes = n_sms * stride;
        if self.c_sr.len() < lanes {
            self.c_sr.resize(lanes, SegRate::default());
            self.c_rate.resize(lanes, 0.0);
            self.c_anchor.resize(lanes, 0.0);
            self.c_remaining.resize(lanes, 0.0);
            self.c_finish.resize(lanes, 0.0);
            self.c_nf.resize(lanes, 0.0);
            self.c_meta.resize(lanes, CohortMeta::default());
        }
        self.sm_len.clear();
        self.sm_len.resize(n_sms, 0);
        self.sm_dirty.clear();
        self.sm_dirty.resize(n_sms, true);
        self.touched.clear();
        self.touched.extend(0..n_sms as u32);
        self.sm_sum_d.clear();
        self.sm_sum_d.resize(n_sms, 0.0);
        self.sm_bw.clear();
        self.sm_bw.resize(n_sms, 0.0);
        self.sm_min_finish.clear();
        self.sm_min_finish.resize(n_sms, f64::INFINITY);
        self.sm_rates.clear();
        self.sm_rates.resize(n_sms, EventRates::default());
        self.sm_last_seg.clear();
        self.sm_last_seg.resize(n_sms, NO_SEG);
        self.sm_last_round.clear();
        self.sm_last_round.resize(n_sms, u64::MAX);
        self.members.clear();
        self.members.reserve(total_blocks);
        self.idle_buf.clear();
        self.idle_buf.reserve(n_sms);
        self.sms.clear();
        self.sms.resize(n_sms, SmResources::new(cfg));
    }
}

thread_local! {
    /// The per-thread arena slot. `run` borrows it for the duration of
    /// one simulation; a (never expected) re-entrant simulation on the
    /// same thread simply falls back to a fresh arena.
    static ARENA: RefCell<SimArena> = RefCell::new(SimArena::default());
}

impl ExecutionEngine {
    /// Create an engine for the given device configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        ExecutionEngine { cfg }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Simulate `grid` under `policy`.
    ///
    /// Fails if the grid is empty or any segment's blocks cannot ever be
    /// resident on an SM.
    pub fn run(&self, grid: &Grid, policy: DispatchPolicy) -> Result<SimOutcome, GpuError> {
        self.simulate(grid, policy, false)
    }

    /// Simulate `grid` with the naive reference loop: every SM is
    /// re-rated on every event and the next completion is found by a
    /// full scan. Shares every arithmetic statement with [`Self::run`],
    /// so its output is byte-identical — it exists as the differential
    /// oracle for the incremental engine.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn run_reference(
        &self,
        grid: &Grid,
        policy: DispatchPolicy,
    ) -> Result<SimOutcome, GpuError> {
        self.simulate(grid, policy, true)
    }

    fn simulate(
        &self,
        grid: &Grid,
        policy: DispatchPolicy,
        reference: bool,
    ) -> Result<SimOutcome, GpuError> {
        ARENA.with(|slot| match slot.try_borrow_mut() {
            Ok(mut arena) => self.simulate_in(grid, policy, reference, &mut arena),
            Err(_) => self.simulate_in(grid, policy, reference, &mut SimArena::default()),
        })
    }

    fn simulate_in(
        &self,
        grid: &Grid,
        policy: DispatchPolicy,
        reference: bool,
        arena: &mut SimArena,
    ) -> Result<SimOutcome, GpuError> {
        if grid.total_blocks() == 0 {
            return Err(GpuError::EmptyGrid);
        }
        // Every segment must be schedulable on its own.
        for seg in grid.segments() {
            Occupancy::of(&seg.desc, &self.cfg)?;
        }

        let costs: Vec<BlockCost> = grid
            .segments()
            .iter()
            .map(|s| BlockCost::derive(&s.desc, &self.cfg))
            .collect();
        // Per-segment hot-loop constants, one cache line per segment
        // (copied into each cohort's lane at admission).
        let seg_rates: Vec<SegRate> = costs.iter().map(SegRate::of).collect();

        let n_sms = self.cfg.num_sms as usize;
        let stride = self.cfg.max_blocks_per_sm as usize;
        arena.prepare(n_sms, stride, grid.total_blocks() as usize, &self.cfg);
        let mut sim = Sim {
            grid,
            costs: &costs,
            seg_rates: &seg_rates,
            dispatcher: BlockDispatcher::recycled(
                std::mem::take(&mut arena.dispatch),
                grid,
                self.cfg.num_sms,
                policy,
            ),
            stride,
            a: arena,
            dram_bandwidth: self.cfg.dram_bandwidth,
            live_blocks: 0,
            now_s: 0.0,
            round: 0,
            prev_bw_scale: 1.0,
            demand: 0.0,
            snap_acc: EventRates::default(),
            active_sms: 0,
            trace: {
                let mut t = ExecutionTrace::default();
                t.reserve(grid.total_blocks() as usize);
                t
            },
            counters: DeviceCounters::new(self.cfg.num_sms),
            // One interval per event, at most one event per block (plus
            // the opening one): reserving the bound up front keeps the
            // hot loop free of mid-run reallocation copies. Capped so a
            // million-block grid that coalesces into a handful of
            // intervals does not pre-commit tens of megabytes.
            intervals: Vec::with_capacity((grid.total_blocks() as usize + 1).min(65_536)),
            reference,
            // A single-segment grid re-rates every SM on every event
            // anyway (every completion frees occupancy somewhere and the
            // refill touches the whole device), so the dirty bookkeeping
            // only costs; fall back to the reference update sets.
            scan_all: reference || grid.segments().len() == 1,
        };

        // Initial admission, at time zero.
        let start_s = sim.now_s;
        match policy {
            DispatchPolicy::PaperRedistribution | DispatchPolicy::GreedyGlobal => {
                sim.admit_waves(start_s);
            }
            DispatchPolicy::StaticRoundRobin => {
                for sm in 0..n_sms {
                    sim.admit_committed(sm, start_s);
                }
            }
        }

        let r = sim.run_loop(policy);
        let elapsed_s = sim.now_s;
        sim.counters.elapsed_s = elapsed_s;
        debug_assert!(
            r.is_err() || sim.dispatcher.pending() == 0,
            "blocks left undispatched"
        );
        let outcome = SimOutcome {
            elapsed_s,
            trace: sim.trace,
            counters: sim.counters,
            intervals: sim.intervals,
        };
        arena.dispatch = sim.dispatcher.into_scratch();
        r.map(|()| outcome)
    }
}

/// All mutable state of one simulation. The `reference` flag selects the
/// naive full-rescan paths (update set = all SMs, min by scan); every
/// arithmetic statement is shared with the incremental paths.
struct Sim<'a> {
    grid: &'a Grid,
    costs: &'a [BlockCost],
    /// Per-segment constants for the rate pass, one cache line each.
    seg_rates: &'a [SegRate],
    dispatcher: BlockDispatcher,
    /// Cohort-lane stride: `max_blocks_per_sm`, the per-SM live-cohort
    /// bound.
    stride: usize,
    /// The recycled SoA arena holding all cohort and per-SM state.
    a: &'a mut SimArena,
    dram_bandwidth: f64,
    live_blocks: u64,
    /// Simulated time, advanced only by completion events.
    now_s: f64,
    /// Admission round: bumped once per completion event.
    round: u64,
    prev_bw_scale: f64,
    /// Running device bandwidth demand: Σ over SMs of `sm_bw`,
    /// maintained by deltas as SMs are recomputed (see [`Sim::rate_pass`]).
    demand: f64,
    /// Running device-wide snapshot subtotals (`active_sm_frac` unused),
    /// maintained by the same delta discipline.
    snap_acc: EventRates,
    /// SMs currently holding at least one live cohort.
    active_sms: u32,
    trace: ExecutionTrace,
    counters: DeviceCounters,
    intervals: Vec<ActivityInterval>,
    reference: bool,
    /// Recompute every SM every event (reference mode, or a grid shape
    /// where the dirty bookkeeping cannot pay for itself).
    scan_all: bool,
}

impl Sim<'_> {
    /// Admit one block to `sm`, merging it into the SM's most recent
    /// cohort when it is the same segment admitted in the same round.
    ///
    /// `now_s` is the caller's copy of [`Sim::now_s`].
    fn admit(&mut self, sm: usize, coord: BlockCoord, now_s: f64) {
        let segment = coord.segment;
        self.a.sms[sm].admit_unchecked(&self.grid.segments()[segment].desc);
        self.live_blocks += 1;
        if !self.a.sm_dirty[sm] {
            self.a.sm_dirty[sm] = true;
            self.a.touched.push(sm as u32);
        }
        let node = self.a.members.len() as u32;
        self.a.members.push(MemberNode {
            coord,
            next: NO_MEMBER,
        });
        let round = self.round;
        let len = self.a.sm_len[sm] as usize;
        if len > 0 && self.a.sm_last_round[sm] == round && self.a.sm_last_seg[sm] == segment as u32
        {
            // Merge into the SM's lane tail. The cache cannot point at a
            // retired cohort: rounds are unique per event and admissions
            // follow retirements within one.
            let tail = sm * self.stride + len - 1;
            let meta = &mut self.a.c_meta[tail];
            meta.n += 1;
            let prev_member = meta.mtail;
            meta.mtail = node;
            self.a.c_nf[tail] = f64::from(meta.n);
            self.a.members[prev_member as usize].next = node;
            return;
        }
        debug_assert!(len < self.stride, "more cohorts than block slots");
        if len == 0 {
            self.active_sms += 1;
        }
        let lane = sm * self.stride + len;
        self.a.c_sr[lane] = self.seg_rates[segment];
        self.a.c_rate[lane] = 0.0;
        self.a.c_anchor[lane] = now_s;
        self.a.c_remaining[lane] = self.costs[segment].t_solo_s;
        self.a.c_finish[lane] = f64::INFINITY;
        self.a.c_nf[lane] = 1.0;
        self.a.c_meta[lane] = CohortMeta {
            seg: segment as u32,
            n: 1,
            mhead: node,
            mtail: node,
            start_s: now_s,
        };
        self.a.sm_len[sm] = (len + 1) as u32;
        self.a.sm_last_seg[sm] = segment as u32;
        self.a.sm_last_round[sm] = round;
    }

    /// Admit as many blocks committed to `sm` as fit, in FIFO order.
    /// (For the greedy policy the "committed queue" is the global pool.)
    fn admit_committed(&mut self, sm: usize, now_s: f64) {
        while let Some(&coord) = self.dispatcher.peek(sm) {
            if !self.a.sms[sm].fits(&self.grid.segments()[coord.segment].desc) {
                break;
            }
            let coord = self.dispatcher.pop(sm).expect("peeked block vanished");
            self.admit(sm, coord, now_s);
        }
    }

    /// Admit pooled blocks in round-robin waves: each pass over the SMs
    /// admits at most one block per SM, in block order; passes repeat
    /// until a full pass admits nothing.
    fn admit_waves(&mut self, now_s: f64) {
        loop {
            let mut progress = false;
            for sm in 0..self.a.sms.len() {
                let Some(&coord) = self.dispatcher.peek_pool() else {
                    return;
                };
                if self.a.sms[sm].fits(&self.grid.segments()[coord.segment].desc) {
                    let coord = self.dispatcher.pop_pool().expect("peeked block vanished");
                    self.admit(sm, coord, now_s);
                    progress = true;
                }
            }
            if !progress {
                return;
            }
        }
    }

    /// Recompute cached aggregates for changed SMs, derive the device
    /// bandwidth scale, re-rate the update set (re-anchoring cohorts
    /// whose rate moved bitwise), and return the device-wide event rates
    /// for the coming interval.
    ///
    /// The device-wide aggregates (`demand`, the snapshot subtotals)
    /// are maintained *incrementally*: each recomputed SM folds the
    /// difference between its new and cached subtotal into the running
    /// value. An SM whose inputs did not change recomputes bitwise the
    /// same subtotal, so its delta is exactly `+0.0` and adding it is a
    /// bitwise no-op (the subtotals are non-negative, so `-0.0` never
    /// arises) — which is why the reference mode, which recomputes
    /// every SM every event, maintains bit-identical running values
    /// while the incremental mode touches only dirty SMs. This replaces
    /// the former per-event fold over all SMs, the single biggest fixed
    /// cost per event at storm scale.
    fn rate_pass(&mut self, now: f64) -> EventRates {
        let a = &mut *self.a;
        let n_sms = a.sm_len.len();
        // Deltas below must fold into the running totals in ascending SM
        // order — the order the reference full scan applies them in.
        // The list is one or two entries on a typical event; a hand
        // insertion sort skips the general-purpose sort's dispatch.
        for i in 1..a.touched.len() {
            let mut j = i;
            while j > 0 && a.touched[j - 1] > a.touched[j] {
                a.touched.swap(j - 1, j);
                j -= 1;
            }
        }
        let dirty_n = a.touched.len();
        // Per-SM issue-demand sums and bandwidth demand at issue-limited
        // speed, for SMs whose membership changed.
        let pass1_n = if self.scan_all { n_sms } else { dirty_n };
        for k in 0..pass1_n {
            let sm = if self.scan_all {
                k
            } else {
                a.touched[k] as usize
            };
            let base = sm * self.stride;
            let len = a.sm_len[sm] as usize;
            let srs = &a.c_sr[base..base + len];
            let nfs = &a.c_nf[base..base + len];
            // One pass, two independent accumulators: the SM's issue
            // demand and its solo-speed bandwidth appetite. The share
            // factor is constant across the SM's lanes, so it scales
            // the summed appetite once instead of every term (both
            // engine modes run this statement, so they stay bitwise
            // aligned with each other).
            let mut d = 0.0;
            let mut bw_solo = 0.0;
            for i in 0..len {
                d += nfs[i] * srs[i].issue_demand;
                bw_solo += nfs[i] * srs[i].bw_solo;
            }
            let share = if d > 1.0 { 1.0 / d } else { 1.0 };
            let bw = bw_solo * share;
            a.sm_sum_d[sm] = d;
            self.demand += bw - a.sm_bw[sm];
            a.sm_bw[sm] = bw;
        }

        // Device bandwidth scale: a single device-wide factor, so a move
        // forces every SM into the update set (the saturated regime).
        let bw_scale = if self.demand > self.dram_bandwidth {
            self.dram_bandwidth / self.demand
        } else {
            1.0
        };
        let rate_all = self.scan_all || bw_scale.to_bits() != self.prev_bw_scale.to_bits();
        self.prev_bw_scale = bw_scale;

        // Re-rate the update set, refreshing each touched SM's earliest
        // predicted finish in the min index as we go.
        let rerate_n = if rate_all { n_sms } else { dirty_n };
        for k in 0..rerate_n {
            let sm = if rate_all { k } else { a.touched[k] as usize };
            let d = a.sm_sum_d[sm];
            let share = if d > 1.0 { 1.0 / d } else { 1.0 };
            let base = sm * self.stride;
            let len = a.sm_len[sm] as usize;
            let srs = &a.c_sr[base..base + len];
            let nfs = &a.c_nf[base..base + len];
            let rates = &mut a.c_rate[base..base + len];
            let anchors = &mut a.c_anchor[base..base + len];
            let remainings = &mut a.c_remaining[base..base + len];
            let finishes = &mut a.c_finish[base..base + len];
            let mut sub = EventRates::default();
            let mut sm_min = f64::INFINITY;
            for i in 0..len {
                let sr = &srs[i];
                let rate = share * (sr.compute_frac + sr.mem_fraction * bw_scale);
                if rate.to_bits() != rates[i].to_bits() {
                    // Re-anchor: bank progress at the old rate, then
                    // predict the finish under the new one.
                    let span = now - anchors[i];
                    remainings[i] = (remainings[i] - rates[i] * span).max(0.0);
                    anchors[i] = now;
                    rates[i] = rate;
                    finishes[i] = if rate > 0.0 {
                        now + remainings[i] / rate
                    } else {
                        f64::INFINITY
                    };
                }
                sm_min = sm_min.min(finishes[i]);
                let nf = nfs[i];
                sub.comp_ops_per_s += nf * (rates[i] * sr.comp_ops_per_solo);
                sub.mem_txn_per_s += nf * (rates[i] * sr.mem_txn_per_solo);
                sub.bytes_per_s += nf * (rates[i] * sr.bytes_per_solo);
                sub.resident_warps += nf * sr.warps;
            }
            let old = &a.sm_rates[sm];
            self.snap_acc.comp_ops_per_s += sub.comp_ops_per_s - old.comp_ops_per_s;
            self.snap_acc.mem_txn_per_s += sub.mem_txn_per_s - old.mem_txn_per_s;
            self.snap_acc.bytes_per_s += sub.bytes_per_s - old.bytes_per_s;
            self.snap_acc.resident_warps += sub.resident_warps - old.resident_warps;
            a.sm_rates[sm] = sub;
            a.sm_min_finish[sm] = sm_min;
            a.sm_dirty[sm] = false;
        }
        // Under `rate_all` the loop above visited (and un-dirtied) every
        // listed SM already; otherwise the list and the loop coincide.
        // Either way every flag is now clear, so the list resets.
        for &sm in &a.touched {
            a.sm_dirty[sm as usize] = false;
        }
        a.touched.clear();

        // The device-wide snapshot is the running incremental total (an
        // SM that just emptied zeroes its own subtotal out of it above,
        // because retirement left it dirty); only the active-SM count is
        // derived fresh, from its own incrementally-maintained tally.
        let mut snap = self.snap_acc;
        snap.active_sm_frac = self.active_sms as f64 / n_sms as f64;
        snap
    }

    /// The earliest predicted finish over all live cohorts: a fold over
    /// the per-SM min index (the reference engine rescans every cohort
    /// instead). `min` is associative and commutative bitwise here (no
    /// NaNs, no negative zeros), so the unrolled fold and the reference
    /// scan agree on the minimum of the same multiset.
    fn next_finish(&self) -> f64 {
        let a = &*self.a;
        if self.reference {
            let mut f = f64::INFINITY;
            for sm in 0..a.sm_len.len() {
                let base = sm * self.stride;
                for i in 0..a.sm_len[sm] as usize {
                    f = f.min(a.c_finish[base + i]);
                }
            }
            return f;
        }
        // Finish times are non-negative (or `+inf` on an empty SM) and
        // never NaN, and non-negative doubles order exactly like their
        // unsigned bit patterns — so the fold runs on integer bits,
        // which the compiler turns into straight-line vector min (the
        // IEEE `minNum` lowering it would otherwise emit costs several
        // instructions per lane). Four accumulators break the serial
        // latency chain.
        let mut acc = [f64::INFINITY.to_bits(); 4];
        let mut chunks = a.sm_min_finish.chunks_exact(4);
        for ch in &mut chunks {
            acc[0] = acc[0].min(ch[0].to_bits());
            acc[1] = acc[1].min(ch[1].to_bits());
            acc[2] = acc[2].min(ch[2].to_bits());
            acc[3] = acc[3].min(ch[3].to_bits());
        }
        for f in chunks.remainder() {
            acc[0] = acc[0].min(f.to_bits());
        }
        f64::from_bits((acc[0].min(acc[1])).min(acc[2].min(acc[3])))
    }

    /// Retire every cohort whose predicted finish falls within the
    /// relative tie window of `f_min`, in (SM, admission) order: fold
    /// its counters over its whole residency, emit its trace events,
    /// release occupancy and compact the SM's lane run in place
    /// (admission order preserved). The window is monotone in the finish
    /// time, so skipping SMs whose indexed minimum lies beyond it
    /// provably retires the same set as the reference full walk;
    /// retirement mutates nothing the predicate reads, so retiring and
    /// compacting in one pass selects the same set as a
    /// collect-then-retire split.
    fn retire(&mut self, f_min: f64, now_s: f64) {
        let thresh = f_min * (1.0 + DONE_EPS);
        let n_sms = self.a.sm_len.len();
        if self.scan_all {
            for sm in 0..n_sms {
                self.retire_sm(sm, thresh, now_s);
            }
            return;
        }
        // Branch-free due scan: collect the SMs whose indexed minimum
        // falls inside the window into a bitmask (non-negative finish
        // times compare as their unsigned bit patterns, and an empty
        // SM's `+inf` can never pass), then walk the set bits. Ascending
        // SM order is preserved: chunks ascend and `trailing_zeros`
        // yields ascending indices within one.
        let tb = thresh.to_bits();
        let mut base_sm = 0usize;
        while base_sm < n_sms {
            let hi = (base_sm + 64).min(n_sms);
            let mut mask = 0u64;
            for sm in base_sm..hi {
                mask |= u64::from(self.a.sm_min_finish[sm].to_bits() <= tb) << (sm - base_sm);
            }
            while mask != 0 {
                let sm = base_sm + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.retire_sm(sm, thresh, now_s);
            }
            base_sm = hi;
        }
    }

    /// Retire the due cohorts of one SM and compact its lane run.
    fn retire_sm(&mut self, sm: usize, thresh: f64, now_s: f64) {
        {
            let base = sm * self.stride;
            let len = self.a.sm_len[sm] as usize;
            let mut w = 0usize;
            for r in 0..len {
                if self.a.c_finish[base + r] <= thresh {
                    self.retire_one(sm, base + r, now_s);
                    if !self.a.sm_dirty[sm] {
                        self.a.sm_dirty[sm] = true;
                        self.a.touched.push(sm as u32);
                    }
                } else {
                    if w != r {
                        let a = &mut *self.a;
                        a.c_sr[base + w] = a.c_sr[base + r];
                        a.c_rate[base + w] = a.c_rate[base + r];
                        a.c_anchor[base + w] = a.c_anchor[base + r];
                        a.c_remaining[base + w] = a.c_remaining[base + r];
                        a.c_finish[base + w] = a.c_finish[base + r];
                        a.c_nf[base + w] = a.c_nf[base + r];
                        a.c_meta[base + w] = a.c_meta[base + r];
                    }
                    w += 1;
                }
            }
            if w == 0 && len > 0 {
                self.active_sms -= 1;
            }
            self.a.sm_len[sm] = w as u32;
        }
    }

    /// Fold one finished cohort's counters over its whole residency,
    /// emit its trace events and release its occupancy. The caller
    /// compacts the lane run.
    fn retire_one(&mut self, sm: usize, lane: usize, now: f64) {
        let a = &mut *self.a;
        let meta = a.c_meta[lane];
        let seg = meta.seg as usize;
        let cost = &self.costs[seg];
        let consumed =
            cost.t_solo_s - (a.c_remaining[lane] - a.c_rate[lane] * (now - a.c_anchor[lane]));
        let frac = (consumed / cost.t_solo_s).min(1.0);
        let n = meta.n;
        let nf = f64::from(n);
        let start_s = meta.start_s;
        // The shared products feed both the per-SM and device totals;
        // computing each once keeps the values bitwise identical to the
        // twice-evaluated form (same expression, same operands).
        let comp_ops = nf * (cost.comp_ops * frac);
        let mem_requests = nf * (cost.mem_requests * frac);
        let smc = &mut self.counters.per_sm[sm];
        smc.busy_s += nf * (now - start_s);
        smc.issue_cycles += nf * (cost.issue_cycles * frac);
        smc.comp_ops += comp_ops;
        smc.mem_requests += mem_requests;
        smc.blocks += n;
        self.counters.comp_ops += comp_ops;
        self.counters.mem_requests += mem_requests;
        self.counters.mem_bytes += nf * (cost.mem_bytes * frac);
        let desc = &self.grid.segments()[seg].desc;
        let mut node = meta.mhead;
        while node != NO_MEMBER {
            let m = a.members[node as usize];
            a.sms[sm].release(desc);
            self.trace.push(BlockEvent {
                coord: m.coord,
                sm: sm as u32,
                start_s,
                end_s: now,
            });
            node = m.next;
        }
        self.live_blocks -= u64::from(n);
    }

    /// The event loop: rate, step, retire, refill — until every block
    /// has retired.
    fn run_loop(&mut self, policy: DispatchPolicy) -> Result<(), GpuError> {
        // Per-SM committed queues (paper / static policies) can only
        // newly admit on an SM whose occupancy was just freed, so the
        // refill scan is restricted to SMs dirtied by this event's
        // retirements. The greedy policy shares one pool whose head
        // changes whenever *any* SM admits, so it keeps the full scan.
        let scan_all_refill = self.scan_all || policy == DispatchPolicy::GreedyGlobal;
        let n_sms = self.a.sm_len.len();
        while self.live_blocks > 0 {
            let now = self.now_s;
            let snap = self.rate_pass(now);
            let f_min = self.next_finish();
            if !f_min.is_finite() {
                return Err(GpuError::Unschedulable(
                    "no resident block can make progress".into(),
                ));
            }
            let dt = f_min - now;
            // Coalesce: extend the previous interval when the rates are
            // unchanged, otherwise start a new one.
            match self.intervals.last_mut() {
                Some(last) if last.rates == snap => last.dur_s += dt,
                _ => self.intervals.push(ActivityInterval {
                    start_s: now,
                    dur_s: dt,
                    rates: snap,
                }),
            }
            // Step to the next completion by `dt` (the sum `now + dt`
            // is not always bitwise `f_min`) and open its admission round.
            assert!(dt >= 0.0, "simulated time cannot move backwards ({dt})");
            let now = now + dt;
            self.now_s = now;
            self.round += 1;

            self.retire(f_min, now);

            // Refill from committed queues (and, for greedy, the pool):
            // skippable outright when no block is committed anywhere.
            if self.dispatcher.committed_len() > 0
                || policy == DispatchPolicy::GreedyGlobal
                || self.reference
            {
                if scan_all_refill {
                    for sm in 0..n_sms {
                        self.admit_committed(sm, now);
                    }
                } else {
                    // Only this event's retirements freed occupancy, and
                    // those SMs are exactly the touched list (rate_pass
                    // drained it; retire rebuilt it in ascending order).
                    // Admitting here cannot extend the list: the SM's
                    // dirty flag is already set.
                    let dirty_n = self.a.touched.len();
                    for k in 0..dirty_n {
                        let sm = self.a.touched[k] as usize;
                        self.admit_committed(sm, now);
                    }
                }
            }

            // Paper policy: redistribute untouched blocks to idle SMs.
            // While the pool is non-empty an SM can only *become* idle
            // by retiring its last resident this event (an SM idle at an
            // earlier event would have drained the pool then), so the
            // idle scan too is restricted to dirty SMs.
            if policy == DispatchPolicy::PaperRedistribution && self.dispatcher.pool_len() > 0 {
                self.a.idle_buf.clear();
                if self.scan_all {
                    for sm in 0..n_sms {
                        if self.a.sms[sm].resident_blocks() == 0
                            && self.dispatcher.peek(sm).is_none()
                        {
                            self.a.idle_buf.push(sm);
                        }
                    }
                } else {
                    // Same touched-list restriction as the refill above;
                    // the list is in ascending SM order, which the
                    // round-robin deal below depends on.
                    for k in 0..self.a.touched.len() {
                        let sm = self.a.touched[k] as usize;
                        if self.a.sms[sm].resident_blocks() == 0
                            && self.dispatcher.peek(sm).is_none()
                        {
                            self.a.idle_buf.push(sm);
                        }
                    }
                }
                if self.dispatcher.redistribute(&self.a.idle_buf) > 0 {
                    let idle = std::mem::take(&mut self.a.idle_buf);
                    for &sm in &idle {
                        self.admit_committed(sm, now);
                    }
                    self.a.idle_buf = idle;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ConsolidatedGrid;
    use crate::kernel::KernelDesc;
    use crate::rng::SimRng;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(GpuConfig::tesla_c1060())
    }

    /// A compute-bound kernel whose solo block time is ~`secs` seconds.
    fn compute_kernel(name: &str, tpb: u32, secs: f64) -> KernelDesc {
        let cfg = GpuConfig::tesla_c1060();
        let warps = f64::from(tpb.div_ceil(32));
        let insts = secs * cfg.clock_hz / (warps * cfg.warp_issue_cycles());
        KernelDesc::builder(name)
            .threads_per_block(tpb)
            .comp_insts(insts)
            .build()
    }

    #[test]
    fn empty_grid_rejected() {
        let e = engine();
        assert!(matches!(
            e.run(&Grid::new(), DispatchPolicy::default()),
            Err(GpuError::EmptyGrid)
        ));
    }

    #[test]
    fn single_block_runs_at_solo_speed() {
        let e = engine();
        let k = compute_kernel("k", 256, 2.0);
        let out = e
            .run(&Grid::single(k, 1), DispatchPolicy::default())
            .unwrap();
        assert!((out.elapsed_s - 2.0).abs() / 2.0 < 1e-9);
        assert_eq!(out.trace.events().len(), 1);
        assert_eq!(out.trace.events()[0].sm, 0);
    }

    #[test]
    fn one_block_per_sm_runs_fully_parallel() {
        let e = engine();
        let k = compute_kernel("k", 256, 1.0);
        let out = e
            .run(&Grid::single(k, 30), DispatchPolicy::default())
            .unwrap();
        assert!((out.elapsed_s - 1.0).abs() < 1e-6);
        assert_eq!(out.trace.sms_touched(), 30);
    }

    #[test]
    fn compute_bound_coresidency_serialises() {
        // Two compute-bound blocks co-resident on SM0: Σd = 2, each runs
        // at half speed, makespan = sum of solo times.
        let e = engine();
        let k = compute_kernel("k", 256, 1.0);
        let out = e
            .run(&Grid::single(k, 31), DispatchPolicy::default())
            .unwrap();
        assert!(
            (out.elapsed_s - 2.0).abs() < 1e-6,
            "elapsed {}",
            out.elapsed_s
        );
        assert_eq!(out.trace.critical_sms(30, 1e-9), vec![0]);
    }

    #[test]
    fn latency_bound_plus_compute_bound_interleave() {
        // A latency-bound kernel (small d) and a compute-bound kernel on
        // the same SM should finish in ≈ max of the solo times, not the
        // sum — the scenario-2 effect.
        let cfg = GpuConfig::tesla_c1060();
        let e = engine();
        let mem = KernelDesc::builder("mem")
            .threads_per_block(64)
            .coalesced_mem(200_000.0)
            .build();
        let mem_solo = BlockCost::derive(&mem, &cfg).t_solo_s;
        let comp = compute_kernel("comp", 64, mem_solo * 0.5);
        let comp_cost = BlockCost::derive(&comp, &cfg);
        let mem_cost = BlockCost::derive(&mem, &cfg);
        assert!(mem_cost.issue_demand + comp_cost.issue_demand <= 1.1);

        let g = ConsolidatedGrid::new()
            .add(Grid::single(mem, 1))
            .add(Grid::single(comp, 30)) // block 30 wraps onto SM0
            .build();
        let out = e.run(&g, DispatchPolicy::default()).unwrap();
        let slack = 1.2 * mem_solo;
        assert!(
            out.elapsed_s < slack,
            "expected interleaving: elapsed {} vs mem solo {}",
            out.elapsed_s,
            mem_solo
        );
    }

    #[test]
    fn occupancy_queueing_serialises_when_full() {
        // Blocks of 1024 threads: only one resident per SM. Two per SM →
        // strict serialisation even though Σd would allow sharing.
        let e = engine();
        let k = compute_kernel("big", 1024, 0.5);
        let out = e
            .run(&Grid::single(k, 60), DispatchPolicy::default())
            .unwrap();
        assert!((out.elapsed_s - 1.0).abs() < 1e-6);
        // Every block's start is either 0 or 0.5.
        for ev in out.trace.events() {
            assert!(ev.start_s < 1e-9 || (ev.start_s - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn paper_redistribution_piles_pending_on_early_idle_sms() {
        // Scenario-1 shape: a short 1-block-per-SM kernel on SMs 0..14,
        // a long register-heavy kernel (occupancy 1) with 45 blocks.
        // Initial wave: short → SM0-14, long blocks 0..14 → SM15-29; the
        // other 30 long blocks stay untouched (they fit nowhere). When
        // SMs 0-14 finish the short kernel they receive *all* 30
        // untouched blocks (2 each) and become the critical SMs.
        let e = engine();
        let short = {
            let mut k = compute_kernel("short", 256, 1.0);
            k.regs_per_thread = 40; // 10240 regs: blocks anything else joining
            k
        };
        let long = {
            let mut k = compute_kernel("long", 128, 2.0);
            k.regs_per_thread = 68; // 8704 regs → occupancy 1
            k
        };
        let g = ConsolidatedGrid::new()
            .add(Grid::single(short, 15))
            .add(Grid::single(long, 45))
            .build();
        let out = e.run(&g, DispatchPolicy::PaperRedistribution).unwrap();
        // SM0-14: 1.0 (short) + 2 × 2.0 (serial long, occupancy 1) = 5.0.
        // SM15-29: one long block = 2.0.
        assert!(
            (out.elapsed_s - 5.0).abs() < 1e-6,
            "elapsed {}",
            out.elapsed_s
        );
        let crit = out.trace.critical_sms(30, 1e-6);
        assert_eq!(crit, (0..15).collect::<Vec<u32>>());
        // The same mix under the idealised greedy dispatcher balances:
        // pending blocks go to whichever SM frees first.
        let out_greedy = e.run(&g, DispatchPolicy::GreedyGlobal).unwrap();
        assert!(out_greedy.elapsed_s < out.elapsed_s - 0.5);
    }

    #[test]
    fn greedy_policy_matches_static_on_symmetric_load() {
        let e = engine();
        let short = compute_kernel("short", 256, 1.0);
        let long = compute_kernel("long", 256, 3.0);
        let g = ConsolidatedGrid::new()
            .add(Grid::single(short, 30))
            .add(Grid::single(long, 1))
            .build();
        let t_static = e
            .run(&g, DispatchPolicy::StaticRoundRobin)
            .unwrap()
            .elapsed_s;
        let t_greedy = e.run(&g, DispatchPolicy::GreedyGlobal).unwrap().elapsed_s;
        // Both co-schedule the long block with a short one on SM0:
        // share until the short finishes (t=2), then the long runs alone
        // → 4.0 total.
        assert!((t_static - 4.0).abs() < 1e-6, "static {t_static}");
        assert!((t_greedy - 4.0).abs() < 1e-6, "greedy {t_greedy}");
    }

    #[test]
    fn counters_accumulate_totals() {
        let e = engine();
        let k = KernelDesc::builder("k")
            .threads_per_block(256)
            .comp_insts(1000.0)
            .coalesced_mem(100.0)
            .build();
        let out = e
            .run(&Grid::single(k.clone(), 10), DispatchPolicy::default())
            .unwrap();
        let cost = BlockCost::derive(&k, &GpuConfig::tesla_c1060());
        assert!(
            (out.counters.comp_ops - 10.0 * cost.comp_ops).abs() / out.counters.comp_ops < 1e-6
        );
        assert!(
            (out.counters.mem_requests - 10.0 * cost.mem_requests).abs()
                / out.counters.mem_requests
                < 1e-6
        );
        assert_eq!(out.counters.sms_used(), 10);
        assert!(out.counters.elapsed_s > 0.0);
    }

    #[test]
    fn intervals_cover_elapsed_time() {
        let e = engine();
        let k = compute_kernel("k", 256, 0.25);
        let out = e
            .run(&Grid::single(k, 45), DispatchPolicy::default())
            .unwrap();
        let total: f64 = out.intervals.iter().map(|i| i.dur_s).sum();
        assert!((total - out.elapsed_s).abs() < 1e-9);
        // Intervals are contiguous.
        let mut t = 0.0;
        for iv in &out.intervals {
            assert!((iv.start_s - t).abs() < 1e-9);
            t += iv.dur_s;
        }
    }

    #[test]
    fn adjacent_identical_intervals_coalesce() {
        // 60 identical big blocks run as two back-to-back full waves with
        // identical rates: the profile collapses to a single interval.
        let e = engine();
        let k = compute_kernel("big", 1024, 0.5);
        let out = e
            .run(&Grid::single(k, 60), DispatchPolicy::default())
            .unwrap();
        assert_eq!(out.intervals.len(), 1, "intervals {:?}", out.intervals);
        assert!((out.intervals[0].dur_s - out.elapsed_s).abs() < 1e-9);
    }

    #[test]
    fn wave_cohorts_batch_events() {
        // 3840 identical blocks retire wave-by-wave: the whole launch
        // takes one event per wave (3840 / 120 resident = 32), not one
        // per block.
        let e = engine();
        let k = compute_kernel("k", 256, 0.01);
        let out = e
            .run(&Grid::single(k, 3840), DispatchPolicy::default())
            .unwrap();
        assert_eq!(out.trace.events().len(), 3840);
        assert!(
            out.intervals.len() <= 32,
            "expected coalesced waves, got {} intervals",
            out.intervals.len()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let e = engine();
        let g = ConsolidatedGrid::new()
            .add(Grid::single(compute_kernel("a", 128, 0.7), 17))
            .add(Grid::single(compute_kernel("b", 256, 0.3), 23))
            .build();
        let a = e.run(&g, DispatchPolicy::default()).unwrap();
        let b = e.run(&g, DispatchPolicy::default()).unwrap();
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.counters.comp_ops, b.counters.comp_ops);
    }

    #[test]
    fn arena_reuse_is_invisible_to_results() {
        // Back-to-back runs of *different* grid shapes on one thread
        // share the arena; each must be bitwise identical to the same
        // run on a virgin arena (fresh thread).
        let e = engine();
        let big = Grid::single(compute_kernel("big", 1024, 0.5), 60);
        let mixed = ConsolidatedGrid::new()
            .add(Grid::single(compute_kernel("a", 128, 0.7), 17))
            .add(Grid::single(compute_kernel("b", 256, 0.3), 23))
            .build();
        // Warm the arena with a run of a different shape, then measure.
        let _ = e.run(&big, DispatchPolicy::default()).unwrap();
        let warm = e.run(&mixed, DispatchPolicy::default()).unwrap();
        let e2 = e.clone();
        let m2 = mixed.clone();
        let cold = std::thread::spawn(move || e2.run(&m2, DispatchPolicy::default()).unwrap())
            .join()
            .unwrap();
        assert!(warm == cold, "arena reuse changed the outcome");
    }

    #[test]
    fn all_blocks_eventually_retire() {
        let e = engine();
        for policy in [
            DispatchPolicy::PaperRedistribution,
            DispatchPolicy::StaticRoundRobin,
            DispatchPolicy::GreedyGlobal,
        ] {
            let g = ConsolidatedGrid::new()
                .add(Grid::single(compute_kernel("a", 512, 0.1), 37))
                .add(Grid::single(compute_kernel("b", 128, 0.2), 53))
                .build();
            let out = e.run(&g, policy).unwrap();
            assert_eq!(out.trace.events().len(), 90, "policy {policy:?}");
        }
    }

    #[test]
    fn unschedulable_segment_rejected() {
        let e = engine();
        let k = KernelDesc::builder("huge")
            .threads_per_block(2048)
            .comp_insts(1.0)
            .build();
        assert!(matches!(
            e.run(&Grid::single(k, 1), DispatchPolicy::default()),
            Err(GpuError::Unschedulable(_))
        ));
    }

    /// One random kernel descriptor that is always schedulable.
    fn random_desc(rng: &mut SimRng, name: &str) -> KernelDesc {
        let tpb = 32 * rng.range_u32(1, 16); // 32..=512 threads
        let mut b = KernelDesc::builder(name)
            .threads_per_block(tpb)
            .regs_per_thread(rng.range_u32(8, 32))
            .comp_insts(rng.range_f64(10.0, 1e7));
        if rng.next_f64() < 0.7 {
            b = b.coalesced_mem(rng.range_f64(0.0, 2e4));
        }
        if rng.next_f64() < 0.3 {
            b = b.uncoalesced_mem(rng.range_f64(0.0, 2e3));
        }
        if rng.next_f64() < 0.3 {
            b = b.sync_insts(rng.range_f64(0.0, 50.0));
        }
        b.build()
    }

    #[test]
    fn differential_sweep_matches_reference() {
        // ≥200 random consolidated grids × all three dispatch policies:
        // the incremental cohort engine must be byte-identical to the
        // naive full-rescan reference.
        let e = engine();
        let mut rng = SimRng::seed_from_u64(0x5EED_CAFE);
        for case in 0..200 {
            let mut cg = ConsolidatedGrid::new();
            let segs = rng.range_usize(1, 6);
            for s in 0..segs {
                let desc = random_desc(&mut rng, &format!("k{case}_{s}"));
                cg = cg.add(Grid::single(desc, rng.range_u32(1, 96)));
            }
            let g = cg.build();
            for policy in [
                DispatchPolicy::PaperRedistribution,
                DispatchPolicy::StaticRoundRobin,
                DispatchPolicy::GreedyGlobal,
            ] {
                let opt = e.run(&g, policy).unwrap();
                let reference = e.run_reference(&g, policy).unwrap();
                assert!(
                    opt == reference,
                    "case {case} policy {policy:?}: optimized != reference\n\
                     elapsed {} vs {}",
                    opt.elapsed_s,
                    reference.elapsed_s
                );
            }
        }
    }

    /// A consolidated storm: `segments` kernels of mixed compute/memory
    /// intensity, block sizes and block counts — the same construction
    /// the benchmark's `engine_storm` grids use. Here it pins
    /// the differential contract at fleet scale: ~30k blocks across a
    /// thousand segments keep hundreds of cohorts live with the DRAM
    /// rescale moving on nearly every event.
    fn storm_grid(segments: u32) -> Grid {
        let cfg = GpuConfig::tesla_c1060();
        let mut storm = ConsolidatedGrid::new();
        for i in 0..segments {
            let tpb = 64 << (i % 3); // 64 / 128 / 256 threads
            let warps = f64::from(tpb / 32);
            let secs = 0.002 + 0.000131 * f64::from(i);
            let mut b = KernelDesc::builder("storm")
                .threads_per_block(tpb)
                .comp_insts(secs * cfg.clock_hz / (warps * cfg.warp_issue_cycles()));
            if i % 2 == 0 {
                b = b.coalesced_mem(2_000.0 + 500.0 * f64::from(i % 7));
            }
            if i % 4 == 3 {
                b = b.uncoalesced_mem(100.0);
            }
            storm = storm.add(Grid::single(b.build(), 17 + (i * 7) % 23));
        }
        storm.build()
    }

    #[test]
    fn differential_sweep_covers_storm_shapes() {
        // The storm1024 grid shape (and two smaller storms) under every
        // dispatch policy: optimized vs reference, byte for byte.
        let e = engine();
        for segments in [64, 256, 1024] {
            let g = storm_grid(segments);
            for policy in [
                DispatchPolicy::PaperRedistribution,
                DispatchPolicy::StaticRoundRobin,
                DispatchPolicy::GreedyGlobal,
            ] {
                let opt = e.run(&g, policy).unwrap();
                let reference = e.run_reference(&g, policy).unwrap();
                assert!(
                    opt == reference,
                    "storm{segments} policy {policy:?}: optimized != reference\n\
                     elapsed {} vs {}",
                    opt.elapsed_s,
                    reference.elapsed_s
                );
            }
        }
    }
}
