//! Static reconstruction of the GPU block dispatcher (Section V).
//!
//! "To identify the critical SMs, we need to know how the GPU schedules
//! thread blocks to SMs... We can determine critical SMs based on
//! analyzing execution time of a workload and thread block distribution."
//!
//! The analysis replays the dispatcher's logic without running anything:
//! round-robin waves under occupancy limits place the initial blocks;
//! whatever does not fit stays *untouched*; the untouched pool is then
//! redistributed round-robin to the SMs that finish their initial
//! allocation first (estimated from solo block times with the
//! interleaving-aware per-SM formula). The result is a two-phase per-SM
//! block assignment from which the performance model reads off the
//! critical SMs.
//!
//! Members are grouped into *cost classes*: a run of consecutive members
//! whose descriptors are bit-equal (the name is a label only). Every
//! member of a class has the same solo block cost, so each class's cost
//! is derived once, and two SMs holding the same sequence of (class,
//! phase) finish at the same time.

use ewc_gpu::occupancy::{Occupancy, SmResources};
use ewc_gpu::{BlockCost, GpuConfig, KernelDesc};

use crate::plan::{ConsolidationPlan, KernelSpec};

/// A block placed on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedBlock {
    /// Index into the plan's members.
    pub member: usize,
    /// The member's cost class (index into [`Placement::costs`]).
    pub class: usize,
    /// 0 = initial wave placement, 1 = redistributed after first idle.
    pub phase: u8,
    /// The SM the block landed on.
    sm: u32,
}

/// Whether two SMs hold the same sequence of (cost class, phase) — all
/// an SM's finish time depends on.
pub(crate) fn same_blocks(a: &[PlacedBlock], b: &[PlacedBlock]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.class, x.phase) == (y.class, y.phase))
}

/// The static placement of a plan.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Every placed block, grouped by SM (SM 0's first); within an SM in
    /// placement order, so its phase-0 blocks precede its phase-1 blocks.
    blocks: Vec<PlacedBlock>,
    /// SM `sm` holds `blocks[sm_start[sm]..sm_start[sm + 1]]`.
    sm_start: Vec<usize>,
    /// Solo block cost per cost class, at the clock the plan was placed.
    pub costs: Vec<BlockCost>,
    /// Each member's cost class, aligned with the plan.
    pub(crate) class_of: Vec<usize>,
    /// Whether a redistribution phase occurred.
    pub redistributed: bool,
    /// Whether every member fits an empty SM ([`Occupancy::of`]). An
    /// unschedulable member's blocks are placed as the dispatcher's
    /// replay leaves them, but no energy prediction is made from them.
    pub(crate) schedulable: bool,
    /// The clock the costs were derived at, Hz.
    pub(crate) clock_hz: f64,
}

/// Whether two descriptors cost the same: every field the models read
/// has the same bits (the name is a label only).
pub(crate) fn same_cost(a: &KernelDesc, b: &KernelDesc) -> bool {
    let key = |d: &KernelDesc| {
        let KernelDesc {
            name: _,
            threads_per_block,
            regs_per_thread,
            shared_mem_per_block,
            comp_insts,
            coalesced_mem,
            uncoalesced_mem,
            sync_insts,
        } = d;
        (
            [*threads_per_block, *regs_per_thread, *shared_mem_per_block],
            [comp_insts, coalesced_mem, uncoalesced_mem, sync_insts].map(|f| f.to_bits()),
        )
    };
    key(a) == key(b)
}

/// Whether two members get the same solo prediction: the same cost and
/// the same block count.
pub(crate) fn same_work(a: &KernelSpec, b: &KernelSpec) -> bool {
    a.blocks == b.blocks && same_cost(&a.desc, &b.desc)
}

/// Each cost class's solo block cost on `cfg`, in class order, given the
/// members and their classes.
pub(crate) fn class_costs(
    members: &[KernelSpec],
    class_of: &[usize],
    cfg: &GpuConfig,
) -> Vec<BlockCost> {
    let classes = class_of.last().map_or(0, |&c| c + 1);
    let mut costs = Vec::with_capacity(classes);
    for (m, &class) in members.iter().zip(class_of) {
        if class == costs.len() {
            costs.push(BlockCost::derive(&m.desc, cfg));
        }
    }
    costs
}

impl Placement {
    /// Per-SM block lists, SM 0 first.
    pub fn per_sm(&self) -> impl Iterator<Item = &[PlacedBlock]> {
        self.sm_start.windows(2).map(|w| &self.blocks[w[0]..w[1]])
    }

    /// SMs with at least one block.
    pub fn sms_used(&self) -> usize {
        self.per_sm().filter(|b| !b.is_empty()).count()
    }

    /// Largest number of blocks any SM holds.
    pub fn max_blocks_per_sm(&self) -> usize {
        self.per_sm().map(<[PlacedBlock]>::len).max().unwrap_or(0)
    }

    /// The paper's *type 1* consolidations: at most one block per SM.
    pub fn is_type1(&self) -> bool {
        self.max_blocks_per_sm() <= 1
    }
}

/// The global block list in template order, consumed from the front: a
/// (member, blocks left) cursor over the members.
struct Pool<'a> {
    members: &'a [KernelSpec],
    member: usize,
    left: u32,
}

impl<'a> Pool<'a> {
    fn new(members: &'a [KernelSpec]) -> Self {
        let mut pool = Pool {
            members,
            member: 0,
            left: members.first().map_or(0, |m| m.blocks),
        };
        pool.skip_empty();
        pool
    }

    /// Step past members with no blocks left.
    fn skip_empty(&mut self) {
        while self.left == 0 {
            self.member += 1;
            match self.members.get(self.member) {
                Some(m) => self.left = m.blocks,
                None => return,
            }
        }
    }

    /// The member of the next block, if any is left.
    fn peek(&self) -> Option<usize> {
        (self.left > 0).then_some(self.member)
    }
}

impl Iterator for Pool<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let member = self.peek()?;
        self.left -= 1;
        self.skip_empty();
        Some(member)
    }
}

/// Statically place a plan on the device.
pub fn analyze(plan: &ConsolidationPlan, cfg: &GpuConfig) -> Placement {
    place(&plan.members, cfg)
}

/// The placements of the serial alternative: each member alone on the
/// device, one placement per run of consecutive members with the same
/// work (cost and block count), in plan order.
pub fn analyze_serial(plan: &ConsolidationPlan, cfg: &GpuConfig) -> Vec<Placement> {
    let mut runs = Vec::new();
    for (i, m) in plan.members.iter().enumerate() {
        if i == 0 || !same_work(&plan.members[i - 1], m) {
            runs.push(place(std::slice::from_ref(m), cfg));
        }
    }
    runs
}

/// [`analyze`] over a member list.
pub(crate) fn place(members: &[KernelSpec], cfg: &GpuConfig) -> Placement {
    let n_sms = cfg.num_sms as usize;
    let mut class_of: Vec<usize> = Vec::with_capacity(members.len());
    let mut schedulable = true;
    for (i, m) in members.iter().enumerate() {
        let same = i > 0 && same_cost(&members[i - 1].desc, &m.desc);
        if !same {
            schedulable &= Occupancy::of(&m.desc, cfg).is_ok();
        }
        class_of.push(class_of.last().map_or(0, |&c| c + usize::from(!same)));
    }
    let costs = class_costs(members, &class_of, cfg);

    let mut pool = Pool::new(members);
    let total: usize = members.iter().map(|m| m.blocks as usize).sum();
    let block = |member: usize, phase: u8, sm: usize| PlacedBlock {
        member,
        class: class_of[member],
        phase,
        sm: sm as u32,
    };

    // Blocks in dispatch order, each with the SM it landed on.
    let mut placed: Vec<PlacedBlock> = Vec::with_capacity(total);
    let mut res: Vec<SmResources> = (0..n_sms).map(|_| SmResources::new(cfg)).collect();

    // Round-robin waves: each pass admits at most one block per SM.
    loop {
        let mut progress = false;
        for (sm, sm_res) in res.iter_mut().enumerate() {
            let Some(mi) = pool.peek() else { break };
            if sm_res.admit(&members[mi].desc) {
                placed.push(block(mi, 0, sm));
                pool.next();
                progress = true;
            }
        }
        if !progress || pool.peek().is_none() {
            break;
        }
    }

    let mut redistributed = false;
    if pool.peek().is_some() {
        // Phase-1 finish estimate per busy SM: `max(Σ dᵢ·tᵢ, max tᵢ)` of
        // its blocks, folded in dispatch order (which is each SM's own
        // placement order).
        let mut issue = vec![0.0_f64; n_sms];
        let mut longest = vec![0.0_f64; n_sms];
        for b in &placed {
            let (c, sm) = (&costs[b.class], b.sm as usize);
            issue[sm] += c.issue_demand * c.t_solo_s;
            longest[sm] = longest[sm].max(c.t_solo_s);
        }
        let finish: Vec<f64> = issue.iter().zip(&longest).map(|(i, l)| i.max(*l)).collect();
        let min_busy = finish
            .iter()
            .filter(|&&t| t > 0.0)
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let idle: Vec<usize> = (0..n_sms)
            .filter(|&sm| finish[sm] > 0.0 && finish[sm] <= min_busy * (1.0 + 1e-9))
            .collect();
        if !idle.is_empty() {
            for (next, mi) in pool.enumerate() {
                placed.push(block(mi, 1, idle[next % idle.len()]));
            }
            redistributed = true;
        }
    }

    let mut sm_start = vec![0usize; n_sms + 1];
    for b in &placed {
        sm_start[b.sm as usize + 1] += 1;
    }
    for sm in 0..n_sms {
        sm_start[sm + 1] += sm_start[sm];
    }
    // One wave and no redistribution leave the dispatch order in SM
    // order already; otherwise a stable counting sort by SM.
    let blocks = if placed.windows(2).all(|w| w[0].sm <= w[1].sm) {
        placed
    } else {
        let mut cursor = sm_start.clone();
        let mut blocks = placed.clone();
        for b in placed {
            let slot = &mut cursor[b.sm as usize];
            blocks[*slot] = b;
            *slot += 1;
        }
        blocks
    };

    Placement {
        blocks,
        sm_start,
        costs,
        class_of,
        redistributed,
        schedulable,
        clock_hz: cfg.clock_hz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelSpec;
    use ewc_gpu::KernelDesc;

    fn cfg() -> GpuConfig {
        GpuConfig::tesla_c1060()
    }

    fn compute(name: &str, tpb: u32, regs: u32, secs: f64) -> KernelDesc {
        let c = cfg();
        let warps = f64::from(tpb.div_ceil(32));
        KernelDesc::builder(name)
            .threads_per_block(tpb)
            .regs_per_thread(regs)
            .comp_insts(secs * c.clock_hz / (warps * c.warp_issue_cycles()))
            .build()
    }

    #[test]
    fn single_wave_is_type1() {
        let plan = ConsolidationPlan::new().with(KernelSpec::new(compute("k", 256, 16, 1.0), 27));
        let p = analyze(&plan, &cfg());
        assert!(p.is_type1());
        assert_eq!(p.sms_used(), 27);
        assert!(!p.redistributed);
    }

    #[test]
    fn scenario1_shape_redistributes_onto_short_kernel_sms() {
        // 15 short register-heavy blocks + 45 long occupancy-1 blocks:
        // SMs 0–14 end up with 1 short + 2 long (the critical SMs).
        let short = compute("enc", 256, 40, 19.5);
        let long = compute("mc", 128, 68, 31.2);
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(short, 15))
            .with(KernelSpec::new(long, 45));
        let p = analyze(&plan, &cfg());
        assert!(p.redistributed);
        assert!(!p.is_type1());
        for (sm, blocks) in p.per_sm().enumerate() {
            let members: Vec<usize> = blocks.iter().map(|b| b.member).collect();
            if sm < 15 {
                assert_eq!(members, vec![0, 1, 1], "SM{sm} should hold 1 enc + 2 mc");
                assert_eq!(blocks[1].phase, 1);
            } else {
                assert_eq!(members, vec![1], "SM{sm} should hold a single mc block");
            }
        }
    }

    #[test]
    fn scenario2_shape_coresides_search_and_bs() {
        let search = {
            let mut d = compute("search", 256, 16, 10.0);
            // Make it latency-bound: little issue demand.
            d.comp_insts = 0.0;
            d.uncoalesced_mem = 4.0e6;
            d
        };
        let bs = compute("bs", 256, 28, 13.2);
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(search, 15))
            .with(KernelSpec::new(bs, 45));
        let p = analyze(&plan, &cfg());
        // 60 blocks fill exactly two waves: SMs 0–14 hold 1 search + 1
        // BS (the paper's critical-SM placement), SMs 15–29 hold 2 BS.
        // Nothing is left untouched, so no redistribution occurs.
        for (sm, blocks) in p.per_sm().enumerate() {
            let members: Vec<usize> = blocks.iter().map(|b| b.member).collect();
            if sm < 15 {
                assert_eq!(members, vec![0, 1], "SM{sm} should hold search + BS");
            } else {
                assert_eq!(members, vec![1, 1], "SM{sm} should hold 2 BS");
            }
        }
        assert!(!p.redistributed);
    }

    #[test]
    fn empty_plan_places_nothing() {
        let p = analyze(&ConsolidationPlan::new(), &cfg());
        assert_eq!(p.sms_used(), 0);
        assert!(p.is_type1());
        // Members with no blocks hold no SM and do not stop the cursor.
        let k = compute("k", 256, 16, 1.0);
        let plan = ConsolidationPlan::new()
            .with(KernelSpec::new(k.clone(), 0))
            .with(KernelSpec::new(k.clone(), 2))
            .with(KernelSpec::new(k.clone(), 0))
            .with(KernelSpec::new(k, 1));
        let p = analyze(&plan, &cfg());
        let members: Vec<usize> = p.per_sm().flatten().map(|b| b.member).collect();
        assert_eq!(members, vec![1, 1, 3]);
        assert_eq!(
            p.class_of,
            vec![0, 0, 0, 0],
            "one descriptor, one cost class"
        );
    }
}
