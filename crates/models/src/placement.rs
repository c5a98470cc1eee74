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

use ewc_gpu::occupancy::SmResources;
use ewc_gpu::{BlockCost, GpuConfig};

use crate::plan::ConsolidationPlan;

/// A block placed on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedBlock {
    /// Index into the plan's members.
    pub member: usize,
    /// 0 = initial wave placement, 1 = redistributed after first idle.
    pub phase: u8,
}

/// The static placement of a plan.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Every placed block, grouped by SM (SM 0's first); within an SM in
    /// placement order, so its phase-0 blocks precede its phase-1 blocks.
    blocks: Vec<PlacedBlock>,
    /// SM `sm` holds `blocks[sm_start[sm]..sm_start[sm + 1]]`.
    sm_start: Vec<usize>,
    /// Per-member solo block costs, aligned with the plan.
    pub costs: Vec<BlockCost>,
    /// Whether a redistribution phase occurred.
    pub redistributed: bool,
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

/// Interleaving-aware elapsed-time estimate for a set of co-scheduled
/// blocks on one SM: `max(Σ dᵢ·tᵢ, max tᵢ)` — treat them "as one single
/// big workload" (Section V).
pub fn sm_phase_time<'a>(blocks: impl Iterator<Item = &'a BlockCost> + Clone) -> f64 {
    let issue: f64 = blocks.clone().map(|c| c.issue_demand * c.t_solo_s).sum();
    let longest = blocks.map(|c| c.t_solo_s).fold(0.0, f64::max);
    issue.max(longest)
}

/// Statically place a plan on the device.
pub fn analyze(plan: &ConsolidationPlan, cfg: &GpuConfig) -> Placement {
    let n_sms = cfg.num_sms as usize;
    let costs: Vec<BlockCost> = plan
        .members
        .iter()
        .map(|m| BlockCost::derive(&m.desc, cfg))
        .collect();

    // The global block list in template order. It is only ever consumed
    // from the front, so the lazy expansion stands in for a queue.
    let mut pool = plan
        .members
        .iter()
        .enumerate()
        .flat_map(|(mi, m)| std::iter::repeat_n(mi, m.blocks as usize))
        .peekable();
    let total: usize = plan.members.iter().map(|m| m.blocks as usize).sum();

    // Blocks in dispatch order, each with the SM it landed on.
    let mut placed: Vec<(usize, PlacedBlock)> = Vec::with_capacity(total);
    let mut res: Vec<SmResources> = (0..n_sms).map(|_| SmResources::new(cfg)).collect();

    // Round-robin waves: each pass admits at most one block per SM.
    loop {
        let mut progress = false;
        for (sm, sm_res) in res.iter_mut().enumerate() {
            let Some(&mi) = pool.peek() else { break };
            if sm_res.admit(&plan.members[mi].desc) {
                placed.push((
                    sm,
                    PlacedBlock {
                        member: mi,
                        phase: 0,
                    },
                ));
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
        // Phase-1 finish estimate per busy SM: `sm_phase_time` of its
        // blocks, folded in dispatch order (which is each SM's own
        // placement order).
        let mut issue = vec![0.0_f64; n_sms];
        let mut longest = vec![0.0_f64; n_sms];
        for &(sm, b) in &placed {
            let c = &costs[b.member];
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
                placed.push((
                    idle[next % idle.len()],
                    PlacedBlock {
                        member: mi,
                        phase: 1,
                    },
                ));
            }
            redistributed = true;
        }
    }

    // Stable counting sort of the dispatch-order list by SM.
    let mut sm_start = vec![0usize; n_sms + 1];
    for &(sm, _) in &placed {
        sm_start[sm + 1] += 1;
    }
    for sm in 0..n_sms {
        sm_start[sm + 1] += sm_start[sm];
    }
    let mut cursor = sm_start.clone();
    let mut blocks = vec![
        PlacedBlock {
            member: 0,
            phase: 0
        };
        placed.len()
    ];
    for (sm, b) in placed {
        blocks[cursor[sm]] = b;
        cursor[sm] += 1;
    }

    Placement {
        blocks,
        sm_start,
        costs,
        redistributed,
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
    fn phase_time_interleaves_below_saturation() {
        let c = cfg();
        let mem = {
            let mut d = KernelDesc::builder("m").threads_per_block(64).build();
            d.uncoalesced_mem = 1e5;
            BlockCost::derive(&d, &c)
        };
        let comp = BlockCost::derive(&compute("c", 64, 16, mem.t_solo_s * 0.4), &c);
        let t = sm_phase_time([&mem, &comp].into_iter());
        // Σd·t small; the long memory block dominates.
        assert!((t - mem.t_solo_s).abs() / mem.t_solo_s < 0.2);
        // Two compute blocks serialise.
        let t2 = sm_phase_time([&comp, &comp].into_iter());
        assert!((t2 - 2.0 * comp.t_solo_s).abs() < 1e-9);
    }

    #[test]
    fn empty_plan_places_nothing() {
        let p = analyze(&ConsolidationPlan::new(), &cfg());
        assert_eq!(p.sms_used(), 0);
        assert!(p.is_type1());
    }
}
