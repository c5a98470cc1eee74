//! Grids and consolidated grids.
//!
//! The consolidation framework merges kernels *at thread-block
//! granularity* (Section IV): a consolidated kernel executes the sum of
//! the member kernels' blocks, and an `if-else` over the block index
//! routes each block to its member kernel with re-based indices. Here a
//! [`Grid`] is an ordered list of [`GridSegment`]s, each contributing a
//! contiguous range of global block indices; a single-kernel launch is a
//! grid with one segment.
//!
//! Segment order matters: the device places global block *i* on SM
//! *i mod num_sms*, so the order in which a template concatenates member
//! kernels determines which SMs become critical (Section V's analysis).

use std::fmt;

use crate::kernel::{BlockCtx, BlockFn, KernelArg, KernelDesc};
use crate::memory::GlobalMemory;

/// One member kernel of a (possibly consolidated) grid.
#[derive(Clone)]
pub struct GridSegment {
    /// Cost descriptor of the member kernel.
    pub desc: KernelDesc,
    /// Number of thread blocks this member contributes.
    pub blocks: u32,
    /// Launch arguments for the member kernel.
    pub args: Vec<KernelArg>,
    /// Optional functional body.
    pub body: Option<BlockFn>,
    /// Caller-assigned tag (e.g. request id) for tracing results back to
    /// the submitting process.
    pub tag: u64,
}

impl GridSegment {
    /// Create a segment with no body, no args and tag 0.
    pub fn bare(desc: KernelDesc, blocks: u32) -> Self {
        GridSegment {
            desc,
            blocks,
            args: Vec::new(),
            body: None,
            tag: 0,
        }
    }

    /// Attach a functional body.
    pub fn with_body(mut self, body: BlockFn) -> Self {
        self.body = Some(body);
        self
    }

    /// Attach launch arguments.
    pub fn with_args(mut self, args: Vec<KernelArg>) -> Self {
        self.args = args;
        self
    }

    /// Attach a caller tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

impl fmt::Debug for GridSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridSegment")
            .field("desc", &self.desc.name)
            .field("blocks", &self.blocks)
            .field("args", &self.args.len())
            .field("body", &self.body.is_some())
            .field("tag", &self.tag)
            .finish()
    }
}

/// Identifies one thread block inside a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCoord {
    /// Global block index across the whole grid.
    pub global: u32,
    /// Which segment the block belongs to.
    pub segment: usize,
    /// Block index within its segment (re-based, as the template would
    /// compute it).
    pub within: u32,
}

/// An ordered collection of segments forming one launchable grid.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    segments: Vec<GridSegment>,
}

impl Grid {
    /// Empty grid (not launchable until a segment is added).
    pub fn new() -> Self {
        Grid {
            segments: Vec::new(),
        }
    }

    /// Grid with a single bare segment.
    pub fn single(desc: KernelDesc, blocks: u32) -> Self {
        let mut g = Grid::new();
        g.push(GridSegment::bare(desc, blocks));
        g
    }

    /// Append a segment; its blocks follow all previously added blocks in
    /// global index order.
    pub fn push(&mut self, seg: GridSegment) {
        self.segments.push(seg);
    }

    /// The segments in order.
    pub fn segments(&self) -> &[GridSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total number of thread blocks across all segments.
    pub fn total_blocks(&self) -> u32 {
        self.segments.iter().map(|s| s.blocks).sum()
    }

    /// Total number of threads across all segments.
    pub fn total_threads(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| u64::from(s.blocks) * u64::from(s.desc.threads_per_block))
            .sum()
    }

    /// Iterate over every block coordinate in global order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockCoord> + '_ {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(si, seg)| {
                (0..seg.blocks).map(move |w| BlockCoord {
                    global: 0,
                    segment: si,
                    within: w,
                })
            })
            .enumerate()
            .map(|(g, mut c)| {
                c.global = g as u32;
                c
            })
    }

    /// Resolve a global block index to its coordinate.
    pub fn locate(&self, global: u32) -> Option<BlockCoord> {
        let mut base = 0u32;
        for (si, seg) in self.segments.iter().enumerate() {
            if global < base + seg.blocks {
                return Some(BlockCoord {
                    global,
                    segment: si,
                    within: global - base,
                });
            }
            base += seg.blocks;
        }
        None
    }

    /// The functional pass: run every segment's body once per block, in
    /// global block order, against `mem`. Both a device launch and the
    /// backend's CPU lifeboat produce a grid's results through this one
    /// routine, so they cannot disagree on what a block sees.
    pub fn run_bodies(&self, mem: &mut GlobalMemory) {
        for seg in &self.segments {
            let Some(body) = &seg.body else { continue };
            for block_idx in 0..seg.blocks {
                let ctx = BlockCtx {
                    block_idx,
                    num_blocks: seg.blocks,
                    threads_per_block: seg.desc.threads_per_block,
                    args: &seg.args,
                };
                body(&ctx, mem);
            }
        }
    }

    /// Peak per-block resource requirements across segments; used for
    /// quick schedulability checks.
    pub fn max_shared_mem(&self) -> u32 {
        self.segments
            .iter()
            .map(|s| s.desc.shared_mem_per_block)
            .max()
            .unwrap_or(0)
    }
}

/// Builder that concatenates member grids into one consolidated grid,
/// mirroring a precompiled template instantiation.
#[derive(Debug, Default)]
pub struct ConsolidatedGrid {
    grid: Grid,
}

impl ConsolidatedGrid {
    /// Start an empty consolidation.
    pub fn new() -> Self {
        ConsolidatedGrid { grid: Grid::new() }
    }

    /// Append all segments of a member grid.
    #[allow(clippy::should_implement_trait)] // builder-style `add`, not ops::Add
    pub fn add(mut self, member: Grid) -> Self {
        for seg in member.segments {
            self.grid.push(seg);
        }
        self
    }

    /// Append `n` copies of a member grid (homogeneous consolidation).
    pub fn add_copies(mut self, member: &Grid, n: u32) -> Self {
        for _ in 0..n {
            for seg in member.segments.iter().cloned() {
                self.grid.push(seg);
            }
        }
        self
    }

    /// Finish, yielding the launchable grid.
    pub fn build(self) -> Grid {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str, tpb: u32) -> KernelDesc {
        KernelDesc::builder(name)
            .threads_per_block(tpb)
            .comp_insts(1.0)
            .build()
    }

    #[test]
    fn single_grid_counts() {
        let g = Grid::single(d("a", 128), 5);
        assert_eq!(g.total_blocks(), 5);
        assert_eq!(g.total_threads(), 640);
        assert_eq!(g.num_segments(), 1);
    }

    #[test]
    fn consolidation_concatenates_in_order() {
        let g = ConsolidatedGrid::new()
            .add(Grid::single(d("enc", 256), 15))
            .add(Grid::single(d("mc", 128), 45))
            .build();
        assert_eq!(g.total_blocks(), 60);
        // Block 0..14 → enc, 15..59 → mc, re-based indices.
        let c = g.locate(14).unwrap();
        assert_eq!((c.segment, c.within), (0, 14));
        let c = g.locate(15).unwrap();
        assert_eq!((c.segment, c.within), (1, 0));
        let c = g.locate(59).unwrap();
        assert_eq!((c.segment, c.within), (1, 44));
        assert!(g.locate(60).is_none());
    }

    #[test]
    fn blocks_iterator_matches_locate() {
        let g = ConsolidatedGrid::new()
            .add(Grid::single(d("a", 64), 3))
            .add(Grid::single(d("b", 64), 2))
            .build();
        let coords: Vec<_> = g.blocks().collect();
        assert_eq!(coords.len(), 5);
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(c.global, i as u32);
            assert_eq!(Some(*c), g.locate(i as u32));
        }
    }

    #[test]
    fn add_copies_replicates_homogeneous_instances() {
        let inst = Grid::single(d("enc", 256), 3);
        let g = ConsolidatedGrid::new().add_copies(&inst, 9).build();
        assert_eq!(g.total_blocks(), 27);
        assert_eq!(g.num_segments(), 9);
    }

    #[test]
    fn max_shared_mem_over_segments() {
        let mut a = d("a", 64);
        a.shared_mem_per_block = 1024;
        let mut b = d("b", 64);
        b.shared_mem_per_block = 4096;
        let g = ConsolidatedGrid::new()
            .add(Grid::single(a, 1))
            .add(Grid::single(b, 1))
            .build();
        assert_eq!(g.max_shared_mem(), 4096);
    }

    #[test]
    fn empty_grid_is_empty() {
        let g = Grid::new();
        assert_eq!(g.total_blocks(), 0);
        assert!(g.locate(0).is_none());
        assert_eq!(g.blocks().count(), 0);
    }
}
