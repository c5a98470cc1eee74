//! Kernel descriptors and launch configuration.
//!
//! A kernel is described by two orthogonal parts:
//!
//! * a [`KernelDesc`] *cost descriptor*: the per-thread dynamic
//!   instruction mix (compute instructions, coalesced and uncoalesced
//!   global-memory accesses, synchronisations) plus per-block resource
//!   requirements. This is what the paper's backend extracts from PTX
//!   analysis, and it drives both the timing simulation and the
//!   prediction models.
//! * an optional *functional body* ([`BlockFn`]): a host closure executed
//!   once per thread block against the device's global memory, so the
//!   simulated run produces real output that tests can compare against
//!   serial execution.

use std::fmt;
use std::sync::Arc;

use crate::device::DevicePtr;
use crate::memory::GlobalMemory;

/// A value passed to a kernel at launch, mirroring `cudaSetupArgument`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// A device pointer.
    Ptr(DevicePtr),
    /// A 32-bit integer scalar.
    U32(u32),
    /// A 64-bit integer scalar.
    U64(u64),
    /// A 32-bit float scalar.
    F32(f32),
    /// A 64-bit float scalar.
    F64(f64),
}

impl KernelArg {
    /// Interpret the argument as a device pointer.
    pub fn as_ptr(&self) -> Option<DevicePtr> {
        match self {
            KernelArg::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// Interpret the argument as a u32 scalar.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            KernelArg::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret the argument as an f32 scalar.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            KernelArg::F32(v) => Some(*v),
            _ => None,
        }
    }

    /// Size in bytes as it would cross the launch ABI; used to account
    /// frontend→backend argument-transfer cost.
    pub fn abi_bytes(&self) -> u64 {
        match self {
            KernelArg::Ptr(_) | KernelArg::U64(_) | KernelArg::F64(_) => 8,
            KernelArg::U32(_) | KernelArg::F32(_) => 4,
        }
    }
}

/// Context handed to a functional block body.
pub struct BlockCtx<'a> {
    /// Index of this block within its own kernel (not the consolidated
    /// grid) — templates re-base indices exactly like the paper's
    /// "updating the indexes for data accesses".
    pub block_idx: u32,
    /// Number of blocks in this kernel.
    pub num_blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Launch arguments.
    pub args: &'a [KernelArg],
}

/// Functional body of a kernel: runs once per thread block.
pub type BlockFn = Arc<dyn Fn(&BlockCtx<'_>, &mut GlobalMemory) + Send + Sync>;

/// Per-thread dynamic cost and per-block resource descriptor of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Human-readable kernel name.
    pub name: Arc<str>,
    /// Threads per block (block size).
    pub threads_per_block: u32,
    /// Registers used per thread.
    pub regs_per_thread: u32,
    /// Shared memory per block, in bytes.
    pub shared_mem_per_block: u32,
    /// Dynamic compute (non-memory) instructions per thread.
    pub comp_insts: f64,
    /// Dynamic coalesced global-memory accesses per thread.
    pub coalesced_mem: f64,
    /// Dynamic uncoalesced global-memory accesses per thread.
    pub uncoalesced_mem: f64,
    /// Dynamic `__syncthreads()` executions per thread.
    pub sync_insts: f64,
}

impl KernelDesc {
    /// Start building a descriptor with the given name.
    pub fn builder(name: &str) -> KernelDescBuilder {
        KernelDescBuilder::new(name)
    }

    /// Warps per block (rounded up).
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Total dynamic memory accesses per thread.
    pub fn mem_insts(&self) -> f64 {
        self.coalesced_mem + self.uncoalesced_mem
    }

    /// Total dynamic instructions per thread (compute + memory + sync).
    pub fn total_insts(&self) -> f64 {
        self.comp_insts + self.mem_insts() + self.sync_insts
    }
}

impl fmt::Display for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(tpb={}, comp={:.0}, coal={:.0}, uncoal={:.0})",
            self.name,
            self.threads_per_block,
            self.comp_insts,
            self.coalesced_mem,
            self.uncoalesced_mem
        )
    }
}

/// Builder for [`KernelDesc`] with sensible defaults.
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    desc: KernelDesc,
}

impl KernelDescBuilder {
    fn new(name: &str) -> Self {
        KernelDescBuilder {
            desc: KernelDesc {
                name: Arc::from(name),
                threads_per_block: 256,
                regs_per_thread: 16,
                shared_mem_per_block: 0,
                comp_insts: 0.0,
                coalesced_mem: 0.0,
                uncoalesced_mem: 0.0,
                sync_insts: 0.0,
            },
        }
    }

    /// Set the block size in threads.
    pub fn threads_per_block(mut self, v: u32) -> Self {
        self.desc.threads_per_block = v;
        self
    }

    /// Set registers per thread.
    pub fn regs_per_thread(mut self, v: u32) -> Self {
        self.desc.regs_per_thread = v;
        self
    }

    /// Set shared memory per block in bytes.
    pub fn shared_mem_per_block(mut self, v: u32) -> Self {
        self.desc.shared_mem_per_block = v;
        self
    }

    /// Set dynamic compute instructions per thread.
    pub fn comp_insts(mut self, v: f64) -> Self {
        self.desc.comp_insts = v;
        self
    }

    /// Set dynamic coalesced memory accesses per thread.
    pub fn coalesced_mem(mut self, v: f64) -> Self {
        self.desc.coalesced_mem = v;
        self
    }

    /// Set dynamic uncoalesced memory accesses per thread.
    pub fn uncoalesced_mem(mut self, v: f64) -> Self {
        self.desc.uncoalesced_mem = v;
        self
    }

    /// Set dynamic synchronisation instructions per thread.
    pub fn sync_insts(mut self, v: f64) -> Self {
        self.desc.sync_insts = v;
        self
    }

    /// Finish the descriptor.
    ///
    /// # Panics
    /// Panics if the block size is zero or any dynamic count is negative —
    /// descriptors are static program properties, so this is a programmer
    /// error, not a runtime condition.
    pub fn build(self) -> KernelDesc {
        let d = &self.desc;
        assert!(d.threads_per_block > 0, "block size must be > 0");
        assert!(
            d.comp_insts >= 0.0
                && d.coalesced_mem >= 0.0
                && d.uncoalesced_mem >= 0.0
                && d.sync_insts >= 0.0,
            "dynamic instruction counts must be non-negative"
        );
        self.desc
    }
}

/// Everything needed to launch work on the device: a grid (possibly
/// consolidated from several kernels) plus launch-time options.
#[derive(Clone)]
pub struct LaunchConfig {
    /// The grid to execute.
    pub grid: crate::grid::Grid,
    /// Dispatch policy override; `None` uses the device default
    /// (static round-robin, as observed on the C1060).
    pub policy: Option<crate::scheduler::DispatchPolicy>,
}

impl LaunchConfig {
    /// Launch a single kernel with `blocks` thread blocks and no
    /// functional body or arguments.
    pub fn single(desc: KernelDesc, blocks: u32) -> Self {
        LaunchConfig {
            grid: crate::grid::Grid::single(desc, blocks),
            policy: None,
        }
    }

    /// Launch an explicit grid.
    pub fn from_grid(grid: crate::grid::Grid) -> Self {
        LaunchConfig { grid, policy: None }
    }

    /// Override the dispatch policy for this launch.
    pub fn with_policy(mut self, policy: crate::scheduler::DispatchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> KernelDesc {
        KernelDesc::builder("k")
            .threads_per_block(128)
            .comp_insts(100.0)
            .coalesced_mem(10.0)
            .uncoalesced_mem(2.0)
            .sync_insts(1.0)
            .build()
    }

    #[test]
    fn builder_defaults_and_setters() {
        let d = desc();
        assert_eq!(&*d.name, "k");
        assert_eq!(d.threads_per_block, 128);
        assert_eq!(d.regs_per_thread, 16);
        assert_eq!(d.mem_insts(), 12.0);
        assert_eq!(d.total_insts(), 113.0);
    }

    #[test]
    fn warps_round_up() {
        let d = KernelDesc::builder("w").threads_per_block(33).build();
        assert_eq!(d.warps_per_block(32), 2);
        let d = KernelDesc::builder("w").threads_per_block(32).build();
        assert_eq!(d.warps_per_block(32), 1);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = KernelDesc::builder("bad").threads_per_block(0).build();
    }

    #[test]
    fn arg_abi_bytes() {
        assert_eq!(KernelArg::U32(1).abi_bytes(), 4);
        assert_eq!(KernelArg::F64(1.0).abi_bytes(), 8);
        assert_eq!(KernelArg::Ptr(DevicePtr::null()).abi_bytes(), 8);
    }

    #[test]
    fn arg_accessors() {
        assert_eq!(KernelArg::U32(7).as_u32(), Some(7));
        assert_eq!(KernelArg::U32(7).as_f32(), None);
        assert_eq!(KernelArg::F32(2.5).as_f32(), Some(2.5));
    }
}
