//! Sorting workload (the paper's "Sorting" \[27\]).
//!
//! A bitonic sorting network — the classic GPU sorting algorithm of the
//! era — runs functionally inside the kernel: each thread block
//! bitonic-sorts its chunk, and the final block merges the sorted chunks
//! (standing in for the merge kernel a real multi-launch sort would
//! issue). The cost descriptor is latency-bound with a *small issue
//! demand* (~0.45): two sorting blocks co-resident on an SM interleave
//! their warps without slowing each other down, which is exactly why
//! Figure 8's manual-consolidation execution time stays flat as instances
//! are packed.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::latency_bound;
use crate::registry::{DeviceBuffers, Workload};

/// Bitonic-sort a slice in ascending order. Non-power-of-two lengths are
/// padded with `u32::MAX` sentinels (exactly what the CUDA kernels of the
/// era did), run through the classic iterative network, and truncated.
pub fn bitonic_sort(data: &mut [u32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut buf = Vec::with_capacity(n.next_power_of_two());
    buf.extend_from_slice(data);
    bitonic_sort_padded(&mut buf);
    data.copy_from_slice(&buf[..n]);
}

/// Pad `buf` to the next power of two with `u32::MAX` sentinels and run
/// the network over it: the first `n` elements are the sorted input.
/// The kernel body decodes its chunk straight into `buf`, so the
/// network's working copy is the only one.
///
/// A stage with distance `j` pairs `i` with `i + j` for every `i` with
/// `i & j == 0`: the lower and upper halves of each `2j` block. All pairs
/// of one block share a direction (bit `k` of the block's offset), so
/// each block is one branch-free min/max sweep over two slices.
fn bitonic_sort_padded(buf: &mut Vec<u32>) {
    let padded_len = buf.len().next_power_of_two();
    buf.resize(padded_len, u32::MAX);

    let mut k = 2;
    while k <= padded_len {
        let mut j = k / 2;
        while j > 0 {
            for (b, block) in buf.chunks_exact_mut(2 * j).enumerate() {
                let (lo, hi) = block.split_at_mut(j);
                if (b * 2 * j) & k == 0 {
                    compare_exchange(lo, hi);
                } else {
                    compare_exchange(hi, lo);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Leave the smaller of each pair in `small` and the larger in `large`.
#[inline]
fn compare_exchange(small: &mut [u32], large: &mut [u32]) {
    for (a, b) in small.iter_mut().zip(large) {
        let (x, y) = (*a, *b);
        *a = x.min(y);
        *b = x.max(y);
    }
}

/// Merge `chunks` (each individually sorted) into one sorted vector:
/// neighbouring runs are merged pairwise, doubling the run width each
/// pass, between two buffers.
pub fn merge_sorted_chunks(data: &[u32], chunk: usize) -> Vec<u32> {
    merge_runs(data.to_vec(), chunk)
}

/// [`merge_sorted_chunks`] on a buffer it may take over: the first pass
/// reads from it, so the merge allocates one more buffer, not two.
fn merge_runs(mut src: Vec<u32>, chunk: usize) -> Vec<u32> {
    assert!(chunk > 0 || src.is_empty(), "chunk width must be positive");
    let mut dst = vec![0; src.len()];
    let mut width = chunk;
    while width < src.len() {
        for (pair, out) in src.chunks(2 * width).zip(dst.chunks_mut(2 * width)) {
            let (a, b) = pair.split_at(width.min(pair.len()));
            merge_into(a, b, out);
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    src
}

/// Merge two sorted runs into `out` (`a.len() + b.len()` long). Each
/// step takes the smaller head by a select, not a branch: on random
/// data the branch would mispredict every other element.
fn merge_into(a: &[u32], b: &[u32], out: &mut [u32]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out[i + j] = if take_a { x } else { y };
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    let tail = if i < a.len() { &a[i..] } else { &b[j..] };
    out[i + j..].copy_from_slice(tail);
}

/// A sorting instance.
#[derive(Debug, Clone)]
pub struct SortWorkload {
    elems: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl SortWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        elems: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        SortWorkload {
            elems,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    /// Table 1 / Figure 8 instance: 6 K elements, 6 blocks of 256
    /// threads, GPU 2.0 s vs CPU 2.9 s (speedup 1.45). Issue demand 0.45
    /// so co-resident instances interleave for free.
    pub fn fig8(cfg: &GpuConfig) -> Self {
        let base = KernelDesc::builder("bitonic_sort")
            .threads_per_block(256)
            .regs_per_thread(14)
            .shared_mem_per_block(2048)
            .sync_insts(24.0)
            .build();
        let desc = latency_bound(base, 2.0, 0.45, cfg);
        SortWorkload::new(6 * 1024, desc, 6, 5.8, 2, 1 << 20)
    }

    /// Elements sorted per instance.
    pub fn elems(&self) -> usize {
        self.elems
    }
}

impl Workload for SortWorkload {
    fn name(&self) -> &'static str {
        "sorting"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "sorting",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        (self.elems * 4) as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.elems;
        Arc::new(move |ctx, mem| {
            let input = ctx.args[0].as_ptr().expect("arg0: input ptr");
            let output = ctx.args[1].as_ptr().expect("arg1: output ptr");
            let nb = ctx.num_blocks as usize;
            let chunk = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * chunk;
            let hi = (lo + chunk).min(n);
            if lo < hi {
                // Phase 1: sort this block's chunk in place (input buffer
                // doubles as scratch, as the real kernel's shared-memory
                // staging would).
                let mut vals = Vec::with_capacity((hi - lo).next_power_of_two());
                vals.extend(
                    mem.iter_u32s(input, lo as u64, hi - lo)
                        .expect("arg0: this block's chunk in bounds"),
                );
                bitonic_sort_padded(&mut vals);
                mem.write_u32s(input, lo as u64, &vals[..hi - lo])
                    .expect("arg0: this block's chunk in bounds");
            }
            // Phase 2 (merge kernel): the last block merges all chunks.
            // Our device executes bodies in block order, so every chunk
            // is sorted by the time this runs — standing in for the
            // separate merge launch of a real implementation.
            if ctx.block_idx as usize == nb - 1 {
                let all = mem
                    .read_u32s(input, 0, n)
                    .expect("arg0: all elements in bounds");
                let merged = merge_runs(all, chunk);
                mem.write_u32s(output, 0, &merged)
                    .expect("arg1: all elements in bounds");
            }
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let bytes = (self.elems * 4) as u64;
        let input = gpu.alloc_bytes(bytes)?;
        let output = gpu.alloc_bytes(bytes)?;
        let data = crate::data::u32s(seed, self.elems);
        let mut raw = Vec::with_capacity(self.elems * 4);
        for v in &data {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        gpu.upload(input, 0, &raw)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(self.elems as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: bytes,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        let mut data = crate::data::u32s(seed, self.elems);
        data.sort_unstable();
        let mut out = Vec::with_capacity(data.len() * 4);
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_standalone;
    use ewc_gpu::BlockCost;
    use ewc_gpu::GpuDevice;

    #[test]
    fn bitonic_sorts_arbitrary_lengths() {
        for n in [0usize, 1, 2, 3, 7, 8, 100, 1000, 1023, 1024] {
            let mut v = crate::data::u32s(n as u64, n);
            let mut expect = v.clone();
            expect.sort_unstable();
            bitonic_sort(&mut v);
            assert_eq!(v, expect, "length {n}");
        }
    }

    #[test]
    fn bitonic_handles_duplicates_and_extremes() {
        let mut v = vec![5, 5, 0, u32::MAX, 5, 0, u32::MAX, 1];
        bitonic_sort(&mut v);
        assert_eq!(v, vec![0, 0, 1, 5, 5, 5, u32::MAX, u32::MAX]);
    }

    /// Random values with a quarter at `u32::MAX` (the padding sentinel)
    /// and a quarter folded into 16 values, so runs of duplicates occur.
    fn colliding_u32s(seed: u64, n: usize) -> Vec<u32> {
        crate::data::u32s(seed, n)
            .into_iter()
            .map(|v| match v % 4 {
                0 => u32::MAX,
                1 => v % 16,
                _ => v,
            })
            .collect()
    }

    #[test]
    fn bitonic_sweep_matches_sort_unstable() {
        for n in 0..=2049usize {
            let mut v = colliding_u32s(n as u64, n);
            let mut expect = v.clone();
            expect.sort_unstable();
            bitonic_sort(&mut v);
            assert_eq!(v, expect, "length {n}");
        }
    }

    #[test]
    fn merge_sweep_matches_sort_unstable() {
        // Every short length, then a stride up to 2049, then a length
        // past Figure 8's 6 K elements.
        let lengths =
            (0..=256usize)
                .chain((257..=2049).step_by(37))
                .chain([2048, 2049, 6 * 1024 + 5]);
        for n in lengths {
            for chunks in 1..=16usize {
                // The kernel's split (the last chunk ragged or empty) and
                // one that leaves a short tail chunk.
                for chunk in [n.div_ceil(chunks).max(1), (n / chunks).max(1)] {
                    let mut data = colliding_u32s((n * 17 + chunks) as u64, n);
                    for c in data.chunks_mut(chunk) {
                        c.sort_unstable();
                    }
                    let mut expect = data.clone();
                    expect.sort_unstable();
                    let merged = merge_sorted_chunks(&data, chunk);
                    assert_eq!(merged, expect, "length {n}, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn merge_combines_sorted_chunks() {
        let data = vec![1, 4, 9, 2, 3, 8, 0, 7, 7];
        let mut sorted = data.clone();
        for c in sorted.chunks_mut(3) {
            c.sort_unstable();
        }
        let merged = merge_sorted_chunks(&sorted, 3);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn merge_with_ragged_tail() {
        let mut data = crate::data::u32s(3, 10);
        for c in data.chunks_mut(4) {
            c.sort_unstable();
        }
        let merged = merge_sorted_chunks(&data, 4);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(merged, expect);
    }

    #[test]
    fn gpu_run_produces_sorted_output() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let w = SortWorkload::fig8(&cfg);
        let r = run_standalone(&w, &mut gpu, 11).unwrap();
        assert!(r.correct, "device sort must equal host sort");
    }

    #[test]
    fn fig8_calibration() {
        let cfg = GpuConfig::tesla_c1060();
        let w = SortWorkload::fig8(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 2.0).abs() / 2.0 < 1e-3, "time {}", c.t_solo_s);
        assert!(
            (c.issue_demand - 0.45).abs() < 0.03,
            "demand {}",
            c.issue_demand
        );
        // Two co-resident sort blocks must fit and not contend (Σd < 1).
        assert!(2.0 * c.issue_demand < 1.0);
        let occ = ewc_gpu::Occupancy::of(&w.desc(), &cfg).unwrap();
        assert!(occ.blocks_per_sm >= 2, "occupancy {occ:?}");
        // Table 1: GPU speedup over CPU ≈ 1.45.
        let speedup = w.cpu_task().solo_time_s(8) / c.t_solo_s;
        assert!((speedup - 1.45).abs() < 0.05, "speedup {speedup}");
    }
}
