//! Matrix-multiplication workload (the paper's Section I motivation for
//! *scientific* consolidation).
//!
//! "Some workloads (e.g., matrix computation) have scalability
//! limitation, where only a fraction of available streaming
//! multiprocessors are required to achieve the best performance. These
//! SMs may be released by applications and stay idle wasting energy."
//!
//! A tiled single-precision GEMM: each thread block computes one tile
//! row-band of `C = A × B`. The preset uses a matrix size whose best
//! launch occupies only 8 of the 30 SMs — consolidating several
//! instances fills the idle SMs at almost no cost, the scientific-
//! computing variant of the enterprise story.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::with_solo_time;
use crate::registry::{DeviceBuffers, Workload};

/// Reference GEMM: row-major `C = A × B`, square `n × n`.
pub fn matmul_ref(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    assert_eq!(a.len(), n * n, "A must be n*n");
    assert_eq!(b.len(), n * n, "B must be n*n");
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Multiply only the row band `[row_lo, row_hi)` (one thread block's
/// share), writing into `c`.
pub fn matmul_band(a: &[f32], b: &[f32], c: &mut [f32], n: usize, row_lo: usize, row_hi: usize) {
    for i in row_lo..row_hi.min(n) {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Columns of one row of C the kernel body accumulates on the stack.
const TILE_COLS: usize = 128;

/// A GEMM instance.
#[derive(Debug, Clone)]
pub struct MatmulWorkload {
    n: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl MatmulWorkload {
    /// Custom construction; prefer the preset.
    pub fn new(
        n: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        MatmulWorkload {
            n,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    /// The scalability-limited preset: 8 blocks of 256 threads (8 of 30
    /// SMs busy), 12 s solo — GPU-friendly per instance (CPU needs 40 s)
    /// but wasting 22 idle SMs, the Section I scenario. The functional
    /// matrix is 96×96 so tests stay fast; the descriptor carries the
    /// real kernel cost.
    pub fn scalability_limited(cfg: &GpuConfig) -> Self {
        let base = KernelDesc::builder("sgemm_tile")
            .threads_per_block(256)
            .regs_per_thread(30)
            .shared_mem_per_block(8192) // two staged tiles
            .coalesced_mem(2_000.0)
            .sync_insts(64.0)
            .build();
        let desc = with_solo_time(base, 12.0, cfg);
        MatmulWorkload::new(96, desc, 8, 160.0, 4, 10 << 20)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Workload for MatmulWorkload {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "matmul",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.n * self.n * 4 * 2) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        (self.n * self.n * 4) as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.n;
        Arc::new(move |ctx, mem| {
            let input = ctx.args[0].as_ptr().expect("arg0: A|B ptr");
            let output = ctx.args[1].as_ptr().expect("arg1: C ptr");
            let nb = ctx.num_blocks as usize;
            let band = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * band;
            let hi = (lo + band).min(n);
            // One tile of one row of C at a time: `acc[j] += a[i][k] *
            // b[k][j]` with `k` outermost, so each element still sums
            // over `k` in ascending order from 0.0 — the order
            // `matmul_band` fixes — while the inner pass runs along a
            // row of B and vectorises. A and B are decoded where they
            // lie; the borrow ends before the tile is written.
            let mut acc = [0.0f32; TILE_COLS];
            for i in lo..hi {
                for j0 in (0..n).step_by(TILE_COLS) {
                    let acc = &mut acc[..TILE_COLS.min(n - j0)];
                    acc.fill(0.0);
                    let ab = mem
                        .read(input, 0, (2 * n * n * 4) as u64)
                        .expect("arg0: A|B in bounds");
                    let (a, b) = ab.split_at(n * n * 4);
                    let a_row = a[i * n * 4..(i + 1) * n * 4].chunks_exact(4);
                    for (a_ik, b_row) in a_row.zip(b.chunks_exact(n * 4)) {
                        let a_ik = f32::from_le_bytes([a_ik[0], a_ik[1], a_ik[2], a_ik[3]]);
                        let b_tile = b_row[j0 * 4..].chunks_exact(4);
                        for (c, b_kj) in acc.iter_mut().zip(b_tile) {
                            *c += a_ik * f32::from_le_bytes([b_kj[0], b_kj[1], b_kj[2], b_kj[3]]);
                        }
                    }
                    mem.write_f32s(output, (i * n + j0) as u64, acc)
                        .expect("arg1: C row tile in bounds");
                }
            }
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let n = self.n;
        let input = gpu.alloc_bytes((n * n * 4 * 2) as u64)?;
        let output = gpu.alloc_bytes((n * n * 4) as u64)?;
        let a = crate::data::f32s(seed, n * n, -1.0, 1.0);
        let b = crate::data::f32s(seed ^ 0xabcd, n * n, -1.0, 1.0);
        let mut raw = Vec::with_capacity(n * n * 8);
        for v in a.iter().chain(b.iter()) {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        gpu.upload(input, 0, &raw)?;
        Ok((
            vec![
                KernelArg::Ptr(input),
                KernelArg::Ptr(output),
                KernelArg::U32(n as u32),
            ],
            DeviceBuffers {
                input,
                output,
                output_len: (n * n * 4) as u64,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        let n = self.n;
        let a = crate::data::f32s(seed, n * n, -1.0, 1.0);
        let b = crate::data::f32s(seed ^ 0xabcd, n * n, -1.0, 1.0);
        // The reference must follow the device's per-band accumulation
        // order, which `matmul_band` shares; plain matmul_ref uses a
        // different loop order whose f32 rounding can differ.
        let nb = self.blocks as usize;
        let band = n.div_ceil(nb);
        let mut c = vec![0.0f32; n * n];
        for blk in 0..nb {
            let lo = blk * band;
            let hi = (lo + band).min(n);
            matmul_band(&a, &b, &mut c, n, lo, hi);
        }
        let mut out = Vec::with_capacity(n * n * 4);
        for v in c {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_standalone;
    use ewc_gpu::GpuDevice;
    use ewc_gpu::{BlockCost, DispatchPolicy, ExecutionEngine, Grid};

    #[test]
    fn reference_matmul_identity() {
        let n = 4;
        let mut id = vec![0.0f32; n * n];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let m = crate::data::f32s(3, n * n, -2.0, 2.0);
        assert_eq!(matmul_ref(&id, &m, n), m);
        assert_eq!(matmul_ref(&m, &id, n), m);
    }

    #[test]
    fn band_multiplication_partitions_reference() {
        let n = 8;
        let a = crate::data::f32s(1, n * n, -1.0, 1.0);
        let b = crate::data::f32s(2, n * n, -1.0, 1.0);
        let full = matmul_ref(&a, &b, n);
        let mut banded = vec![0.0f32; n * n];
        matmul_band(&a, &b, &mut banded, n, 0, 3);
        matmul_band(&a, &b, &mut banded, n, 3, 8);
        for (x, y) in full.iter().zip(&banded) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let w = MatmulWorkload::scalability_limited(&cfg);
        let r = run_standalone(&w, &mut gpu, 9).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn preset_underutilises_the_device() {
        let cfg = GpuConfig::tesla_c1060();
        let w = MatmulWorkload::scalability_limited(&cfg);
        assert!(w.blocks() < cfg.num_sms, "must leave SMs idle");
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 12.0).abs() / 12.0 < 1e-6);
        // GPU-friendly: CPU takes 40 s, GPU 12 s.
        assert!((w.cpu_task().solo_time_s(8) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn consolidating_instances_fills_idle_sms_for_free() {
        // Three 8-block instances = 24 blocks ≤ 30 SMs: same makespan as
        // one instance — the Section I energy argument.
        let cfg = GpuConfig::tesla_c1060();
        let w = MatmulWorkload::scalability_limited(&cfg);
        let engine = ExecutionEngine::new(cfg.clone());
        let one = engine
            .run(
                &Grid::single(w.desc(), w.blocks()),
                DispatchPolicy::default(),
            )
            .unwrap();
        let mut grid = ewc_gpu::ConsolidatedGrid::new();
        for _ in 0..3 {
            grid = grid.add(Grid::single(w.desc(), w.blocks()));
        }
        let three = engine
            .run(&grid.build(), DispatchPolicy::default())
            .unwrap();
        assert!((three.elapsed_s - one.elapsed_s).abs() / one.elapsed_s < 0.02);
        assert_eq!(three.counters.sms_used(), 24);
    }
}
