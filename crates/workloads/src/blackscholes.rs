//! BlackScholes workload (the paper's CUDA SDK sample \[28\]).
//!
//! Closed-form European option pricing: for each option `(S, K, T)` the
//! kernel computes call and put prices with the Black–Scholes formula.
//! Compute-bound (exp/log/CND chains) with streaming coalesced reads —
//! the profile of the SDK sample. Its full issue demand is what stretches
//! a co-resident search block in scenario 2, and its own blocks serialise
//! pairwise when two land on one SM.

use std::sync::Arc;

use ewc_cpu::CpuTask;
use ewc_gpu::kernel::{BlockFn, KernelArg};
use ewc_gpu::{DeviceAlloc, GpuConfig, GpuError, KernelDesc};

use crate::calibrate::with_solo_time;
use crate::registry::{DeviceBuffers, Workload};

/// Risk-free rate used by the SDK sample.
pub const RISK_FREE: f64 = 0.02;
/// Volatility used by the SDK sample.
pub const VOLATILITY: f64 = 0.30;

/// Cumulative normal distribution (Abramowitz–Stegun 26.2.17 polynomial,
/// the exact approximation the CUDA SDK sample uses).
pub fn cnd(d: f64) -> f64 {
    cnd_from_exp(d, (-0.5 * d * d).exp())
}

/// [`cnd`] with its one libm call, `exp(-d²/2)`, done by the caller.
#[inline(always)]
fn cnd_from_exp(d: f64, exp_half_d2: f64) -> f64 {
    const A1: f64 = 0.319_381_530;
    const A2: f64 = -0.356_563_782;
    const A3: f64 = 1.781_477_937;
    const A4: f64 = -1.821_255_978;
    const A5: f64 = 1.330_274_429;
    const RSQRT2PI: f64 = 0.398_942_280_401_432_7;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * exp_half_d2 * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

/// Price one European option; returns `(call, put)`.
pub fn black_scholes(s: f64, k: f64, t: f64) -> (f64, f64) {
    let sqrt_t = t.sqrt();
    let d1 =
        ((s / k).ln() + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t) / (VOLATILITY * sqrt_t);
    let d2 = d1 - VOLATILITY * sqrt_t;
    let cnd_d1 = cnd(d1);
    let cnd_d2 = cnd(d2);
    let exp_rt = (-RISK_FREE * t).exp();
    let call = s * cnd_d1 - k * exp_rt * cnd_d2;
    let put = k * exp_rt * (1.0 - cnd_d2) - s * (1.0 - cnd_d1);
    (call, put)
}

/// Price up to [`TILE_OPTIONS`] options laid out as three parallel
/// arrays into interleaved `(call, put)` `f32` pairs — the device output
/// layout — bit for bit as [`black_scholes`] prices each one.
///
/// The formula runs in passes over the tile: each libm call (`ln`, then
/// the three `exp`s) has a loop of its own, and everything between them
/// (casts, divisions, `sqrt`, the CND polynomial) sits in loops the
/// compiler vectorises. Each option still sees the scalar formula's
/// operations in its order, and Rust never contracts them to FMA, so the
/// bytes cannot move.
///
/// # Panics
/// If the inputs differ in length, exceed a tile, or `prices` is not
/// twice their length.
pub fn price_tile(spots: &[f32], strikes: &[f32], times: &[f32], prices: &mut [f32]) {
    const T: usize = TILE_OPTIONS;
    let w = spots.len();
    assert!(w <= T && strikes.len() == w && times.len() == w);
    assert_eq!(prices.len(), 2 * w, "one (call, put) pair per option");
    let (mut s, mut k, mut t) = ([0.0f64; T], [0.0f64; T], [0.0f64; T]);
    let mut ln_sk = [0.0f64; T];
    for i in 0..w {
        s[i] = f64::from(spots[i]);
        k[i] = f64::from(strikes[i]);
        t[i] = f64::from(times[i]);
        ln_sk[i] = s[i] / k[i];
    }
    for x in &mut ln_sk[..w] {
        *x = x.ln();
    }
    // `exp`'s arguments, then its values: `exp(-d1²/2)` and
    // `exp(-d2²/2)` for the CND of each, and the discount `exp(-rt)`.
    let (mut d1, mut d2) = ([0.0f64; T], [0.0f64; T]);
    let mut exp = [[0.0f64; T]; 3];
    for i in 0..w {
        let sqrt_t = t[i].sqrt();
        d1[i] =
            (ln_sk[i] + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t[i]) / (VOLATILITY * sqrt_t);
        d2[i] = d1[i] - VOLATILITY * sqrt_t;
        exp[0][i] = -0.5 * d1[i] * d1[i];
        exp[1][i] = -0.5 * d2[i] * d2[i];
        exp[2][i] = -RISK_FREE * t[i];
    }
    for row in &mut exp {
        for x in &mut row[..w] {
            *x = x.exp();
        }
    }
    let [exp_d1, exp_d2, exp_rt] = &exp;
    for i in 0..w {
        let cnd_d1 = cnd_from_exp(d1[i], exp_d1[i]);
        let cnd_d2 = cnd_from_exp(d2[i], exp_d2[i]);
        let call = s[i] * cnd_d1 - k[i] * exp_rt[i] * cnd_d2;
        let put = k[i] * exp_rt[i] * (1.0 - cnd_d2) - s[i] * (1.0 - cnd_d1);
        prices[2 * i] = call as f32;
        prices[2 * i + 1] = put as f32;
    }
}

/// The three input runs, in device order: seed salt and `[lo, hi)` of
/// the spots, the strikes and the times to maturity.
const INPUT_RUNS: [(u64, f32, f32); 3] = [(0, 5.0, 30.0), (1, 1.0, 100.0), (2, 0.25, 10.0)];

/// Options [`price_tile`] prices in one call, on the stack.
pub const TILE_OPTIONS: usize = 128;

/// A BlackScholes instance.
#[derive(Debug, Clone)]
pub struct BlackScholesWorkload {
    options: usize,
    desc: KernelDesc,
    blocks: u32,
    cpu_work_core_s: f64,
    cpu_parallelism: u32,
    cpu_working_set: u64,
}

impl BlackScholesWorkload {
    /// Custom construction; prefer the presets.
    pub fn new(
        options: usize,
        desc: KernelDesc,
        blocks: u32,
        cpu_work_core_s: f64,
        cpu_parallelism: u32,
        cpu_working_set: u64,
    ) -> Self {
        BlackScholesWorkload {
            options,
            desc,
            blocks,
            cpu_work_core_s,
            cpu_parallelism,
            cpu_working_set,
        }
    }

    fn base_desc(regs: u32) -> KernelDesc {
        KernelDesc::builder("blackscholes")
            .threads_per_block(256)
            .regs_per_thread(regs)
            .coalesced_mem(500.0)
            .build()
    }

    /// Table 1 / Tables 5–6 instance: 4096 K options in one block; GPU
    /// 34.2 s vs CPU 57.4 s (the workload that *likes* the GPU).
    /// Functional data is a 64 K-option slice of the batch so tests stay
    /// fast; the descriptor carries the full cost.
    pub fn tables56(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(20), 34.2, cfg);
        BlackScholesWorkload::new(65_536, desc, 1, 114.8, 2, 1 << 20)
    }

    /// Scenario 2 (Table 3) instance: 45 blocks, 1000 iterations; a
    /// single instance runs in 26.4 s (its second wave of 15 blocks
    /// doubles up on SMs 0–14). Registers sized (28/thread) so that two
    /// BS blocks or one search + one BS block share an SM, but never
    /// search + two BS.
    pub fn scenario2(cfg: &GpuConfig) -> Self {
        let desc = with_solo_time(Self::base_desc(28), 13.2, cfg);
        BlackScholesWorkload::new(65_536, desc, 45, 114.8, 2, 1 << 20)
    }

    /// Options priced per instance (functional).
    pub fn options(&self) -> usize {
        self.options
    }
}

impl Workload for BlackScholesWorkload {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn desc(&self) -> KernelDesc {
        self.desc.clone()
    }

    fn blocks(&self) -> u32 {
        self.blocks
    }

    fn cpu_task(&self) -> CpuTask {
        CpuTask::new(
            "blackscholes",
            self.cpu_work_core_s,
            self.cpu_parallelism,
            self.cpu_working_set,
        )
    }

    fn h2d_bytes(&self) -> u64 {
        (self.options * 4 * 3) as u64
    }

    fn d2h_bytes(&self) -> u64 {
        (self.options * 4 * 2) as u64
    }

    fn body(&self) -> BlockFn {
        let n = self.options;
        Arc::new(move |ctx, mem| {
            let input = ctx.args[0].as_ptr().expect("arg0: options ptr");
            let output = ctx.args[1].as_ptr().expect("arg1: prices ptr");
            let nb = ctx.num_blocks as usize;
            let chunk = n.div_ceil(nb);
            let lo = ctx.block_idx as usize * chunk;
            let hi = (lo + chunk).min(n);
            // Input layout: spots[n] | strikes[n] | times[n]. Priced a
            // stack tile at a time: the three input runs are decoded
            // into the tile, and the borrow ends before the tile's
            // prices are written.
            let mut inputs = [[0.0f32; TILE_OPTIONS]; 3];
            let mut prices = [0.0f32; 2 * TILE_OPTIONS];
            let mut at = lo;
            while at < hi {
                let width = TILE_OPTIONS.min(hi - at);
                for (run, tile) in inputs.iter_mut().enumerate() {
                    let vals = mem
                        .iter_f32s(input, (run * n + at) as u64, width)
                        .expect("arg0: spots, strikes and times in bounds");
                    for (slot, v) in tile.iter_mut().zip(vals) {
                        *slot = v;
                    }
                }
                let [spots, strikes, times] = &inputs;
                price_tile(
                    &spots[..width],
                    &strikes[..width],
                    &times[..width],
                    &mut prices[..2 * width],
                );
                mem.write_f32s(output, (at * 2) as u64, &prices[..2 * width])
                    .expect("arg1: call/put pairs in bounds");
                at += width;
            }
        })
    }

    fn build_args(
        &self,
        gpu: &mut dyn DeviceAlloc,
        seed: u64,
    ) -> Result<(Vec<KernelArg>, DeviceBuffers), GpuError> {
        let n = self.options;
        let input = gpu.alloc_bytes((n * 4 * 3) as u64)?;
        let output = gpu.alloc_bytes((n * 4 * 2) as u64)?;
        let mut raw = vec![0u8; n * 4 * 3];
        for (i, (salt, lo, hi)) in INPUT_RUNS.into_iter().enumerate() {
            let run = &mut raw[i * n * 4..(i + 1) * n * 4];
            crate::data::f32s_le_into(seed ^ salt, lo, hi, run);
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
                output_len: (n * 4 * 2) as u64,
            },
        ))
    }

    fn expected_output(&self, seed: u64) -> Vec<u8> {
        // The inputs are drawn a tile at a time, in the order
        // `build_args` draws them, and priced straight into the output.
        let mut streams =
            INPUT_RUNS.map(|(salt, lo, hi)| crate::data::f32_stream(seed ^ salt, lo, hi));
        let mut inputs = [[0.0f32; TILE_OPTIONS]; 3];
        let mut prices = [0.0f32; 2 * TILE_OPTIONS];
        let mut out = vec![0u8; self.options * 4 * 2];
        for run in out.chunks_mut(4 * 2 * TILE_OPTIONS) {
            let width = run.len() / 8;
            for (stream, tile) in streams.iter_mut().zip(&mut inputs) {
                stream.fill(&mut tile[..width]);
            }
            let [spots, strikes, times] = &inputs;
            let prices = &mut prices[..2 * width];
            price_tile(&spots[..width], &strikes[..width], &times[..width], prices);
            for (slot, p) in run.chunks_exact_mut(4).zip(prices.iter()) {
                slot.copy_from_slice(&p.to_le_bytes());
            }
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
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-7);
        assert!(cnd(-8.0) < 1e-9);
        assert!((cnd(8.0) - 1.0).abs() < 1e-9);
        let mut last = 0.0;
        for i in -40..=40 {
            let v = cnd(f64::from(i) * 0.25);
            assert!(v >= last, "CDF must be monotone");
            last = v;
        }
    }

    #[test]
    fn put_call_parity_holds() {
        for (s, k, t) in [(20.0, 20.0, 1.0), (10.0, 35.0, 5.0), (30.0, 5.0, 0.25)] {
            let (c, p) = black_scholes(s, k, t);
            let parity = c - p - s + k * (-RISK_FREE * t).exp();
            assert!(parity.abs() < 1e-9, "parity violated: {parity}");
            assert!(c >= 0.0 && p >= 0.0);
        }
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (c, _) = black_scholes(100.0, 1.0, 0.25);
        let intrinsic = 100.0 - 1.0 * (-RISK_FREE * 0.25_f64).exp();
        assert!((c - intrinsic).abs() < 1e-3);
    }

    /// Price `(spots, strikes, times)` with [`price_tile`] and assert
    /// every call and put has the scalar oracle's bits.
    fn assert_tile_is_scalar(spots: &[f32], strikes: &[f32], times: &[f32]) {
        let mut prices = vec![0.0f32; 2 * spots.len()];
        price_tile(spots, strikes, times, &mut prices);
        for (i, pair) in prices.chunks_exact(2).enumerate() {
            let (s, k, t) = (spots[i], strikes[i], times[i]);
            let (call, put) = black_scholes(f64::from(s), f64::from(k), f64::from(t));
            assert_eq!(
                [pair[0].to_bits(), pair[1].to_bits()],
                [(call as f32).to_bits(), (put as f32).to_bits()],
                "option {i} of {}: ({s}, {k}, {t})",
                spots.len()
            );
        }
    }

    #[test]
    fn price_tile_is_the_scalar_pricer_at_every_width() {
        for seed in [0, 17, 0xb5] {
            let [s, k, t] = INPUT_RUNS
                .map(|(salt, lo, hi)| crate::data::f32s(seed ^ salt, TILE_OPTIONS, lo, hi));
            for w in 1..=TILE_OPTIONS {
                assert_tile_is_scalar(&s[..w], &k[..w], &t[..w]);
            }
        }
    }

    #[test]
    fn price_tile_is_the_scalar_pricer_on_edge_inputs() {
        // At the money (d crosses 0 between neighbours), deep in and
        // out of it, and maturities near 0 and near 10 years.
        let spots = [1.0f32, 5.0, 17.5, 30.0, 99.9];
        let times = [1e-7f32, 1e-3, 0.25, 1.0, 9.999_999, 10.0];
        let (mut s, mut k, mut t) = (Vec::new(), Vec::new(), Vec::new());
        for &spot in &spots {
            for strike in [
                spot,
                f32::from_bits(spot.to_bits() - 1),
                f32::from_bits(spot.to_bits() + 1),
                spot * 1.02,
                spot / 1.02,
                spot * 100.0,
                spot / 100.0,
            ] {
                for &time in &times {
                    s.push(spot);
                    k.push(strike);
                    t.push(time);
                }
            }
        }
        for at in (0..s.len()).step_by(TILE_OPTIONS) {
            let end = (at + TILE_OPTIONS).min(s.len());
            assert_tile_is_scalar(&s[at..end], &k[at..end], &t[at..end]);
        }
        // The same cases at tile widths that start and stop elsewhere.
        for w in [1, 7, 64, 127] {
            for at in (0..s.len()).step_by(w) {
                let end = (at + w).min(s.len());
                assert_tile_is_scalar(&s[at..end], &k[at..end], &t[at..end]);
            }
        }
    }

    #[test]
    fn scenario2_blocks_price_each_option_as_the_scalar_oracle() {
        // 65 536 options over 45 blocks: each block's tiles start at
        // its own offset (1457 options a block), not on a multiple of
        // the tile, while `expected_output` tiles from option 0.
        let cfg = GpuConfig::tesla_c1060();
        let w = BlackScholesWorkload::scenario2(&cfg);
        assert_eq!(w.blocks(), 45);
        let seed = 3;
        let r = run_standalone(&w, &mut GpuDevice::new(cfg), seed).unwrap();
        assert!(r.correct, "device output is the host reference");
        let [s, k, t] =
            INPUT_RUNS.map(|(salt, lo, hi)| crate::data::f32s(seed ^ salt, w.options(), lo, hi));
        for (i, pair) in r.output.chunks_exact(8).enumerate() {
            let (call, put) = black_scholes(f64::from(s[i]), f64::from(k[i]), f64::from(t[i]));
            let mut want = (call as f32).to_le_bytes().to_vec();
            want.extend_from_slice(&(put as f32).to_le_bytes());
            assert_eq!(pair, want.as_slice(), "option {i}");
        }
    }

    #[test]
    fn gpu_run_matches_host_reference() {
        let cfg = GpuConfig::tesla_c1060();
        let mut gpu = GpuDevice::new(cfg.clone());
        let mut w = BlackScholesWorkload::tables56(&cfg);
        w.options = 4096; // keep the functional batch small in tests
        let r = run_standalone(&w, &mut gpu, 17).unwrap();
        assert!(r.correct);
    }

    #[test]
    fn scenario2_single_instance_timing() {
        // 45 blocks at 13.2 s solo, occupancy ≥ 2: the second wave
        // doubles up → instance time ≈ 26.4 s.
        let cfg = GpuConfig::tesla_c1060();
        let w = BlackScholesWorkload::scenario2(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 13.2).abs() / 13.2 < 1e-6);
        assert!(c.is_compute_bound());
        let engine = ewc_gpu::ExecutionEngine::new(cfg.clone());
        let out = engine
            .run(
                &ewc_gpu::Grid::single(w.desc(), w.blocks()),
                ewc_gpu::DispatchPolicy::default(),
            )
            .unwrap();
        assert!(
            (out.elapsed_s - 26.4).abs() / 26.4 < 0.05,
            "instance {}",
            out.elapsed_s
        );
    }

    #[test]
    fn tables56_calibration() {
        let cfg = GpuConfig::tesla_c1060();
        let w = BlackScholesWorkload::tables56(&cfg);
        let c = BlockCost::derive(&w.desc(), &cfg);
        assert!((c.t_solo_s - 34.2).abs() / 34.2 < 1e-6);
        assert!((w.cpu_task().solo_time_s(8) - 57.4).abs() < 1e-9);
    }
}
