//! Deterministic seeded input generation.
//!
//! Every workload instance derives its input from a `u64` seed, so the
//! frontend (which generates inputs), the backend (which runs kernels)
//! and the test oracle (which computes references on the host) all agree
//! without sharing state.

use ewc_gpu::SimRng;

/// Seeded RNG for a workload instance.
pub fn rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// `n` pseudo-random bytes.
pub fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    let mut v = vec![0u8; n];
    r.fill_bytes(&mut v[..]);
    v
}

/// `n` pseudo-random `u32`s.
pub fn u32s(seed: u64, n: usize) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.next_u32()).collect()
}

/// `n` pseudo-random `f32`s uniform in `[lo, hi)`.
pub fn f32s(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut v = vec![0.0; n];
    f32_stream(seed, lo, hi).fill(&mut v);
    v
}

/// The values [`f32s`] returns, encoded little-endian straight into
/// `out` (one per 4 bytes) a stack tile at a time.
pub fn f32s_le_into(seed: u64, lo: f32, hi: f32, out: &mut [u8]) {
    let mut stream = f32_stream(seed, lo, hi);
    let mut tile = [0.0f32; F32_TILE];
    for run in out.chunks_mut(4 * F32_TILE) {
        let vals = &mut tile[..run.len() / 4];
        stream.fill(vals);
        for (slot, v) in run.chunks_exact_mut(4).zip(vals.iter()) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Values one [`F32Stream::fill`] pass maps at a time.
const F32_TILE: usize = 256;

/// The draws of [`SimRng::range_f32`] in `[lo, hi)`, a slice at a time.
#[derive(Debug)]
pub(crate) struct F32Stream {
    rng: SimRng,
    lo: f32,
    span: f32,
}

/// The draws of [`SimRng::range_f32`], with its bounds checked once
/// rather than per element.
pub(crate) fn f32_stream(seed: u64, lo: f32, hi: f32) -> F32Stream {
    assert!(hi > lo, "empty range [{lo}, {hi})");
    F32Stream {
        rng: rng(seed),
        lo,
        span: hi - lo,
    }
}

impl F32Stream {
    /// Fill `out` with the next `out.len()` draws. Each tile takes its
    /// 24-bit integers from the generator in one pass and maps them to
    /// `[lo, hi)` in a second, so the conversions leave the generator's
    /// dependency chain and vectorise; every value is computed as
    /// [`SimRng::range_f32`] computes it, bit for bit.
    pub(crate) fn fill(&mut self, out: &mut [f32]) {
        let (lo, span) = (self.lo, self.span);
        let mut bits = [0u32; F32_TILE];
        for tile in out.chunks_mut(F32_TILE) {
            let bits = &mut bits[..tile.len()];
            for b in bits.iter_mut() {
                // The top 24 bits of the draw, as `SimRng::next_f32`.
                *b = self.rng.next_u32() >> 8;
            }
            for (v, &b) in tile.iter_mut().zip(bits.iter()) {
                *v = lo + span * (b as f32 * (1.0 / (1u32 << 24) as f32));
            }
        }
    }
}

/// Lowercase ASCII text with spaces, for the search workload.
pub fn text(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let c = r.range_u32(0, 27) as u8;
            if c == 26 {
                b' '
            } else {
                b'a' + c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(bytes(1, 64), bytes(1, 64));
        assert_ne!(bytes(1, 64), bytes(2, 64));
        assert_eq!(u32s(9, 16), u32s(9, 16));
        assert_eq!(f32s(3, 8, 0.0, 1.0), f32s(3, 8, 0.0, 1.0));
        assert_eq!(text(5, 100), text(5, 100));
    }

    #[test]
    fn f32_range_respected() {
        for v in f32s(7, 1000, 10.0, 20.0) {
            assert!((10.0..20.0).contains(&v));
        }
    }

    #[test]
    fn f32_stream_is_the_range_f32_stream() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in [0, 4, 0x5eed_f00d, u64::MAX] {
            for (lo, hi) in [(0.25, 10.0), (5.0, 30.0), (-1.0, 1.0), (1e-3, 1e6)] {
                for n in [0, 1, 255, 256, 257, 65_536] {
                    let mut r = rng(seed);
                    let direct: Vec<f32> = (0..n).map(|_| r.range_f32(lo, hi)).collect();
                    assert_eq!(bits(&f32s(seed, n, lo, hi)), bits(&direct), "{seed} {n}");
                    let mut raw = vec![0u8; n * 4];
                    f32s_le_into(seed, lo, hi, &mut raw);
                    let decoded: Vec<f32> = raw
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                        .collect();
                    assert_eq!(bits(&decoded), bits(&direct), "{seed} {n} le");
                    // Filled in ragged pieces, the stream carries on
                    // where each piece stopped.
                    let mut stream = f32_stream(seed, lo, hi);
                    let mut pieces = vec![0.0; n];
                    let mut at = 0;
                    for width in [1, 127, 128, 129, 300].into_iter().cycle() {
                        if at == n {
                            break;
                        }
                        let end = (at + width).min(n);
                        stream.fill(&mut pieces[at..end]);
                        at = end;
                    }
                    assert_eq!(bits(&pieces), bits(&direct), "{seed} {n} pieces");
                }
            }
        }
    }

    #[test]
    fn text_is_lowercase_or_space() {
        for b in text(11, 1000) {
            assert!(b == b' ' || b.is_ascii_lowercase());
        }
    }

    #[test]
    fn requested_lengths() {
        assert_eq!(bytes(0, 0).len(), 0);
        assert_eq!(u32s(0, 7).len(), 7);
        assert_eq!(text(0, 13).len(), 13);
    }
}
