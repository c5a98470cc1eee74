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
    f32_stream(seed, lo, hi).take(n).collect()
}

/// The values [`f32s`] returns, encoded little-endian straight into
/// `out` (one per 4 bytes) with no intermediate vector.
pub fn f32s_le_into(seed: u64, lo: f32, hi: f32, out: &mut [u8]) {
    for (slot, v) in out.chunks_exact_mut(4).zip(f32_stream(seed, lo, hi)) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
}

/// The draws of [`SimRng::range_f32`], with its bounds checked once
/// rather than per element.
fn f32_stream(seed: u64, lo: f32, hi: f32) -> impl Iterator<Item = f32> {
    assert!(hi > lo, "empty range [{lo}, {hi})");
    let mut r = rng(seed);
    std::iter::repeat_with(move || lo + (hi - lo) * r.next_f32())
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
        let mut r = rng(4);
        let direct: Vec<f32> = (0..64).map(|_| r.range_f32(0.25, 10.0)).collect();
        assert_eq!(f32s(4, 64, 0.25, 10.0), direct);
        let mut raw = vec![0u8; 64 * 4];
        f32s_le_into(4, 0.25, 10.0, &mut raw);
        let decoded: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(decoded, direct);
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
