//! A word-at-a-time hasher for keys the runtime builds itself.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2⁶⁴ divided by the golden ratio, odd, so one
/// multiply spreads consecutive ids over the whole word.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The rustc-hash fold — rotate, xor, multiply — one word at a time.
///
/// For keys the runtime makes itself and never takes from outside:
/// context ids, kernel addresses, launch-shape words. SipHash's flood
/// resistance buys nothing there, and its per-byte cost is what every
/// queued launch and every flush would pay. A lone `u64` key hashes to
/// `key × K`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s: `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(word));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn a_lone_word_is_one_multiply() {
        assert_eq!(hash(7u64), 7u64.wrapping_mul(K));
    }

    #[test]
    fn slices_hash_by_content_and_order() {
        let (a, b): (&[u64], &[u64]) = (&[1, 2, 3], &[3, 2, 1]);
        assert_eq!(hash(a), hash(vec![1u64, 2, 3].as_slice()));
        assert_ne!(hash(a), hash(b));
        assert_ne!(hash(&a[..2]), hash(a));
    }

    #[test]
    fn boxed_slice_keys_answer_borrowed_lookups() {
        let mut map: HashMap<Box<[u64]>, &str, FxBuildHasher> = HashMap::default();
        map.insert(vec![4, 5].into_boxed_slice(), "shape");
        let probe = vec![4u64, 5];
        assert_eq!(map.get(probe.as_slice()), Some(&"shape"));
        assert_eq!(map.get([5u64, 4].as_slice()), None);
    }
}
