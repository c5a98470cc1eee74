//! A bounded memo for pure functions the runtime calls with the same
//! arguments over and over.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::hash::Hash;

use crate::hash::FxBuildHasher;

/// Entries one [`Memo`] holds. A full memo is cleared, not evicted
/// from: results never depend on this number, only hit rates do.
const MEMO_CAPACITY: usize = 64;

/// Results of a pure function, keyed by words that spell out everything
/// the function reads.
///
/// The caller owns the key's completeness: two calls whose words agree
/// must be calls whose results agree. Debug builds hold it to that — a
/// hit recomputes the result and asserts it prints exactly like the
/// remembered one — so every debug test run checks the key. Errors are
/// never remembered.
#[derive(Debug)]
pub struct Memo<W, V> {
    results: HashMap<Box<[W]>, V, FxBuildHasher>,
    /// Recycled key storage: a lookup allocates only on a miss.
    key: Vec<W>,
    reuses: u64,
}

impl<W, V> Default for Memo<W, V> {
    fn default() -> Self {
        Memo {
            results: HashMap::default(),
            key: Vec::new(),
            reuses: 0,
        }
    }
}

impl<W: Copy + Eq + Hash, V: Clone + Debug> Memo<W, V> {
    /// The result remembered under `key`, or `compute`'s, remembered
    /// unless it failed.
    pub fn get_or_try_insert<E>(
        &mut self,
        key: impl IntoIterator<Item = W>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        self.key.clear();
        self.key.extend(key);
        if let Some(hit) = self.results.get(self.key.as_slice()) {
            self.reuses += 1;
            debug_assert!(
                compute().is_ok_and(|fresh| same_bits(&fresh, hit)),
                "a remembered result differs from a fresh one: the key misses an input"
            );
            return Ok(hit.clone());
        }
        let fresh = compute()?;
        if self.results.len() >= MEMO_CAPACITY {
            self.results.clear();
        }
        self.results
            .insert(self.key.as_slice().into(), fresh.clone());
        Ok(fresh)
    }

    /// Lookups answered from the memo.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// `a` and `b` agree bit for bit. `{:?}` prints every `f64` in its
/// shortest round-trip form, so the printouts agree exactly when every
/// float does (NaN matching NaN). Both print into buffers kept per
/// thread, so the check allocates nothing once they have grown.
fn same_bits<V: Debug>(a: &V, b: &V) -> bool {
    thread_local! {
        static PRINTOUTS: RefCell<(String, String)> = const { RefCell::new((String::new(), String::new())) };
    }
    PRINTOUTS.with(|p| {
        let (x, y) = &mut *p.borrow_mut();
        x.clear();
        y.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(x, "{a:?}");
        let _ = write!(y, "{b:?}");
        x == y
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::convert::Infallible;

    #[test]
    fn a_repeated_key_is_computed_once() {
        let mut memo: Memo<u64, f64> = Memo::default();
        let calls = Cell::new(0);
        let square = |x: u64| {
            calls.set(calls.get() + 1);
            Ok::<_, Infallible>((x * x) as f64)
        };
        for _ in 0..3 {
            assert_eq!(memo.get_or_try_insert([3], || square(3)), Ok(9.0));
        }
        assert_eq!(memo.reuses(), 2);
        // Debug builds recompute on every hit to check it.
        let expected = if cfg!(debug_assertions) { 3 } else { 1 };
        assert_eq!(calls.get(), expected);
        assert_eq!(memo.get_or_try_insert([3, 0], || square(4)), Ok(16.0));
        assert_eq!(memo.reuses(), 2, "a longer key is another key");
    }

    #[test]
    fn errors_are_not_remembered() {
        let mut memo: Memo<u64, u64> = Memo::default();
        for _ in 0..2 {
            assert_eq!(memo.get_or_try_insert([1], || Err("no")), Err("no"));
        }
        assert_eq!(memo.get_or_try_insert([1], || Ok::<_, ()>(5)), Ok(5));
        assert_eq!(memo.reuses(), 0);
    }

    #[test]
    fn a_full_memo_starts_over() {
        let mut memo: Memo<usize, usize> = Memo::default();
        for k in 0..=MEMO_CAPACITY {
            let _ = memo.get_or_try_insert([k], || Ok::<_, ()>(k));
        }
        assert_eq!(memo.results.len(), 1, "cleared, then the newest kept");
        let _ = memo.get_or_try_insert([MEMO_CAPACITY], || Ok::<_, ()>(MEMO_CAPACITY));
        assert_eq!(memo.reuses(), 1);
    }

    #[test]
    fn nan_matches_nan_and_signed_zeros_differ() {
        assert!(same_bits(&f64::NAN, &f64::NAN));
        assert!(!same_bits(&0.0_f64, &-0.0_f64));
        assert!(!same_bits(&0.1_f64, &f64::from_bits(0.1_f64.to_bits() + 1)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the key misses an input")]
    fn an_incomplete_key_is_caught_in_debug_builds() {
        let mut memo: Memo<u64, u64> = Memo::default();
        let next = Cell::new(0);
        let counter = || {
            next.set(next.get() + 1);
            Ok::<_, ()>(next.get())
        };
        let _ = memo.get_or_try_insert([0], counter);
        let _ = memo.get_or_try_insert([0], counter);
    }
}
