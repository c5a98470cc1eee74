//! The deterministic fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker threads to use when the caller does not say: one per
/// available core, or serial if the platform will not tell us.
///
/// Asked of the OS once per process and fixed at first use — the query
/// is an affinity syscall plus cgroup file reads, microseconds a
/// width-0 [`fan_out`] must not pay per call. A process that pins
/// itself must do so before its first fan-out.
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Evaluate `f(i)` for every `i in 0..n` across up to `width` threads
/// and return the results in index order.
///
/// `width` counts the calling thread: `1` is fully serial, `0` asks for
/// the platform default (one worker per core available at the process's
/// first fan-out — the width is fixed at first use).
///
/// There is no work stealing and no per-worker queue: workers pull the
/// next index from one shared counter and results are merged
/// *positionally* — output `i` is `f(i)`, whatever thread computed it.
/// A pure `f` therefore produces bitwise-identical output at every
/// width, serial included. A panic in any `f(i)` resumes on the caller.
pub fn fan_out<T, F>(n: usize, width: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = match width {
        0 => default_width(),
        w => w,
    };
    let workers = width.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let pull = |out: &mut Vec<(usize, T)>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        out.push((i, f(i)));
    };
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let extras: Vec<_> = (1..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    pull(&mut out);
                    out
                })
            })
            .collect();
        // The calling thread is a worker too.
        let mut mine = Vec::new();
        pull(&mut mine);
        extras
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .chain(mine)
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        let serial: Vec<usize> = fan_out(50, 1, |i| i * i);
        for width in [0, 2, 3, 7, 64] {
            assert_eq!(fan_out(50, width, |i| i * i), serial, "width {width}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(fan_out(0, 0, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}
