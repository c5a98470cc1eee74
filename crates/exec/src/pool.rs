//! The shared work-stealing-free task pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker threads to use when the caller does not say: one per
/// available core, or serial if the platform will not tell us.
///
/// Asked of the OS once per process and fixed at first use — the query
/// is an affinity syscall plus cgroup file reads, microseconds a
/// width-0 [`TaskPool::run`] must not pay per call. A process that pins
/// itself must do so before its first fan-out.
fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A deterministic fan-out pool with a global extra-thread budget.
///
/// # Determinism
///
/// [`TaskPool::run`] evaluates `f(0..n)` across up to `width` workers
/// (the calling thread plus borrowed extras). There is no work stealing
/// and no per-worker queue: workers pull the next index from one shared
/// counter and results are merged *positionally* — output `i` is
/// `f(i)`, whatever thread computed it. A pure `f` therefore produces
/// bitwise-identical output at every width, serial included.
///
/// # Nesting and the permit budget
///
/// Fan-outs may nest: a task inside one fan-out (an experiment section
/// of `ewc run all`, say) can start another (a soak matrix). Multiplying
/// thread counts per nesting level would
/// oversubscribe the machine, so extra workers are *permits* drawn from
/// one shared budget (the pool's capacity). An outer fan-out holding
/// every permit leaves none for the fan-outs inside it — those simply
/// run serially on their callers' threads, with identical results.
/// Live threads are thus bounded by `capacity + concurrent callers`,
/// no matter how deep the nesting.
///
/// Acquisition never blocks: a fan-out takes whatever permits are free
/// (possibly zero) and proceeds. There is nothing to deadlock on.
#[derive(Debug)]
pub struct TaskPool {
    capacity: usize,
    available: AtomicUsize,
    /// Most permits ever simultaneously out, for introspection/tests.
    high_water: AtomicUsize,
}

/// RAII permit batch: returned to the pool even if a task panics.
struct Permits<'a> {
    pool: &'a TaskPool,
    n: usize,
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        self.pool.available.fetch_add(self.n, Ordering::AcqRel);
    }
}

impl TaskPool {
    /// A pool allowing up to `capacity` extra worker threads alive at
    /// once across every concurrent and nested fan-out.
    pub fn new(capacity: usize) -> Self {
        TaskPool {
            capacity,
            available: AtomicUsize::new(capacity),
            high_water: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool: capacity `cores − 1`, so a fully fanned
    /// run occupies every core exactly once (callers count too).
    pub fn global() -> &'static TaskPool {
        static GLOBAL: OnceLock<TaskPool> = OnceLock::new();
        GLOBAL.get_or_init(|| TaskPool::new(default_width().saturating_sub(1)))
    }

    /// The permit budget (maximum extra threads).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Most extra threads ever simultaneously borrowed from this pool.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }

    /// Take up to `want` permits without blocking; returns how many were
    /// actually taken (possibly zero).
    fn try_acquire(&self, want: usize) -> Permits<'_> {
        let mut got = 0;
        if want > 0 {
            let mut cur = self.available.load(Ordering::Acquire);
            loop {
                let take = want.min(cur);
                if take == 0 {
                    break;
                }
                match self.available.compare_exchange_weak(
                    cur,
                    cur - take,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        got = take;
                        break;
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
        if got > 0 {
            let out = self.capacity - self.available.load(Ordering::Acquire);
            self.high_water.fetch_max(out, Ordering::AcqRel);
        }
        Permits { pool: self, n: got }
    }

    /// Evaluate `f(i)` for every `i in 0..n` across up to `width`
    /// threads and return the results in index order.
    ///
    /// `width` counts the calling thread: `1` is fully serial, `0` asks
    /// for the platform default (one worker per core available at the
    /// process's first fan-out — the width is fixed at first use). The
    /// pool may grant fewer extras than requested — or none, in which
    /// case the call degrades to a serial loop — without changing the
    /// output bytes (see the type-level docs on determinism).
    pub fn run<T, F>(&self, n: usize, width: usize, f: F) -> Vec<T>
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
        let permits = self.try_acquire(workers - 1);
        if permits.n == 0 {
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
            let extras: Vec<_> = (0..permits.n)
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
        drop(permits);
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        let pool = TaskPool::new(8);
        let serial: Vec<usize> = pool.run(50, 1, |i| i * i);
        for width in [0, 2, 3, 7, 64] {
            assert_eq!(pool.run(50, width, |i| i * i), serial, "width {width}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = TaskPool::new(4);
        assert_eq!(pool.run(0, 0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn zero_capacity_pool_runs_serially() {
        let pool = TaskPool::new(0);
        assert_eq!(pool.run(8, 4, |i| i), (0..8).collect::<Vec<_>>());
        assert_eq!(pool.high_water(), 0);
    }

    #[test]
    fn permits_are_returned_after_a_run() {
        let pool = TaskPool::new(3);
        for _ in 0..5 {
            pool.run(16, 4, |i| i);
        }
        assert_eq!(pool.available.load(Ordering::Acquire), 3);
        assert!(pool.high_water() <= 3);
    }

    #[test]
    fn nested_fanouts_never_exceed_the_budget() {
        // Outer 4-wide fan-out whose items each fan out 4-wide again.
        // Track the maximum number of closures executing at once: it
        // must stay ≤ capacity + 1 (the borrowed extras plus the one
        // calling thread), proving nesting cannot multiply threads.
        let pool = TaskPool::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let outer: Vec<Vec<usize>> = pool.run(4, 4, |o| {
            pool.run(4, 4, |i| {
                let now = live.fetch_add(1, Ordering::AcqRel) + 1;
                peak.fetch_max(now, Ordering::AcqRel);
                // Give siblings a chance to overlap if they ever could.
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::AcqRel);
                o * 10 + i
            })
        });
        for (o, inner) in outer.iter().enumerate() {
            assert_eq!(inner, &vec![o * 10, o * 10 + 1, o * 10 + 2, o * 10 + 3]);
        }
        assert!(
            peak.load(Ordering::Acquire) <= 3,
            "peak concurrency {} exceeded capacity+1",
            peak.load(Ordering::Acquire)
        );
        assert!(pool.high_water() <= pool.capacity());
        assert_eq!(pool.available.load(Ordering::Acquire), 2);
    }

    #[test]
    fn panics_propagate_and_release_permits() {
        let pool = TaskPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(caught.is_err());
        assert_eq!(
            pool.available.load(Ordering::Acquire),
            2,
            "permits leaked after panic"
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_machine() {
        let g = TaskPool::global();
        assert!(std::ptr::eq(g, TaskPool::global()));
        assert_eq!(g.capacity(), default_width().saturating_sub(1));
        let out = g.run(10, 0, |i| i * 3);
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }
}
