//! The discrete-event driver: tasks that fire at scheduled instants.

use crate::clock::VirtualClock;
use crate::queue::EventQueue;

/// A unit of simulated work: fires at its scheduled instant against the
/// caller's state, and may schedule follow-up tasks on the executor.
///
/// The trait is generic over the state type and consumed by value, so a
/// task can carry owned payload into its firing without boxing; the
/// [`Executor`] is monomorphized over one concrete task type, keeping
/// the hot path allocation-free. A task driven by a closure is also
/// supported: any `FnOnce(f64, &mut S, &mut Executor<S, T>)` wrapped in
/// the task enum of the caller's choosing.
pub trait SimTask<S>: Sized {
    /// Fire at `now_s`. `state` is the simulation being advanced and
    /// `exec` the executor, for scheduling follow-ups.
    fn fire(self, now_s: f64, state: &mut S, exec: &mut Executor<S, Self>);
}

/// A simulated-time executor: a [`VirtualClock`] plus an [`EventQueue`]
/// of pending [`SimTask`]s, drained earliest-first (ties in schedule
/// order). The clock only ever moves forward: each step advances it to
/// the fired event's timestamp.
#[derive(Debug)]
pub struct Executor<S, T: SimTask<S>> {
    clock: VirtualClock,
    queue: EventQueue<T>,
    _state: std::marker::PhantomData<fn(&mut S)>,
}

impl<S, T: SimTask<S>> Default for Executor<S, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S, T: SimTask<S>> Executor<S, T> {
    /// An executor with a fresh clock at `t = 0`.
    pub fn new() -> Self {
        Self::with_clock(VirtualClock::new())
    }

    /// An executor driving an existing (possibly shared) clock.
    pub fn with_clock(clock: VirtualClock) -> Self {
        Executor {
            clock,
            queue: EventQueue::new(),
            _state: std::marker::PhantomData,
        }
    }

    /// The executor's clock (clone it to share the timeline).
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Schedule `task` at the absolute instant `time_s`.
    ///
    /// # Panics
    /// Panics on a NaN time, and when `time_s` lies before the clock's
    /// current instant — an executor cannot fire events in its own past.
    pub fn schedule_at(&mut self, time_s: f64, task: T) -> u64 {
        assert!(!time_s.is_nan(), "cannot schedule an event at NaN");
        assert!(
            time_s >= self.clock.now_s(),
            "cannot schedule at {time_s} before now ({})",
            self.clock.now_s()
        );
        self.queue.schedule(time_s, task)
    }

    /// Schedule `task` `dt` seconds from now.
    ///
    /// # Panics
    /// Panics on a NaN or negative `dt`.
    pub fn schedule_in(&mut self, dt: f64, task: T) -> u64 {
        assert!(!dt.is_nan(), "cannot schedule an event at NaN");
        assert!(dt >= 0.0, "cannot schedule in negative time ({dt})");
        self.queue.schedule(self.clock.now_s() + dt, task)
    }

    /// Number of pending tasks.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Fire the earliest pending task: advance the clock to its instant
    /// and run it. Returns `false` when the queue was empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        let now = self.clock.advance_to(ev.time_s);
        ev.payload.fire(now, state, self);
        true
    }

    /// Drain the queue: step until no tasks remain (tasks may keep
    /// scheduling follow-ups; the loop ends when the simulation goes
    /// quiet).
    pub fn run_until_idle(&mut self, state: &mut S) {
        while self.step(state) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task that logs its firing and optionally re-arms itself.
    struct Tick {
        label: &'static str,
        period_s: f64,
        remaining: u32,
    }

    impl SimTask<Vec<(f64, &'static str)>> for Tick {
        fn fire(
            self,
            now_s: f64,
            log: &mut Vec<(f64, &'static str)>,
            exec: &mut Executor<Vec<(f64, &'static str)>, Self>,
        ) {
            log.push((now_s, self.label));
            if self.remaining > 1 {
                exec.schedule_in(
                    self.period_s,
                    Tick {
                        remaining: self.remaining - 1,
                        ..self
                    },
                );
            }
        }
    }

    #[test]
    fn tasks_fire_in_time_then_schedule_order() {
        let mut exec = Executor::new();
        let mut log = Vec::new();
        exec.schedule_at(
            2.0,
            Tick {
                label: "b",
                period_s: 0.0,
                remaining: 1,
            },
        );
        exec.schedule_at(
            1.0,
            Tick {
                label: "a",
                period_s: 0.0,
                remaining: 1,
            },
        );
        exec.schedule_at(
            2.0,
            Tick {
                label: "c",
                period_s: 0.0,
                remaining: 1,
            },
        );
        exec.run_until_idle(&mut log);
        // b scheduled before c at the same instant → b fires first.
        assert_eq!(log, [(1.0, "a"), (2.0, "b"), (2.0, "c")]);
        assert_eq!(exec.clock().now_s(), 2.0);
    }

    #[test]
    fn rearming_tasks_drive_the_clock_forward() {
        let mut exec = Executor::new();
        let mut log = Vec::new();
        exec.schedule_at(
            0.5,
            Tick {
                label: "t",
                period_s: 0.25,
                remaining: 4,
            },
        );
        exec.run_until_idle(&mut log);
        let times: Vec<f64> = log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, [0.5, 0.75, 1.0, 1.25]);
        assert_eq!(exec.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut exec: Executor<Vec<(f64, &'static str)>, Tick> =
            Executor::with_clock(VirtualClock::starting_at(5.0));
        exec.schedule_at(
            4.0,
            Tick {
                label: "late",
                period_s: 0.0,
                remaining: 1,
            },
        );
    }

    fn once() -> Tick {
        Tick {
            label: "nan",
            period_s: 0.0,
            remaining: 1,
        }
    }

    // Match the whole reason: the before-now and negative-time messages
    // print the NaN too.
    #[test]
    #[should_panic(expected = "cannot schedule an event at NaN")]
    fn scheduling_at_nan_panics_with_the_nan_reason() {
        Executor::<Vec<(f64, &'static str)>, Tick>::new().schedule_at(f64::NAN, once());
    }

    #[test]
    #[should_panic(expected = "cannot schedule an event at NaN")]
    fn scheduling_in_nan_panics_with_the_nan_reason() {
        Executor::<Vec<(f64, &'static str)>, Tick>::new().schedule_in(f64::NAN, once());
    }
}
