//! The discrete-event queue: deterministic `(time, seq)` order over a
//! binary heap.

use std::collections::BinaryHeap;

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event<T> {
    /// The simulated instant the event fires at.
    pub time_s: f64,
    /// Monotonic schedule sequence number (unique per queue).
    pub seq: u64,
    /// The caller's payload.
    pub payload: T,
}

/// Heap entry. Ordered so the std max-heap pops the entry with the
/// *smallest* `(time_s, seq)` first: earliest event wins, and events at
/// bitwise-equal timestamps pop in the order they were scheduled. The
/// tie-break is what makes simulation order a pure function of the
/// schedule calls, independent of heap internals.
#[derive(Debug)]
struct Entry<T> {
    time_s: f64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn into_event(self) -> Event<T> {
        Event {
            time_s: self.time_s,
            seq: self.seq,
            payload: self.payload,
        }
    }

    /// The pinned total order: `(time, seq)`, earliest first.
    /// `total_cmp` is safe because `schedule` rejects NaN times.
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the std max-heap surfaces the minimum.
        other.key_cmp(self)
    }
}

/// A deterministic discrete-event queue.
///
/// Events are scheduled at absolute simulated times and popped earliest
/// first; equal timestamps resolve in schedule order via a monotonic
/// sequence number.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time_s`. Returns the
    /// event's sequence number (the tie-break key).
    ///
    /// # Panics
    /// Panics on a NaN time — an event "at NaN" has no place on any
    /// timeline and would poison the heap order.
    pub fn schedule(&mut self, time_s: f64, payload: T) -> u64 {
        assert!(!time_s.is_nan(), "cannot schedule an event at NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time_s,
            seq,
            payload,
        });
        seq
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time_s(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time_s)
    }

    /// Pop the earliest pending event (ties in schedule order).
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(Entry::into_event)
    }

    /// Schedule `payload` at `time_s` and immediately pop the earliest
    /// pending event — exactly `schedule` followed by `pop`, fused.
    ///
    /// This is the heartbeat pattern of a tight event loop that predicts
    /// one completion at a time: when the queue is empty (or every
    /// pending event fires later) the new event round-trips without
    /// touching the heap at all, while still consuming a sequence
    /// number. An already-pending event at or before `time_s` pops
    /// first, same as the unfused pair (the new event carries the
    /// largest sequence number, so it loses every tie).
    ///
    /// # Panics
    /// Panics on a NaN time, like [`Self::schedule`].
    pub fn pulse(&mut self, time_s: f64, payload: T) -> Event<T> {
        assert!(!time_s.is_nan(), "cannot schedule an event at NaN");
        // `top` pops before the new event iff its time is no later: on
        // a time tie the older sequence number wins.
        if self.peek_time_s().is_some_and(|top| top <= time_s) {
            let seq = self.schedule(time_s, payload);
            debug_assert!(seq < self.next_seq);
            return self.pop().expect("peeked event vanished");
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Event {
            time_s,
            seq,
            payload,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled on this queue (the next sequence
    /// number to be handed out).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Drop all pending events (sequence numbers keep counting up).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_timestamps_pop_in_schedule_order() {
        // The pinned tie-break rule: `(time, seq)` with seq monotonic in
        // schedule order. Interleave ties with non-ties to exercise the
        // heap's sift paths.
        let mut q = EventQueue::new();
        q.schedule(5.0, 0);
        q.schedule(1.0, 1);
        q.schedule(5.0, 2);
        q.schedule(0.5, 3);
        q.schedule(5.0, 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, [3, 1, 0, 2, 4]);
    }

    #[test]
    fn negative_zero_and_positive_zero_are_distinct_but_ordered() {
        // total_cmp puts -0.0 before 0.0; schedule order must not be
        // confused by the distinction.
        let mut q = EventQueue::new();
        q.schedule(0.0, "pos");
        q.schedule(-0.0, "neg");
        assert_eq!(q.pop().map(|e| e.payload), Some("neg"));
        assert_eq!(q.pop().map(|e| e.payload), Some("pos"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_schedule_panics() {
        EventQueue::new().schedule(f64::NAN, ());
    }

    #[test]
    fn len_peek_and_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time_s(), None);
        q.schedule(2.0, ());
        q.schedule(1.0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time_s(), Some(1.0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.schedule(9.0, ()), 2, "sequence survives clear");
    }

    #[test]
    fn pulse_on_empty_queue_returns_the_new_event() {
        let mut q = EventQueue::new();
        let ev = q.pulse(3.5, "solo");
        assert_eq!((ev.time_s, ev.seq, ev.payload), (3.5, 0, "solo"));
        assert!(q.is_empty());
        assert_eq!(q.scheduled(), 1, "pulse consumes a sequence number");
    }

    #[test]
    fn pulse_pops_an_earlier_pending_event_first() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "early");
        let ev = q.pulse(2.0, "late");
        assert_eq!(ev.payload, "early");
        assert_eq!(q.pop().map(|e| e.payload), Some("late"));
    }

    #[test]
    fn pulse_loses_ties_to_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        let ev = q.pulse(2.0, "second");
        assert_eq!(ev.payload, "first", "older seq wins the time tie");
        assert_eq!(q.pop().map(|e| e.payload), Some("second"));
    }

    /// A tiny deterministic xorshift for the seeded sweep (the workspace
    /// RNG lives above this crate in the dependency graph).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn seeded_sweep_ties_always_pop_in_schedule_order() {
        // N events across a handful of shared timestamps, scheduled in a
        // seed-dependent interleaving: within every timestamp group the
        // pop order must equal the schedule order, for every seed.
        for seed in 1..=40u64 {
            let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ seed);
            let mut q = EventQueue::new();
            let n = 64 + (rng.next() % 64) as usize;
            let times = [0.0, 1.25, 1.25 + f64::EPSILON, 7.5, 7.5];
            let mut scheduled: Vec<(u64, u64)> = Vec::new(); // (time_bits, seq)
            for _ in 0..n {
                let t = times[(rng.next() % times.len() as u64) as usize];
                let seq = q.schedule(t, ());
                scheduled.push((t.to_bits(), seq));
            }
            // Expected order: stable sort by time, ties keep schedule
            // (= insertion) order.
            let mut expected = scheduled.clone();
            expected.sort_by(|a, b| {
                f64::from_bits(a.0)
                    .total_cmp(&f64::from_bits(b.0))
                    .then(a.1.cmp(&b.1))
            });
            let mut popped = Vec::new();
            let mut last_t = f64::NEG_INFINITY;
            while let Some(ev) = q.pop() {
                assert!(ev.time_s >= last_t, "time moved backwards (seed {seed})");
                last_t = ev.time_s;
                popped.push((ev.time_s.to_bits(), ev.seq));
            }
            assert_eq!(popped, expected, "seed {seed}");
        }
    }
}
