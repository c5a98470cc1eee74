//! The discrete-event queue: deterministic `(time, seq)` order over
//! ascending runs merged through a heap of run heads.
//!
//! Event traffic in this workspace arrives mostly pre-sorted: an
//! open-loop harness schedules each stream's arrivals in time order, one
//! stream after another, then `Busy` retries just after `now`; a trace
//! replay schedules one ascending run. The queue keeps such runs as
//! they came. A `schedule` not earlier than the *open* run's tail
//! appends to it in O(1), and pops take its front directly while it is
//! the earliest event, so a stream of retries never enters the heap. An
//! earlier `schedule` seals a long open run into a binary heap that
//! holds one head per sealed run, so a pop sifts over the R live runs
//! (O(log R)) instead of over every pending event. Below an open run no
//! longer than the heap is deep, an earlier event goes into the heap on
//! its own instead, as a lone head: random-order traffic, whose runs
//! average under two events, stays a plain binary heap of events.

use std::collections::{BinaryHeap, VecDeque};

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

/// An event's place in the pinned total order: its time, mapped to an
/// integer that sorts like `f64::total_cmp` (NaN is rejected before it
/// gets here), then its sequence number. The derived lexicographic order
/// *is* the `(time, seq)` order, at the price of two integer compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: u64,
    seq: u64,
}

impl Key {
    const SIGN: u64 = 1 << 63;

    fn new(time_s: f64, seq: u64) -> Self {
        let bits = time_s.to_bits();
        let time = if bits & Self::SIGN == 0 {
            bits | Self::SIGN
        } else {
            !bits
        };
        Key { time, seq }
    }

    /// The time back, bit for bit.
    fn time_s(self) -> f64 {
        f64::from_bits(if self.time & Self::SIGN == 0 {
            !self.time
        } else {
            self.time & !Self::SIGN
        })
    }
}

/// One pending event.
#[derive(Debug)]
struct Entry<T> {
    key: Key,
    payload: T,
}

impl<T> Entry<T> {
    fn into_event(self) -> Event<T> {
        Event {
            time_s: self.key.time_s(),
            seq: self.key.seq,
            payload: self.payload,
        }
    }
}

/// [`Head::run`] of a lone head: no storage behind it.
const LONE: u32 = u32::MAX;

/// One heap entry: a pending event, carried inline, and the index of
/// the run storage holding the events that follow it ([`LONE`] when
/// none do). Ordered so the std max-heap pops the *smallest* key first:
/// earliest event wins, and events at bitwise-equal timestamps pop in
/// the order they were scheduled. The tie-break is what makes
/// simulation order a pure function of the schedule calls, independent
/// of how the events were split into runs.
#[derive(Debug)]
struct Head<T> {
    key: Key,
    run: u32,
    payload: T,
}

impl<T> Head<T> {
    fn new(entry: Entry<T>, run: u32) -> Self {
        Head {
            key: entry.key,
            run,
            payload: entry.payload,
        }
    }

    fn into_event(self) -> Event<T> {
        Entry {
            key: self.key,
            payload: self.payload,
        }
        .into_event()
    }
}

impl<T> PartialEq for Head<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Head<T> {}

impl<T> PartialOrd for Head<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Head<T> {
    /// Reversed, so the max-heap surfaces the minimum.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic discrete-event queue.
///
/// Events are scheduled at absolute simulated times and popped earliest
/// first; equal timestamps resolve in schedule order via a monotonic
/// sequence number. Every run's storage is ascending in `(time, seq)`
/// and no earlier than its head, so the earliest pending event is the
/// top of the heap or the front of the open run, however the events
/// were split into runs.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// One entry per lone event and per sealed run: its earliest
    /// pending event.
    heads: BinaryHeap<Head<T>>,
    /// Sealed run storage by index: the events after a head, ascending.
    /// Slots no head refers to are empty and listed in `free`.
    runs: Vec<VecDeque<Entry<T>>>,
    free: Vec<u32>,
    /// The run taking schedules, ascending: popped from directly until
    /// an earlier schedule finds it long and seals it into the heap.
    open: VecDeque<Entry<T>>,
    len: usize,
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
        EventQueue {
            heads: BinaryHeap::new(),
            runs: Vec::new(),
            free: Vec::new(),
            open: VecDeque::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `time_s`. Returns the
    /// event's sequence number (the tie-break key).
    ///
    /// An event not earlier than the open run's tail extends it (on a
    /// time tie its larger sequence number keeps the run ascending). An
    /// earlier one goes into the heap as a lone head while the open run
    /// is no longer than the heap is deep: storage for so short a run
    /// would cost a cold read per event, more than the level or so its
    /// events deepen the heap. Past that, the event seals the open run
    /// into the heap and starts a new one.
    ///
    /// # Panics
    /// Panics on a NaN time — an event "at NaN" has no place on any
    /// timeline and would poison the `(time, seq)` order.
    pub fn schedule(&mut self, time_s: f64, payload: T) -> u64 {
        assert!(!time_s.is_nan(), "cannot schedule an event at NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry {
            key: Key::new(time_s, seq),
            payload,
        };
        if self.open.back().is_some_and(|tail| tail.key > entry.key) {
            let levels = (usize::BITS - (self.heads.len() + 1).leading_zeros()) as usize;
            if self.open.len() <= levels {
                self.heads.push(Head::new(entry, LONE));
                return seq;
            }
            self.seal();
        }
        self.open.push_back(entry);
        seq
    }

    /// Move the open run into the heap: its front becomes a head, with
    /// the rest in a recycled storage slot behind it.
    fn seal(&mut self) {
        let entry = self.open.pop_front().expect("a long run has a front");
        let run = self.free.pop().unwrap_or_else(|| {
            assert!(self.runs.len() < LONE as usize, "run storage exhausted");
            self.runs.push(VecDeque::new());
            (self.runs.len() - 1) as u32
        });
        std::mem::swap(&mut self.runs[run as usize], &mut self.open);
        self.heads.push(Head::new(entry, run));
    }

    /// Whether the open run's front pops before the top of the heap.
    fn open_first(&self) -> bool {
        match (self.open.front(), self.heads.peek()) {
            (Some(o), Some(h)) => o.key < h.key,
            (open, _) => open.is_some(),
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time_s(&self) -> Option<f64> {
        let key = if self.open_first() {
            self.open.front().map(|e| e.key)
        } else {
            self.heads.peek().map(|h| h.key)
        };
        key.map(Key::time_s)
    }

    /// Pop the earliest pending event (ties in schedule order): the open
    /// run's front, or the top head, which its run's next event replaces
    /// in place; a lone head, or one whose storage has run dry, leaves
    /// the heap.
    pub fn pop(&mut self) -> Option<Event<T>> {
        if self.open_first() {
            self.len -= 1;
            let entry = self.open.pop_front().expect("open_first saw a front");
            return Some(entry.into_event());
        }
        let r = self.heads.peek()?.run;
        self.len -= 1;
        if r == LONE {
            return self.heads.pop().map(Head::into_event);
        }
        let mut head = self.heads.peek_mut().expect("peeked a head");
        let run = &mut self.runs[r as usize];
        let entry = run.pop_front().expect("a sealed run is non-empty");
        let run = if run.is_empty() {
            self.free.push(r);
            LONE
        } else {
            r
        };
        Some(std::mem::replace(&mut *head, Head::new(entry, run)).into_event())
    }

    /// Schedule `payload` at `time_s` and immediately pop the earliest
    /// pending event — exactly `schedule` followed by `pop`, fused.
    ///
    /// This is the heartbeat pattern of a tight event loop that predicts
    /// one completion at a time: when the queue is empty (or every
    /// pending event fires later) the new event round-trips without
    /// touching the queue at all, while still consuming a sequence
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
        if self.len > 0 && self.peek_time_s().is_some_and(|top| top <= time_s) {
            self.schedule(time_s, payload);
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
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled on this queue (the next sequence
    /// number to be handed out).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Drop all pending events (sequence numbers keep counting up). Run
    /// storage is kept for reuse.
    pub fn clear(&mut self) {
        for head in self.heads.drain() {
            if head.run != LONE {
                self.runs[head.run as usize].clear();
                self.free.push(head.run);
            }
        }
        self.open.clear();
        self.len = 0;
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
        // schedule order. Interleave ties with non-ties so the events
        // land in several runs.
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
        let mut q = EventQueue::new();
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

    /// A tiny deterministic xorshift for the seeded sweeps (the workspace
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

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
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

    /// Times that stress the order's corners: both zeros, both
    /// infinities, exact ties and neighbours one ulp apart.
    const SPECIAL_S: [f64; 8] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        1.0,
        1.0 + f64::EPSILON,
        -1.5,
    ];

    /// The queue under test beside its reference: every pending
    /// `(time bits, seq, payload)`, kept sorted *descending* by
    /// `f64::total_cmp` on time, then by `seq`, so the earliest event is
    /// the last element. Every operation is applied to both and the two
    /// are compared after it.
    struct Sweep {
        case: usize,
        q: EventQueue<u32>,
        oracle: Vec<(u64, u64, u32)>,
        next_payload: u32,
        /// The instant of the last pop.
        now: f64,
    }

    impl Sweep {
        fn new(case: usize) -> Self {
            Sweep {
                case,
                q: EventQueue::new(),
                oracle: Vec::new(),
                next_payload: 0,
                now: 0.0,
            }
        }

        fn payload(&mut self) -> u32 {
            self.next_payload += 1;
            self.next_payload
        }

        fn expect(&mut self, time_s: f64, seq: u64, payload: u32) {
            self.oracle.push((time_s.to_bits(), seq, payload));
            self.oracle.sort_by(|a, b| {
                f64::from_bits(b.0)
                    .total_cmp(&f64::from_bits(a.0))
                    .then(b.1.cmp(&a.1))
            });
        }

        fn check(&self, what: &str, got: Option<Event<u32>>, want: Option<(u64, u64, u32)>) {
            let case = self.case;
            let got = got.map(|ev| (ev.time_s.to_bits(), ev.seq, ev.payload));
            assert_eq!(got, want, "{what}, case {case}");
            assert_eq!(
                self.q.len(),
                self.oracle.len(),
                "len after {what}, case {case}"
            );
            assert_eq!(self.q.is_empty(), self.oracle.is_empty());
            assert_eq!(
                self.q.peek_time_s().map(f64::to_bits),
                self.oracle.last().map(|e| e.0),
                "peek_time_s after {what}, case {case}"
            );
        }

        fn schedule(&mut self, time_s: f64) {
            let payload = self.payload();
            let seq = self.q.schedule(time_s, payload);
            self.expect(time_s, seq, payload);
            self.check("schedule", None, None);
        }

        fn pop(&mut self) -> bool {
            let got = self.q.pop();
            if let Some(ev) = got {
                self.now = ev.time_s;
            }
            let want = self.oracle.pop();
            self.check("pop", got, want);
            got.is_some()
        }

        fn pulse(&mut self, time_s: f64) {
            let payload = self.payload();
            // The pulsed event takes the next sequence number, but the
            // event returned may be an earlier pending one.
            let seq = self.q.scheduled();
            let ev = self.q.pulse(time_s, payload);
            self.expect(time_s, seq, payload);
            let want = self.oracle.pop();
            self.check("pulse", Some(ev), want);
        }

        fn clear(&mut self) {
            self.q.clear();
            self.oracle.clear();
            self.check("clear", None, None);
        }
    }

    #[test]
    fn differential_sweep_against_a_sorted_oracle() {
        // Each case prefills one traffic shape, then mixes pops, retries
        // just after the last popped instant, random and special-valued
        // schedules, pulses on empty and non-empty queues, and (rarely)
        // a clear, comparing every popped `(time bits, seq, payload)`,
        // `len` and `peek_time_s` with the oracle after every step.
        let cases = if cfg!(debug_assertions) { 300 } else { 3000 };
        for case in 0..cases {
            let mut rng = XorShift(0xD1B5_4A32_D192_ED03 ^ (case as u64 + 1));
            let mut sw = Sweep::new(case);
            match case % 3 {
                // Stream-major ascending runs, the open-loop harnesses'
                // prefill; streams starting at 0 share instants exactly.
                0 => {
                    for s in 0..1 + rng.below(12) {
                        let mut t = if s % 4 == 3 { 0.0 } else { rng.unit() };
                        for _ in 0..rng.below(24) {
                            t += if rng.below(5) == 0 { 0.0 } else { rng.unit() };
                            sw.schedule(t);
                        }
                    }
                }
                // Random-order inserts over a coarse grid: exact ties.
                1 => {
                    for _ in 0..rng.below(64) {
                        sw.schedule(rng.below(8) as f64 * 0.5);
                    }
                }
                // The order's corner values in random order.
                _ => {
                    for _ in 0..rng.below(32) {
                        sw.schedule(SPECIAL_S[rng.below(SPECIAL_S.len())]);
                    }
                }
            }
            for _ in 0..rng.below(160) {
                match rng.below(16) {
                    0..=5 => {
                        sw.pop();
                    }
                    // A `Busy` retry just after the last pop, or exactly
                    // at it.
                    6..=8 => {
                        let dt = [0.0, 1e-9, rng.unit() * 1e-3][rng.below(3)];
                        sw.schedule(sw.now + dt);
                    }
                    9 | 10 => sw.schedule(rng.unit() * 16.0),
                    11 => sw.schedule(SPECIAL_S[rng.below(SPECIAL_S.len())]),
                    12 | 13 => {
                        // Half the pulses land on a drained queue.
                        if rng.below(2) == 0 {
                            while sw.pop() {}
                        }
                        let t = if rng.below(4) == 0 {
                            SPECIAL_S[rng.below(SPECIAL_S.len())]
                        } else {
                            sw.now + rng.unit()
                        };
                        sw.pulse(t);
                    }
                    14 => sw.schedule(sw.now + rng.unit() * 4.0),
                    _ => {
                        if rng.below(8) == 0 {
                            sw.clear();
                        }
                    }
                }
            }
            while sw.pop() {}
        }
    }

    #[test]
    fn keys_sort_like_total_cmp_and_round_trip() {
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let mut times: Vec<f64> = SPECIAL_S.to_vec();
        times.extend([f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, -5e-324]);
        times.extend([f64::MAX, f64::MIN]);
        times.extend(
            (0..2000)
                .map(|_| f64::from_bits(rng.next()))
                .filter(|t| !t.is_nan()),
        );
        for &a in &times {
            assert_eq!(Key::new(a, 0).time_s().to_bits(), a.to_bits(), "{a:e}");
            for &b in times.iter().step_by(7) {
                assert_eq!(
                    Key::new(a, 0).cmp(&Key::new(b, 0)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn a_periodic_task_beside_a_far_event_keeps_two_runs() {
        // The self-rescheduling heartbeat: every firing schedules the
        // next one period later, beside one event far in the future. The
        // heartbeat lives in the open run, which each pop empties, so
        // storage never grows past the far event's run and the
        // heartbeat's.
        let mut q = EventQueue::new();
        q.schedule(1e12, u32::MAX);
        q.schedule(0.0, 0);
        for i in 1..=1_000_000u32 {
            let ev = q.pop().expect("the heartbeat is pending");
            assert_eq!(ev.payload, i - 1);
            q.schedule(ev.time_s + 1e-3, i);
        }
        assert!(q.runs.len() <= 2, "{} runs allocated", q.runs.len());
        let capacity: usize = q.runs.iter().map(VecDeque::capacity).sum::<usize>()
            + q.open.capacity()
            + q.heads.capacity();
        assert!(capacity <= 16, "{capacity} slots of run storage");
        assert_eq!(q.len(), 2);
    }
}
