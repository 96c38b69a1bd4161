//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Pending events sit in a `Vec` sorted by descending key, so the earliest
//! event is the last element and `pop` is `Vec::pop`. The key packs the time
//! into the high 64 bits and a monotonically increasing insertion sequence
//! into the low 64, so ties are broken FIFO, which makes simulation runs
//! bit-reproducible. Lazy admission keeps the queue short: the next arrival
//! plus a few events per die and channel, 5.7 to 12.4 pending on average
//! over the `perfbench` workloads. A new event is due after 2.5 to 4.2 of
//! them on average, so `push` scans the keys from the earliest end, moves
//! each event it passes up one slot and writes the new one once, into the
//! slot the last move freed. Payloads are `Copy`, so a move is a plain
//! copy. Swapping the new event past each one instead reloads the entry it
//! has just stored on every step, and that load stalls: it reads 16 bytes
//! that narrower stores wrote, which the CPU cannot forward from its store
//! buffer. `push`, `push_after` and `pop` are always inlined, so the
//! engine's handlers store an event built in registers straight into the
//! `Vec` rather than passing it through an out-of-line call. At these
//! sizes this beats a binary search plus `Vec::insert`'s `memmove`, and
//! the sorted `Vec` beat a binary heap and a timing wheel, both measured
//! and deleted.
//!
//! [`EventQueue::push_after`] schedules an event whose handler would do
//! nothing but push another event, without the event: it reserves the key
//! the trigger would take and makes the push when the queue pops past it,
//! so the pushed event takes the same place among ties. The deferred pushes
//! sit in a `VecDeque` in ascending trigger order: a new trigger is nearly
//! always the latest, so it is appended, and the earliest leaves from the
//! front.

use std::collections::VecDeque;

use rr_util::time::SimTime;

/// A deterministic min-queue of `(time, payload)` events.
///
/// # Example
///
/// ```
/// use rr_sim::event::EventQueue;
/// use rr_util::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(5), "b");
/// q.push(SimTime::from_us(1), "a");
/// q.push(SimTime::from_us(5), "c"); // same time as "b": FIFO order
/// assert_eq!(q.pop(), Some((SimTime::from_us(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `(time << 64 | seq, payload)`, sorted by descending key.
    pending: Vec<(u128, E)>,
    /// [`EventQueue::push_after`]'s pushes not made yet: `(trigger key,
    /// time, payload)`, sorted by ascending trigger key.
    deferred: VecDeque<(u128, SimTime, E)>,
    seq: u64,
    last_popped: SimTime,
}

#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_ns((key >> 64) as u64)
}

/// Panics on a push into the past. Cold and out of line, so that each
/// inlined push carries only the branch and a call.
#[cold]
#[inline(never)]
fn into_the_past(what: std::fmt::Arguments) -> ! {
    panic!("scheduling into the past: {what}");
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            deferred: VecDeque::new(),
            seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — scheduling
    /// into the past is always a simulator bug. The check is unconditional
    /// (present in release builds).
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, payload: E) {
        if time < self.last_popped {
            into_the_past(format_args!("{time} < {}", self.last_popped));
        }
        let key = self.next_key(time);
        self.insert(key, payload);
    }

    /// The sort key of an event at `time`, time first and then insertion
    /// order: it takes the next FIFO sequence number.
    #[inline(always)]
    fn next_key(&mut self, time: SimTime) -> u128 {
        let key = (time.as_ns() as u128) << 64 | self.seq as u128;
        self.seq += 1;
        key
    }

    /// Inserts `(key, payload)` into `pending`, scanning from the earliest
    /// end: each entry of a smaller key moves up one slot and the new entry
    /// is written once, into the slot the last one moved out of. A fresh
    /// key is distinct from every pending one, since its sequence is new.
    #[inline(always)]
    fn insert(&mut self, key: u128, payload: E) {
        let earliest = match self.pending.last() {
            Some(&earliest) if earliest.0 < key => earliest,
            _ => return self.pending.push((key, payload)),
        };
        self.pending.push(earliest);
        let slots = self.pending.as_mut_slice();
        let mut at = slots.len() - 2;
        while at > 0 && slots[at - 1].0 < key {
            slots[at] = slots[at - 1];
            at -= 1;
        }
        slots[at] = (key, payload);
    }

    /// Schedules `payload` at `time` exactly as an event pushed now at
    /// `trigger`, whose handler pushes `payload` at `time` and does nothing
    /// else, would: `payload` takes its FIFO sequence number when the queue
    /// pops past the trigger's key. The trigger is not an event, so `pop`
    /// never returns it; [`EventQueue::len`] and [`EventQueue::peek_time`]
    /// count it as one until then.
    ///
    /// # Panics
    ///
    /// Panics if `trigger` is earlier than the last popped event or `time`
    /// is earlier than `trigger`.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_sim::event::EventQueue;
    /// use rr_util::time::SimTime;
    ///
    /// let us = SimTime::from_us;
    /// let mut q = EventQueue::new();
    /// q.push_after(us(1), us(5), "deferred");
    /// q.push(us(2), "a");
    /// // Pushed after the trigger at 1 µs, but before the trigger pops, so
    /// // it precedes "deferred" among the events at 5 µs.
    /// q.push(us(5), "b");
    /// assert_eq!(q.pop(), Some((us(2), "a")));
    /// q.push(us(5), "c"); // after the trigger popped: follows "deferred"
    /// assert_eq!(q.pop(), Some((us(5), "b")));
    /// assert_eq!(q.pop(), Some((us(5), "deferred")));
    /// assert_eq!(q.pop(), Some((us(5), "c")));
    /// assert_eq!(q.pop(), None);
    /// ```
    #[inline(always)]
    pub fn push_after(&mut self, trigger: SimTime, time: SimTime, payload: E) {
        if trigger < self.last_popped || time < trigger {
            into_the_past(format_args!(
                "{time} after {trigger}, last popped {}",
                self.last_popped
            ));
        }
        let key = self.next_key(trigger);
        // A new trigger is nearly always the latest deferred one.
        if self.deferred.back().is_none_or(|&(k, ..)| k < key) {
            self.deferred.push_back((key, time, payload));
        } else {
            let at = self.deferred.partition_point(|&(k, ..)| k < key);
            self.deferred.insert(at, (key, time, payload));
        }
    }

    /// Removes and returns the earliest event.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(&(trigger, ..)) = self.deferred.front() {
            if self.pending.last().is_none_or(|&(k, _)| k > trigger) {
                self.make_deferred_pushes();
            }
        }
        let (key, payload) = self.pending.pop()?;
        let time = time_of(key);
        self.last_popped = time;
        Some((time, payload))
    }

    /// Makes each deferred push whose trigger precedes every pending event,
    /// in trigger order, as the trigger's handler would have.
    #[inline(never)]
    fn make_deferred_pushes(&mut self) {
        while let Some(&(trigger, time, payload)) = self.deferred.front() {
            if self.pending.last().is_some_and(|&(k, _)| k < trigger) {
                return;
            }
            self.deferred.pop_front();
            self.last_popped = time_of(trigger);
            self.push(time, payload);
        }
    }

    /// The time of the earliest pending event or deferred push's trigger.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = self.pending.last().map(|&(k, _)| k);
        let trigger = self.deferred.front().map(|&(k, ..)| k);
        next.into_iter().chain(trigger).min().map(time_of)
    }

    /// Empties the queue, deferred pushes included, and rewinds its clock
    /// and FIFO tie-break sequence, keeping the buffers' allocations. A reset
    /// queue behaves bit-identically to a freshly constructed one (the arena
    /// path relies on this).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.deferred.clear();
        self.seq = 0;
        self.last_popped = SimTime::ZERO;
    }

    /// Number of pending events, a deferred push counting as one.
    pub fn len(&self) -> usize {
        self.pending.len() + self.deferred.len()
    }

    /// Whether no events or deferred pushes are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.deferred.is_empty()
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.push(SimTime::from_us(5), 2);
        q.push(SimTime::from_us(10), 3);
        q.push(SimTime::from_us(7), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_us(3), 0);
        q.push(SimTime::from_us(1), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(1)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3)));
    }

    #[test]
    fn same_time_as_last_popped_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(1), 1);
        q.pop();
        q.push(SimTime::from_us(1), 2); // zero-latency follow-up event
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 2)));
    }

    #[test]
    fn reset_rewinds_clock_and_sequence() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        // Scheduling before the pre-reset watermark is legal again, and
        // ties break FIFO from a fresh sequence.
        q.push(SimTime::from_us(1), 2);
        q.push(SimTime::from_us(1), 3);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 3)));
    }

    #[test]
    fn extreme_times_and_long_sequences_keep_time_then_fifo_order() {
        let mut q = EventQueue::new();
        // Sequence numbers past 32 bits must not wrap into the time half
        // of the key or collide with small ones.
        q.seq = u32::MAX as u64 - 1;
        let late = SimTime::from_ns(u64::MAX);
        let late_minus_one = SimTime::from_ns(u64::MAX - 1);
        let early = SimTime::from_ns(u64::MAX - 3);
        q.push(late, 'a');
        q.push(late_minus_one, 'b');
        q.push(late, 'c'); // seq = u32::MAX + 1
        q.push(early, 'd');
        q.push(late_minus_one, 'e');
        q.push(SimTime::ZERO, 'f');
        assert!(q.seq > u32::MAX as u64 + 1);
        let order: Vec<(SimTime, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::ZERO, 'f'),
                (early, 'd'),
                (late_minus_one, 'b'),
                (late_minus_one, 'e'),
                (late, 'a'),
                (late, 'c'),
            ]
        );
        // A full 64-bit sequence still ties FIFO behind the time half.
        q.reset();
        q.seq = u64::MAX - 3;
        q.push(late, 'x');
        q.push(late, 'y');
        q.push(early, 'z');
        assert_eq!(q.peek_time(), Some(early));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['z', 'x', 'y']);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn push_after_before_its_trigger_panics() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.push_after(SimTime::from_us(5), SimTime::from_us(4), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.pop();
        q.push(SimTime::from_us(5), 2);
    }
}
