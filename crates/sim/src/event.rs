//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! A binary heap (`BinaryHeap<Reverse<_>>`) orders events by time; ties are
//! broken by insertion order (a monotonically increasing sequence number),
//! which makes simulation runs bit-reproducible.

use rr_util::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    last_popped: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
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
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        if time < self.last_popped {
            panic!("scheduling into the past: {time} < {}", self.last_popped);
        }
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.last_popped = e.time;
        Some((e.time, e.payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Empties the queue and rewinds its clock and FIFO tie-break sequence,
    /// keeping the heap's allocation. A reset queue behaves bit-identically
    /// to a freshly constructed one (the arena path relies on this).
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.last_popped = SimTime::ZERO;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
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
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.pop();
        q.push(SimTime::from_us(5), 2);
    }
}
