//! The reactor's one deadline queue.
//!
//! Every deadline of every hosted peer waits here: actor timers
//! ([`Transport::set_timer`](p2pfl_simnet::Transport::set_timer)), redial
//! backoffs, and fault-plan delayed frames. It is a binary heap ordered
//! by `(deadline_ns, seq)`, the same order the simulator's event queue
//! uses: earliest deadline first, insertion order among equal deadlines.
//!
//! Deadlines are nanoseconds on the hosting reactor's monotonic clock
//! (zeroed at reactor start). A deadline already in the past fires on the
//! next [`TimerQueue::pop_due`].
//!
//! Pure sans-IO state (no clocks of its own — the caller supplies `now`),
//! held to that by the `p2pfl-lint` purity gate.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

struct Entry<T> {
    deadline_ns: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.deadline_ns, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A min-heap of `T`-valued deadlines.
pub(crate) struct TimerQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> TimerQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> TimerQueue<T> {
        TimerQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `value` for `deadline_ns`.
    pub(crate) fn insert(&mut self, deadline_ns: u64, value: T) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            deadline_ns,
            seq: self.seq,
            value,
        }));
    }

    /// Earliest pending deadline, in nanoseconds.
    pub(crate) fn next_deadline_ns(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.deadline_ns)
    }

    /// Removes and returns the earliest value due at `now_ns`, if any.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<T> {
        if self.next_deadline_ns()? > now_ns {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn drain<T>(q: &mut TimerQueue<T>, now_ns: u64) -> Vec<T> {
        std::iter::from_fn(|| q.pop_due(now_ns)).collect()
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut q = TimerQueue::new();
        q.insert(5 * MS, "b");
        q.insert(2 * MS, "a");
        q.insert(9 * MS, "c");
        assert!(drain(&mut q, MS).is_empty(), "nothing due yet");
        assert_eq!(drain(&mut q, 6 * MS), vec!["a", "b"]);
        assert_eq!(drain(&mut q, 9 * MS - 1), Vec::<&str>::new());
        assert_eq!(drain(&mut q, 9 * MS), vec!["c"]);
        assert_eq!(q.next_deadline_ns(), None);
    }

    #[test]
    fn equal_deadlines_fire_in_insertion_order() {
        let mut q = TimerQueue::new();
        for v in 1..=5 {
            q.insert(3 * MS, v);
        }
        assert_eq!(drain(&mut q, 10 * MS), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stale_deadline_fires_on_next_pop() {
        let mut q = TimerQueue::new();
        q.insert(3 * MS, "late"); // already in the past
        assert_eq!(drain(&mut q, 100 * MS), vec!["late"]);
    }

    #[test]
    fn next_deadline_tracks_insert_and_fire() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        assert_eq!(q.next_deadline_ns(), None);
        q.insert(8 * MS, 1);
        q.insert(4 * MS + 7, 2);
        assert_eq!(q.next_deadline_ns(), Some(4 * MS + 7), "not quantized");
        assert_eq!(drain(&mut q, 5 * MS), vec![2]);
        assert_eq!(q.next_deadline_ns(), Some(8 * MS));
    }
}
