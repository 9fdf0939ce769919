//! Hashed timing wheel driving every deadline in the reactor.
//!
//! One wheel serves all hosted peers: actor round deadlines
//! ([`Transport::set_timer`](p2pfl_simnet::Transport::set_timer)), redial
//! backoffs, and fault-plan delayed-frame releases. A wheel keeps insert
//! and fire O(1) amortized regardless of how many peers share it, where a
//! binary heap would serialize 1000 peers' timers through one log-n
//! structure.
//!
//! Deadlines are nanoseconds on the hosting reactor's monotonic clock
//! (zeroed at reactor start). Entries hash into `SLOTS` slots of
//! `GRANULARITY_NS` each; an entry further than one rotation out simply
//! stays in its slot until the cursor passes it with the right tick, so
//! there is no cascading. Firing order within a tick is insertion order.
//!
//! Pure sans-IO state (no clocks of its own — the caller supplies `now`),
//! held to that by the `p2pfl-lint` purity gate.

/// Slot count; with 1ms granularity one rotation covers ~4s, longer
/// deadlines just survive extra cursor passes.
const SLOTS: usize = 4096;

/// Tick width: 1ms. Timers fire up to one tick late, which is within the
/// jitter of wall-clock scheduling anyway.
const GRANULARITY_NS: u64 = 1_000_000;

#[derive(Debug)]
struct Entry<T> {
    tick: u64,
    seq: u64,
    value: T,
}

/// A hashed timing wheel of `T`-valued deadlines.
#[derive(Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    /// The last tick the cursor fully processed.
    cursor_tick: u64,
    len: usize,
    seq: u64,
    /// Cached earliest pending tick (exact, recomputed lazily).
    soonest: Option<u64>,
}

fn tick_of(deadline_ns: u64) -> u64 {
    // Ceiling: a deadline lands in the first tick boundary at/after it,
    // so a timer never fires early.
    deadline_ns.div_ceil(GRANULARITY_NS)
}

impl<T> TimerWheel<T> {
    /// An empty wheel whose cursor starts at `now_ns`.
    pub fn new(now_ns: u64) -> TimerWheel<T> {
        let mut slots = Vec::with_capacity(SLOTS);
        for _ in 0..SLOTS {
            slots.push(Vec::new());
        }
        TimerWheel {
            slots,
            cursor_tick: now_ns / GRANULARITY_NS,
            len: 0,
            seq: 0,
            soonest: None,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` for `deadline_ns`. A deadline at or before the
    /// cursor fires on the next [`TimerWheel::advance`].
    pub fn insert(&mut self, deadline_ns: u64, value: T) {
        // Clamp into the future of the cursor so a stale deadline still
        // fires (next advance) instead of landing behind the cursor and
        // waiting a whole rotation.
        let tick = tick_of(deadline_ns).max(self.cursor_tick.saturating_add(1));
        let slot = (tick % SLOTS as u64) as usize;
        self.seq = self.seq.wrapping_add(1);
        if let Some(bucket) = self.slots.get_mut(slot) {
            bucket.push(Entry {
                tick,
                seq: self.seq,
                value,
            });
            self.len += 1;
            self.soonest = Some(match self.soonest {
                Some(s) => s.min(tick),
                None => tick,
            });
        }
    }

    /// Earliest pending deadline, in nanoseconds (tick-quantized).
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.soonest.map(|t| t.saturating_mul(GRANULARITY_NS))
    }

    /// Moves the cursor to `now_ns`, appending every fired value to
    /// `out` in (tick, insertion) order.
    pub fn advance(&mut self, now_ns: u64, out: &mut Vec<T>) {
        let now_tick = now_ns / GRANULARITY_NS;
        if now_tick <= self.cursor_tick || self.len == 0 {
            self.cursor_tick = self.cursor_tick.max(now_tick);
            return;
        }
        // Only ticks with pending entries matter: hop the cursor straight
        // to the soonest pending tick instead of sweeping empty slots
        // (a reactor idle for minutes would otherwise walk thousands).
        let mut fired: Vec<Entry<T>> = Vec::new();
        while let Some(soonest) = self.soonest {
            if soonest > now_tick {
                break;
            }
            let slot = (soonest % SLOTS as u64) as usize;
            if let Some(bucket) = self.slots.get_mut(slot) {
                let mut kept = Vec::new();
                for e in bucket.drain(..) {
                    if e.tick <= now_tick {
                        fired.push(e);
                    } else {
                        kept.push(e);
                    }
                }
                *bucket = kept;
            }
            self.cursor_tick = soonest;
            self.recompute_soonest(soonest);
        }
        self.cursor_tick = self.cursor_tick.max(now_tick);
        self.len = self.len.saturating_sub(fired.len());
        fired.sort_by_key(|e| (e.tick, e.seq));
        out.extend(fired.into_iter().map(|e| e.value));
    }

    /// Recomputes the cached soonest tick after draining `after_tick`.
    /// O(len) in the worst case, but runs only when entries actually
    /// fired — an idle wheel costs nothing.
    fn recompute_soonest(&mut self, after_tick: u64) {
        let mut soonest: Option<u64> = None;
        for bucket in &self.slots {
            for e in bucket {
                if e.tick > after_tick {
                    soonest = Some(match soonest {
                        Some(s) => s.min(e.tick),
                        None => e.tick,
                    });
                }
            }
        }
        self.soonest = soonest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut w = TimerWheel::new(0);
        w.insert(5 * MS, "b");
        w.insert(2 * MS, "a");
        w.insert(9 * MS, "c");
        let mut out = Vec::new();
        w.advance(MS, &mut out);
        assert!(out.is_empty(), "nothing due yet");
        w.advance(6 * MS, &mut out);
        assert_eq!(out, vec!["a", "b"]);
        out.clear();
        w.advance(20 * MS, &mut out);
        assert_eq!(out, vec!["c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_preserves_insertion_order() {
        let mut w = TimerWheel::new(0);
        w.insert(3 * MS, 1);
        w.insert(3 * MS, 2);
        w.insert(3 * MS, 3);
        let mut out = Vec::new();
        w.advance(10 * MS, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn beyond_one_rotation_waits_for_its_tick() {
        let mut w = TimerWheel::new(0);
        let near = 2 * MS;
        // Same slot as `near` (one full rotation later), plus slot 0.
        let far = near + (SLOTS as u64) * MS;
        w.insert(far, "far");
        w.insert(near, "near");
        let mut out = Vec::new();
        w.advance(near + MS, &mut out);
        assert_eq!(
            out,
            vec!["near"],
            "far entry must not fire a rotation early"
        );
        out.clear();
        assert_eq!(w.next_deadline_ns(), Some(far));
        w.advance(far + MS, &mut out);
        assert_eq!(out, vec!["far"]);
    }

    #[test]
    fn stale_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new(100 * MS);
        w.insert(3 * MS, "late"); // already in the past
        let mut out = Vec::new();
        w.advance(101 * MS, &mut out);
        assert_eq!(out, vec!["late"]);
    }

    #[test]
    fn next_deadline_tracks_insert_and_fire() {
        let mut w: TimerWheel<u32> = TimerWheel::new(0);
        assert_eq!(w.next_deadline_ns(), None);
        w.insert(8 * MS, 1);
        w.insert(4 * MS, 2);
        assert_eq!(w.next_deadline_ns(), Some(4 * MS));
        let mut out = Vec::new();
        w.advance(5 * MS, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(w.next_deadline_ns(), Some(8 * MS));
    }
}
