//! Wall-clock [`FaultPlan`] interposition for the reactor.
//!
//! The [`Reactor`](crate::reactor::Reactor) interposes the *same*
//! [`LinkFaults`] interpreter the simulator consults between actor sends
//! and its sockets, so one declarative plan exercises both transports
//! identically. This module holds the delayed-frame heap that holds back
//! copies inside a delay window.
//!
//! Time axis: the reactor hands the interpreter *peer-relative* time —
//! nanoseconds elapsed since the hosted peer was spawned — which is
//! exactly how the simulator anchors a plan at virtual time zero.

use p2pfl_simnet::{FaultPlan, LinkFaults, LinkVerdict, NodeId, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An encoded frame held back by a fault-plan delay; ordered by due time
/// (then insertion order) so a min-heap releases the earliest first.
#[derive(PartialEq, Eq)]
pub(crate) struct DelayedFrame {
    pub(crate) due: SimTime,
    pub(crate) seq: u64,
    pub(crate) to: NodeId,
    pub(crate) bytes: Vec<u8>,
}

impl Ord for DelayedFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for DelayedFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Fault interposition between actor sends and a real socket layer: the
/// *same* [`LinkFaults`] interpreter the simulator consults, driven by
/// peer-relative wall-clock time. Dropped sends are counted by the host;
/// delayed copies queue in a heap the host drains as due times pass.
pub(crate) struct FaultLayer {
    faults: LinkFaults,
    delayed: BinaryHeap<Reverse<DelayedFrame>>,
    seq: u64,
}

impl FaultLayer {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        FaultLayer {
            faults: LinkFaults::new(plan),
            delayed: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The interpreter's verdict for one send at peer-relative `now`.
    pub(crate) fn on_send(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> LinkVerdict {
        self.faults.on_send(now, src, dst)
    }

    /// Holds back one encoded frame until `due`.
    pub(crate) fn push_delayed(&mut self, due: SimTime, to: NodeId, bytes: Vec<u8>) {
        self.seq += 1;
        self.delayed.push(Reverse(DelayedFrame {
            due,
            seq: self.seq,
            to,
            bytes,
        }));
    }

    /// Releases the earliest held-back frame whose due time has passed.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(NodeId, Vec<u8>)> {
        let due = self.delayed.peek().map(|Reverse(d)| d.due)?;
        if due > now {
            return None;
        }
        self.delayed.pop().map(|Reverse(d)| (d.to, d.bytes))
    }
}
