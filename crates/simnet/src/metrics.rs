//! Communication-cost accounting.
//!
//! The reproduced paper's headline result is a communication-cost reduction
//! (Figs. 13–14), so the simulator maintains a precise ledger: every message
//! handed to the network is counted once, by directed link and by message
//! kind. Messages dropped later (crashed destination, partition) still count
//! as transmitted — the sender spent the bandwidth — but are also tallied
//! separately as drops.

use crate::node::NodeId;
use std::collections::HashMap;

/// A `(message count, byte count)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Number of messages.
    pub msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

impl Counter {
    fn add(&mut self, bytes: u64) {
        self.msgs += 1;
        self.bytes += bytes;
    }
}

/// The network-wide communication ledger.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    total: Counter,
    dropped: Counter,
    by_link: HashMap<(NodeId, NodeId), Counter>,
    by_kind: HashMap<&'static str, Counter>,
}

impl Metrics {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message of `bytes` bytes sent on `src -> dst`.
    pub fn record_send(&mut self, src: NodeId, dst: NodeId, kind: &'static str, bytes: u64) {
        self.total.add(bytes);
        self.by_link.entry((src, dst)).or_default().add(bytes);
        self.by_kind.entry(kind).or_default().add(bytes);
    }

    /// Records that a previously sent message was dropped before delivery.
    pub fn record_drop(&mut self, bytes: u64) {
        self.dropped.add(bytes);
    }

    /// Grand totals over all links.
    pub fn total(&self) -> Counter {
        self.total
    }

    /// Totals for messages that were transmitted but never delivered.
    pub fn dropped(&self) -> Counter {
        self.dropped
    }

    /// Ledger entry for one directed link.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Counter {
        self.by_link.get(&(src, dst)).copied().unwrap_or_default()
    }

    /// Ledger entry for one message kind.
    pub fn kind(&self, kind: &str) -> Counter {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// All kinds observed so far, sorted by label for stable output.
    pub fn kinds(&self) -> Vec<(&'static str, Counter)> {
        let mut v: Vec<_> = self.by_kind.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Total bytes sent by `src` to anyone.
    pub fn sent_by(&self, src: NodeId) -> Counter {
        let mut c = Counter::default();
        for ((s, _), v) in &self.by_link {
            if *s == src {
                c.msgs += v.msgs;
                c.bytes += v.bytes;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_breakdowns_agree() {
        let mut m = Metrics::new();
        m.record_send(NodeId(0), NodeId(1), "a", 100);
        m.record_send(NodeId(0), NodeId(2), "a", 50);
        m.record_send(NodeId(1), NodeId(0), "b", 25);
        assert_eq!(m.total().msgs, 3);
        assert_eq!(m.total().bytes, 175);
        assert_eq!(m.link(NodeId(0), NodeId(1)).bytes, 100);
        assert_eq!(
            m.kind("a"),
            Counter {
                msgs: 2,
                bytes: 150
            }
        );
        assert_eq!(
            m.sent_by(NodeId(0)),
            Counter {
                msgs: 2,
                bytes: 150
            }
        );
        let byte_sum: u64 = m.kinds().iter().map(|(_, c)| c.bytes).sum();
        assert_eq!(byte_sum, m.total().bytes);
    }

    #[test]
    fn drops_are_separate() {
        let mut m = Metrics::new();
        m.record_send(NodeId(0), NodeId(1), "a", 10);
        m.record_drop(10);
        assert_eq!(m.total().bytes, 10, "drop does not undo the send");
        assert_eq!(m.dropped().bytes, 10);
    }
}
