//! Lightweight communication ledger for the synchronous protocol paths.
//!
//! The synchronous reference implementations (used for the accuracy
//! sweeps, where simulating every byte would be pointless) count their
//! logical transfers here so the closed-form cost formulas can be
//! cross-checked. The message-driven engines run over `p2pfl-simnet`; the
//! session folds their simulator metrics in by message kind.

use std::collections::BTreeMap;

/// Counts logical peer-to-peer transfers by protocol phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferLog {
    by_phase: BTreeMap<&'static str, (u64, u64)>,
}

impl TransferLog {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transfer of `bytes` bytes in `phase`.
    pub fn record(&mut self, phase: &'static str, bytes: u64) {
        self.record_many(phase, 1, bytes);
    }

    /// Records `msgs` transfers of `bytes` bytes in all in `phase`.
    pub fn record_many(&mut self, phase: &'static str, msgs: u64, bytes: u64) {
        let e = self.by_phase.entry(phase).or_insert((0, 0));
        e.0 += msgs;
        e.1 += bytes;
    }

    /// Total messages across phases.
    pub fn messages(&self) -> u64 {
        self.by_phase.values().map(|(m, _)| m).sum()
    }

    /// Total bytes across phases.
    pub fn bytes(&self) -> u64 {
        self.by_phase.values().map(|(_, b)| b).sum()
    }

    /// `(messages, bytes)` recorded for one phase.
    pub fn phase(&self, phase: &str) -> (u64, u64) {
        self.by_phase.get(phase).copied().unwrap_or((0, 0))
    }

    /// All phases in sorted order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, (u64, u64))> + '_ {
        self.by_phase.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another log into this one.
    pub fn absorb(&mut self, other: &TransferLog) {
        for (k, &(m, b)) in &other.by_phase {
            self.record_many(k, m, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut l = TransferLog::new();
        l.record("share", 10);
        l.record("share", 10);
        l.record("subtotal", 5);
        assert_eq!(l.messages(), 3);
        assert_eq!(l.bytes(), 25);
        assert_eq!(l.phase("share"), (2, 20));
        assert_eq!(l.phase("nothing"), (0, 0));
    }

    #[test]
    fn absorb_merges() {
        let mut a = TransferLog::new();
        a.record("x", 1);
        let mut b = TransferLog::new();
        b.record("x", 2);
        b.record("y", 3);
        a.absorb(&b);
        assert_eq!(a.phase("x"), (2, 3));
        assert_eq!(a.phase("y"), (1, 3));
    }
}
