//! The round core's vector storage, refilled from round to round rather
//! than freed.

use crate::weights::WeightVector;
use std::sync::Arc;

/// Model-sized vectors a [`super::RoundCore`] draws its shares, totals,
/// average and received vectors from. Storage comes back two ways. A
/// share part comes back as soon as no block or message holds it any
/// more, so once the transport has sent it, the next draw of the round
/// reuses it. Everything else comes back at the reset that opens the next
/// round: the blocks this peer was sent, the totals it kept and its old
/// average. A restock keeps no more than one round draws and frees the
/// rest.
///
/// A kept vector still holds what it last held until a draw writes over
/// it; every draw overwrites the whole vector.
#[derive(Default)]
pub(super) struct RoundStore {
    /// Free vectors, all of the dimension of the last restock.
    spare: Vec<WeightVector>,
    /// The core's own reference to each share part it has handed out,
    /// kept until no block or message holds the part any more.
    lent: Vec<Arc<WeightVector>>,
}

impl RoundStore {
    /// A vector of dimension `dim` with unspecified contents: stored if
    /// there is one, else fresh.
    pub(super) fn take(&mut self, dim: usize) -> WeightVector {
        self.offer(dim).unwrap_or_else(|| WeightVector::zeros(dim))
    }

    /// A stored vector of dimension `dim` with unspecified contents, if
    /// there is one: a part lent earlier that nothing holds any more,
    /// else a spare.
    pub(super) fn offer(&mut self, dim: usize) -> Option<WeightVector> {
        let returned = self
            .lent
            .extract_if(.., |part| Arc::strong_count(part) == 1)
            .filter_map(Arc::into_inner);
        self.spare.extend(returned);
        if self.spare.last()?.dim() != dim {
            return None;
        }
        self.spare.pop()
    }

    /// The parts lent since the last restock and not yet back, in the
    /// order they were lent.
    #[cfg(test)]
    pub(super) fn lent(&self) -> &[Arc<WeightVector>] {
        &self.lent
    }

    /// `part`, made shareable, with the core's reference to it kept.
    pub(super) fn lend(&mut self, part: WeightVector) -> Arc<WeightVector> {
        let part = Arc::new(part);
        self.lent.push(Arc::clone(&part));
        part
    }

    /// Takes a finished round's vectors back: `owned` outright, `shared`
    /// and the lent parts where the core holds the last reference. Keeps
    /// at most `cap` vectors of dimension `dim` and frees everything else,
    /// storage of a previous dimension included.
    pub(super) fn restock(
        &mut self,
        dim: usize,
        cap: usize,
        owned: impl IntoIterator<Item = WeightVector>,
        shared: impl IntoIterator<Item = Arc<WeightVector>>,
    ) {
        self.spare.retain(|v| v.dim() == dim);
        // A part also held in this core's own block comes back on its
        // last reference, whichever of the two that is.
        let shared = shared.into_iter().chain(self.lent.drain(..));
        for v in owned.into_iter().chain(shared.filter_map(Arc::into_inner)) {
            if self.spare.len() == cap {
                break;
            }
            if v.dim() == dim {
                self.spare.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(dim: usize, x: f64) -> WeightVector {
        WeightVector::new(vec![x; dim])
    }

    #[test]
    fn a_lent_part_comes_back_once_nothing_else_holds_it() {
        let mut store = RoundStore::default();
        let sent = store.lend(filled(4, 1.0));
        let held = store.lend(filled(4, 2.0));
        // `sent` is still in flight: nothing to offer yet.
        assert_eq!(store.offer(4), None);
        drop(sent);
        assert_eq!(store.offer(4), Some(filled(4, 1.0)));
        // `held` sits in the core's own block: handed in alongside the
        // lent reference, exactly one of the two brings it back.
        store.restock(4, 8, None, [held]);
        assert_eq!(store.spare, vec![filled(4, 2.0)]);
        assert!(store.lent.is_empty());
    }

    #[test]
    fn a_part_still_held_elsewhere_is_left_alone() {
        let mut store = RoundStore::default();
        let elsewhere = store.lend(filled(4, 2.0));
        store.restock(4, 8, None, None);
        assert!(store.spare.is_empty());
        assert_eq!(*elsewhere, filled(4, 2.0));
    }

    #[test]
    fn restock_keeps_at_most_cap_of_the_current_dimension() {
        let mut store = RoundStore::default();
        store.restock(4, 2, [filled(4, 1.0), filled(3, 2.0)], None);
        assert_eq!(store.spare.len(), 1, "the wrong dimension is freed");
        assert_eq!(store.offer(3), None, "and never offered");
        store.restock(4, 2, [filled(4, 3.0), filled(4, 4.0)], None);
        assert_eq!(store.spare.len(), 2, "capped");
        // A model of a new dimension retires the old storage.
        store.restock(5, 2, None, None);
        assert!(store.spare.is_empty());
        assert_eq!(store.take(5), WeightVector::zeros(5));
    }
}
