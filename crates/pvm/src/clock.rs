//! The clock-replacement candidate ring.
//!
//! The seed kept resident pages in a `Vec<PageKey>` that accumulated
//! stale keys and relied on periodic O(n) compaction inside
//! `select_victim`. This ring keeps every entry live instead: pages are
//! inserted at creation and removed eagerly when freed, so the sweep
//! never skips dead keys and membership updates are O(1) (hash-indexed
//! swap-remove with hand fix-up to keep the sweep order stable).

use crate::keys::PageKey;
use chorus_hal::FxHashMap;

/// A ring of resident-page candidates with a stable clock hand.
#[derive(Default)]
pub(crate) struct ClockRing {
    ring: Vec<PageKey>,
    /// Position of each key in `ring` (for O(1) removal).
    pos: FxHashMap<PageKey, usize>,
    /// Index of the *next* candidate to examine.
    hand: usize,
}

impl ClockRing {
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn contains(&self, key: PageKey) -> bool {
        self.pos.contains_key(&key)
    }

    /// Iterates the ring in arbitrary (insertion-perturbed) order.
    pub fn iter(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.ring.iter().copied()
    }

    /// Adds a page to the ring. Idempotent.
    pub fn insert(&mut self, key: PageKey) {
        if self.pos.contains_key(&key) {
            return;
        }
        self.pos.insert(key, self.ring.len());
        self.ring.push(key);
    }

    /// Removes a page in O(1) via swap-remove, fixing up the hand so the
    /// sweep neither skips nor re-examines unrelated entries.
    pub fn remove(&mut self, key: PageKey) {
        let Some(i) = self.pos.remove(&key) else {
            return;
        };
        let last = self.ring.len() - 1;
        self.ring.swap_remove(i);
        if i < last {
            // The former last element moved into slot i.
            self.pos.insert(self.ring[i], i);
            // If the hand pointed at the moved element's old slot, follow
            // it to its new home; a hand pointing at the removed slot
            // stays (the moved element becomes the next candidate).
            if self.hand == last {
                self.hand = i;
            }
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
    }

    /// Advances the hand one step and returns the candidate it passed
    /// over, or `None` if the ring is empty.
    pub fn advance(&mut self) -> Option<PageKey> {
        if self.ring.is_empty() {
            return None;
        }
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        let key = self.ring[self.hand];
        self.hand = (self.hand + 1) % self.ring.len();
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn k(i: u32) -> PageKey {
        Id::from_raw_parts(i, 1)
    }

    #[test]
    fn insert_remove_membership() {
        let mut r = ClockRing::default();
        for i in 0..8 {
            r.insert(k(i));
        }
        r.insert(k(3)); // idempotent
        assert_eq!(r.len(), 8);
        r.remove(k(0));
        r.remove(k(7));
        r.remove(k(7)); // idempotent
        assert_eq!(r.len(), 6);
        assert!(!r.contains(k(0)));
        assert!(r.contains(k(3)));
    }

    #[test]
    fn sweep_visits_every_live_entry() {
        let mut r = ClockRing::default();
        for i in 0..5 {
            r.insert(k(i));
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5 {
            seen.insert(r.advance().unwrap().index());
        }
        assert_eq!(seen.len(), 5, "one full sweep touches each entry once");
    }

    #[test]
    fn removal_during_sweep_keeps_hand_sane() {
        let mut r = ClockRing::default();
        for i in 0..6 {
            r.insert(k(i));
        }
        // Advance partway, then remove entries before, at, and after the
        // hand; the sweep must still terminate over live entries only.
        r.advance();
        r.advance();
        r.remove(k(0));
        r.remove(k(5));
        r.remove(k(2));
        let mut remaining = std::collections::BTreeSet::new();
        for _ in 0..r.len() {
            remaining.insert(r.advance().unwrap().index());
        }
        assert!(remaining.iter().all(|&i| [1, 3, 4].contains(&i)));
        assert!(r.advance().is_some(), "ring keeps cycling");
        r.remove(k(1));
        r.remove(k(3));
        r.remove(k(4));
        assert!(r.advance().is_none(), "empty ring yields no candidates");
    }
}
