//! The clock-replacement candidate ring.
//!
//! The seed kept resident pages in a `Vec<PageKey>` that accumulated
//! stale keys and relied on periodic O(n) compaction inside
//! `select_victim`. This ring keeps every entry live instead: pages are
//! inserted at creation and removed eagerly when freed, so the sweep
//! never skips dead keys and membership updates are O(1) (hash-indexed
//! swap-remove with hand fix-up to keep the sweep order stable).
//!
//! Pages can also be put just ahead of the hand (`next_up`), in a run
//! the hand meets first and in order: the one take-first mechanism of
//! replacement, fed by drop-behind (pages a stream has read and left)
//! and by laundering (pages a `pushOut` has just cleaned). Keeping that
//! run contiguous costs a removal or insertion at most one step per
//! page of it.

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
    /// The entries `next_up` put ahead of the hand and the hand has not
    /// reached: positions `hand .. hand + up`, modulo the length.
    up: usize,
}

impl ClockRing {
    /// Swaps two positions, keeping `pos` in step.
    fn swap(&mut self, a: usize, b: usize) {
        self.ring.swap(a, b);
        self.pos.insert(self.ring[a], a);
        self.pos.insert(self.ring[b], b);
    }

    /// Re-records the positions of `ring[..to]` after a rotation.
    fn reindex(&mut self, to: usize) {
        for (i, &key) in self.ring[..to].iter().enumerate() {
            self.pos.insert(key, i);
        }
    }

    /// Where position `i` comes in the hand's order (0: next).
    fn turn(&self, i: usize) -> usize {
        (i + self.ring.len() - self.hand) % self.ring.len()
    }

    /// How many pages of the run ahead of the hand wrap past the end
    /// of `ring` to its start.
    fn wrapped(&self) -> usize {
        (self.hand + self.up).saturating_sub(self.ring.len())
    }

    pub fn len(&self) -> usize {
        self.ring.len()
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
        let (n, wrapped) = (self.ring.len(), self.wrapped());
        self.pos.insert(key, n);
        self.ring.push(key);
        // The new last slot lies inside a run that wraps: the run's
        // pages at the start move up one slot, the first of them to the
        // new last, and the page takes the slot after them.
        if wrapped > 0 {
            self.ring[..wrapped].rotate_left(1);
            self.swap(wrapped - 1, n);
            self.reindex(wrapped);
        }
    }

    /// Removes a page via swap-remove, fixing up the hand so the sweep
    /// neither skips nor re-examines unrelated entries, and keeping the
    /// run ahead of it in place and in order.
    pub fn remove(&mut self, key: PageKey) {
        let Some(&found) = self.pos.get(&key) else {
            return;
        };
        let (n, mut i) = (self.ring.len(), found);
        let at = self.turn(i);
        if at < self.up {
            // Inside the run: the pages after it close up, in order.
            for o in at + 1..self.up {
                self.swap((self.hand + o - 1) % n, (self.hand + o) % n);
            }
            self.up -= 1;
            i = (self.hand + self.up) % n;
        }
        let last = n - 1;
        if self.up > 0 && self.hand + self.up >= n {
            // The last slot is the run's: the emptied slot moves past the
            // run's pages at the start, then under them to slot 0, where
            // the run goes on after the last slot is gone.
            let wrapped = self.wrapped();
            self.swap(i, wrapped);
            self.ring[..=wrapped].rotate_right(1);
            self.reindex(wrapped + 1);
            i = 0;
        }
        // The former last element moves into slot i. If the hand pointed
        // at its old slot, it follows it to its new home; a hand pointing
        // at the removed slot stays (the moved element becomes the next
        // candidate).
        self.swap(i, last);
        if self.hand == last {
            self.hand = i;
        }
        self.pos.remove(&key);
        self.ring.pop();
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
    }

    /// Puts a page just ahead of the hand, after the pages already put
    /// there: the hand meets them first, in the order they came, and
    /// passes nothing else on the way. The page whose slot it takes
    /// moves to the one it left. Idempotent; a page not in the ring is
    /// ignored.
    pub fn next_up(&mut self, key: PageKey) {
        let Some(&i) = self.pos.get(&key) else {
            return;
        };
        if self.turn(i) >= self.up {
            self.swap(i, (self.hand + self.up) % self.ring.len());
            self.up += 1;
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
        self.up = self.up.saturating_sub(1);
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

    /// The next `count` candidates, by index.
    fn next(r: &mut ClockRing, count: usize) -> Vec<u32> {
        (0..count).map(|_| r.advance().unwrap().index()).collect()
    }

    #[test]
    fn pages_put_next_up_come_first_in_the_order_they_were_put() {
        let mut r = ClockRing::default();
        for i in 0..8 {
            r.insert(k(i));
        }
        assert_eq!(next(&mut r, 2), [0, 1]);
        for i in [6, 0, 4] {
            r.next_up(k(i));
        }
        // Idempotent: a page already in the run keeps its turn, and one
        // not in the ring is ignored.
        r.next_up(k(0));
        r.next_up(k(6));
        r.next_up(k(99));
        assert_eq!(r.len(), 8);
        assert_eq!(next(&mut r, 3), [6, 0, 4]);
        // The hand passed nothing else on the way: the rest of its
        // revolution is every other page, once.
        let mut rest = next(&mut r, 5);
        rest.sort_unstable();
        assert_eq!(rest, [1, 2, 3, 5, 7]);
    }

    #[test]
    fn a_page_removed_from_the_run_leaves_the_rest_in_order() {
        let mut r = ClockRing::default();
        for i in 0..8 {
            r.insert(k(i));
        }
        // The hand at slot 6: a run of four wraps past the end.
        next(&mut r, 6);
        for i in [1, 2, 3, 5] {
            r.next_up(k(i));
        }
        r.remove(k(2));
        // A page inserted while the run wraps lands behind it.
        r.insert(k(8));
        assert_eq!(next(&mut r, 3), [1, 3, 5]);
        let mut rest = next(&mut r, 5);
        rest.sort_unstable();
        assert_eq!(rest, [0, 4, 6, 7, 8]);
    }

    #[test]
    fn the_run_survives_any_mix_of_operations() {
        let mut r = ClockRing::default();
        let mut run = std::collections::VecDeque::new();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 24) as u32;
            match (x >> 20) % 4 {
                0 => r.insert(k(key)),
                1 => {
                    r.remove(k(key));
                    run.retain(|&p| p != key);
                }
                2 => {
                    if r.contains(k(key)) && !run.contains(&key) {
                        run.push_back(key);
                    }
                    r.next_up(k(key));
                }
                _ => {
                    let got = r.advance().map(|p| p.index());
                    if let Some(want) = run.pop_front() {
                        assert_eq!(got, Some(want));
                    }
                }
            }
            let n = r.ring.len();
            assert_eq!(r.pos.len(), n);
            for (i, p) in r.ring.iter().enumerate() {
                assert_eq!(r.pos[p], i);
            }
            assert!(n == 0 || r.hand < n);
            assert_eq!(r.up, run.len());
            for (o, &p) in run.iter().enumerate() {
                assert_eq!(r.ring[(r.hand + o) % n].index(), p, "run out of place");
            }
        }
    }
}
