//! Page replacement: the paper's clock, and nothing beside it.
//!
//! The core keeps one replacement policy, the classic two-sweep clock
//! over one ring of the resident pages ([`ClockRing::select_victim`];
//! the caller judges each candidate over its page arena and MMU, under
//! the state lock). Pull window sizing is not a policy: every cache
//! carries a stream table, see `streams.rs`.
//!
//! A doubly linked ring of the resident pages whose links live in a
//! `Vec` indexed by the page arena slot (`PageKey::index()`), so the
//! hand's walk and every membership update are O(1) and do no hashing.
//! The ring keeps its order: a page enters just behind the hand, and a
//! page leaves by unlinking, so between two looks from the hand every
//! page waits one full revolution, in which the hand looks at every
//! other page once (only `next_up`, below, moves a page, and only the
//! page it is given). A page whose reference the hand has just cleared
//! thus has the whole revolution to be used again.
//!
//! Pages can also be put just ahead of the hand (`next_up`), in a run
//! the hand meets first and in order: the one take-first mechanism of
//! replacement, fed by drop-behind (pages a stream has read and left)
//! and by laundering (pages a `pushOut` has just cleaned). A page moves
//! into that run; no other page moves.

use crate::keys::PageKey;

/// One arena slot's place in the ring.
#[derive(Clone, Copy, Default)]
struct Link {
    /// The page in the ring at this slot, if any.
    key: Option<PageKey>,
    prev: u32,
    next: u32,
    /// In the run `next_up` put ahead of the hand.
    up: bool,
}

/// A ring of resident-page candidates with a clock hand.
#[derive(Default)]
pub(crate) struct ClockRing {
    /// Indexed by `PageKey::index()`.
    links: Vec<Link>,
    len: usize,
    /// Slot of the *next* candidate to examine; `None` on an empty ring.
    hand: Option<u32>,
    /// Slot of the last page of the run ahead of the hand, which starts
    /// at the hand; `None` while the run is empty.
    run_tail: Option<u32>,
}

impl ClockRing {
    /// The slot of `key` if it is in the ring.
    fn slot(&self, key: PageKey) -> Option<u32> {
        let i = key.index();
        let link = self.links.get(i as usize)?;
        (link.key == Some(key)).then_some(i)
    }

    fn link(&mut self, i: u32) -> &mut Link {
        &mut self.links[i as usize]
    }

    /// Links the unlinked slot `i` in just before slot `at`.
    fn link_before(&mut self, i: u32, at: u32) {
        let prev = self.links[at as usize].prev;
        self.link(prev).next = i;
        self.link(at).prev = i;
        let link = self.link(i);
        (link.prev, link.next) = (prev, at);
    }

    /// Takes slot `i` out of the ring's order; the caller fixes the hand.
    fn unlink(&mut self, i: u32) {
        let Link { prev, next, .. } = self.links[i as usize];
        self.link(prev).next = next;
        self.link(next).prev = prev;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn contains(&self, key: PageKey) -> bool {
        self.slot(key).is_some()
    }

    /// Iterates the ring in the hand's order, from its next candidate.
    pub fn iter(&self) -> impl Iterator<Item = PageKey> + '_ {
        let mut at = self.hand;
        (0..self.len).map(move |_| {
            let link = &self.links[at.expect("a non-empty ring has a hand") as usize];
            at = Some(link.next);
            link.key.expect("a linked slot holds a page")
        })
    }

    /// Adds a page just behind the hand: the hand meets it last, after
    /// every page already in the ring. Idempotent.
    pub fn insert(&mut self, key: PageKey) {
        if self.contains(key) {
            return;
        }
        let i = key.index();
        if self.links.len() <= i as usize {
            self.links.resize(i as usize + 1, Link::default());
        }
        assert!(
            self.links[i as usize].key.is_none(),
            "a freed page's slot reused while it is still in the ring"
        );
        *self.link(i) = Link {
            key: Some(key),
            prev: i,
            next: i,
            up: false,
        };
        match self.hand {
            Some(hand) => self.link_before(i, hand),
            None => self.hand = Some(i),
        }
        self.len += 1;
    }

    /// Removes a page. The others keep their order; a hand pointing at
    /// it moves to its successor, and the run ahead of the hand closes
    /// up. Idempotent.
    pub fn remove(&mut self, key: PageKey) {
        let Some(i) = self.slot(key) else {
            return;
        };
        let Link { prev, next, .. } = self.links[i as usize];
        if self.run_tail == Some(i) {
            // The run's last page: the one before it ends the run, unless
            // it was the run's only page.
            self.run_tail = (self.hand != Some(i)).then_some(prev);
        }
        self.unlink(i);
        *self.link(i) = Link::default();
        self.len -= 1;
        if self.hand == Some(i) {
            self.hand = (self.len > 0).then_some(next);
        }
    }

    /// Puts a page just ahead of the hand, after the pages already put
    /// there: the hand meets them first, in the order they came, and
    /// passes nothing else on the way. Idempotent; a page not in the
    /// ring is ignored.
    pub fn next_up(&mut self, key: PageKey) {
        let Some(i) = self.slot(key) else {
            return;
        };
        if self.links[i as usize].up {
            return;
        }
        let hand = self.hand.expect("a non-empty ring has a hand");
        match self.run_tail {
            // The run starts at the hand: the page goes after its last.
            Some(tail) => {
                self.unlink(i);
                let after = self.links[tail as usize].next;
                self.link_before(i, after);
            }
            // An empty run: the page becomes the hand's next candidate.
            None if i != hand => {
                self.unlink(i);
                self.link_before(i, hand);
                self.hand = Some(i);
            }
            None => {}
        }
        self.link(i).up = true;
        self.run_tail = Some(i);
    }

    /// Advances the hand one step and returns the candidate it passed
    /// over, or `None` if the ring is empty.
    pub fn advance(&mut self) -> Option<PageKey> {
        let i = self.hand?;
        let link = self.link(i);
        link.up = false;
        let (key, next) = (link.key, link.next);
        if self.run_tail == Some(i) {
            self.run_tail = None;
        }
        self.hand = Some(next);
        key
    }

    /// Picks one victim: up to two full revolutions of the hand, each
    /// candidate judged by `take`, which gives a page it passes over
    /// for being referenced its second chance (clears the reference).
    /// Returns the victim, if any, and the full sweeps it took: `step /
    /// n` when the hand found one, 2 on an exhausted sweep, 0 on an
    /// empty ring.
    pub fn select_victim(
        &mut self,
        mut take: impl FnMut(PageKey) -> bool,
    ) -> (Option<PageKey>, u64) {
        let n = self.len;
        for step in 0..2 * n {
            let key = self.advance().expect("ring emptied mid-sweep");
            if take(key) {
                return (Some(key), (step / n) as u64);
            }
        }
        (None, if n == 0 { 0 } else { 2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;
    use std::collections::BTreeSet;

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

    /// A judge over a test's own sets: a pinned page is never taken, a
    /// referenced one loses its reference and is passed over.
    fn judge<'a>(
        pinned: &'a BTreeSet<u32>,
        referenced: &'a mut BTreeSet<u32>,
    ) -> impl FnMut(PageKey) -> bool + 'a {
        |key| !pinned.contains(&key.index()) && !referenced.remove(&key.index())
    }

    #[test]
    fn clock_two_sweep_semantics() {
        let mut r = ClockRing::default();
        let (mut pinned, mut referenced) = (BTreeSet::new(), BTreeSet::new());
        for i in 0..4 {
            r.insert(k(i));
            referenced.insert(i);
        }
        // Everything referenced: first sweep clears, second finds the
        // first candidate — one full sweep on the books.
        let (victim, sweeps) = r.select_victim(judge(&pinned, &mut referenced));
        assert!(victim.is_some());
        assert_eq!(sweeps, 1);
        assert!(referenced.is_empty(), "first sweep cleared ref bits");
        // Nothing referenced now: immediate victim, zero full sweeps.
        let (_, sweeps) = r.select_victim(judge(&pinned, &mut referenced));
        assert_eq!(sweeps, 0);
        // All pinned: exhausted sweep reports two revolutions.
        for i in 0..4 {
            pinned.insert(i);
        }
        let out = r.select_victim(judge(&pinned, &mut referenced));
        assert_eq!(out, (None, 2));
        // Empty ring: silent none.
        let out = ClockRing::default().select_victim(judge(&pinned, &mut referenced));
        assert_eq!(out, (None, 0));
    }

    /// `finish_clean` puts a page its push has just cleaned `next_up`,
    /// as drop-behind does a page its stream has read.
    #[test]
    fn a_laundered_page_is_the_hands_next_victim() {
        let mut r = ClockRing::default();
        let (pinned, mut referenced) = (BTreeSet::new(), BTreeSet::new());
        for i in 0..8 {
            r.insert(k(i));
        }
        let victim = |r: &mut ClockRing, referenced: &mut BTreeSet<u32>| {
            let (key, _) = r.select_victim(judge(&pinned, referenced));
            key.expect("a victim is there").index()
        };
        // Before the hand's own candidate, page 0.
        r.next_up(k(5));
        assert_eq!(victim(&mut r, &mut referenced), 5);
        // After the drop-behind pages already in the run.
        r.next_up(k(6)); // drop-behind
        r.next_up(k(3)); // cleaned
        assert_eq!(
            victim(&mut r, &mut referenced),
            6,
            "drop-behind comes first"
        );
        assert_eq!(victim(&mut r, &mut referenced), 3, "then the cleaned page");
        // A cleaned page referenced since has its bit cleared and is
        // passed over: the hand takes the candidate after it, its own
        // next page.
        r.next_up(k(7));
        referenced.insert(7);
        assert_eq!(victim(&mut r, &mut referenced), 0);
        assert!(!referenced.contains(&7), "its bit was cleared");
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

    /// The ring against a reference clock: a `VecDeque` in the hand's
    /// order (front: next candidate) whose first `up` pages are the run.
    /// Random inserts, removes, `next_up`s and advances must keep the
    /// exact sweep order, and between two looks at an undisturbed page
    /// the hand looks once at every other page that was live and
    /// undisturbed all along: one full revolution.
    #[test]
    fn the_ring_keeps_the_order_of_a_reference_clock() {
        const SLOTS: u32 = 24;
        let mut r = ClockRing::default();
        let mut want = std::collections::VecDeque::<u32>::new();
        let mut up = 0;
        // A freed slot comes back with a new generation, as in the arena.
        let mut generation = [1u32; SLOTS as usize];
        // Per slot: the step of its last insert, remove or move, and of
        // the hand's last look at it.
        let mut disturbed = [0usize; SLOTS as usize];
        let mut looked = [None::<usize>; SLOTS as usize];
        let mut looks = Vec::new();
        let mut x = 7u64;
        for step in 1..=50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = ((x >> 33) % u64::from(SLOTS)) as u32;
            let key = Id::from_raw_parts(slot, generation[slot as usize]);
            let at = want.iter().position(|&p| p == slot);
            match (x >> 20) % 8 {
                0 | 1 => {
                    r.insert(key);
                    if at.is_none() {
                        want.push_back(slot);
                        disturbed[slot as usize] = step;
                    }
                }
                2 => {
                    r.remove(key);
                    if let Some(at) = at {
                        want.remove(at);
                        up -= usize::from(at < up);
                        generation[slot as usize] += 1;
                        disturbed[slot as usize] = step;
                    }
                }
                3 => {
                    r.next_up(key);
                    if let Some(at) = at.filter(|&at| at >= up) {
                        want.remove(at);
                        want.insert(up, slot);
                        up += 1;
                        disturbed[slot as usize] = step;
                    }
                }
                _ => {
                    let got = r.advance().map(|p| p.index());
                    let front = want.pop_front();
                    assert_eq!(got, front, "step {step}: the hand's candidate");
                    want.extend(front);
                    up = up.saturating_sub(1);
                    // The revolution is checked on what the ring returned.
                    let Some(p) = got else { continue };
                    let since = looked[p as usize].replace(looks.len());
                    looks.push((step, p));
                    // Its last look, if it has stayed in place since.
                    let Some((since, from)) = since
                        .map(|t| (t, looks[t].0))
                        .filter(|&(_, from)| disturbed[p as usize] < from)
                    else {
                        continue;
                    };
                    let between = &looks[since + 1..looks.len() - 1];
                    for &q in want
                        .iter()
                        .filter(|&&q| q != p && disturbed[q as usize] < from)
                    {
                        let n = between.iter().filter(|&&(_, o)| o == q).count();
                        assert_eq!(n, 1, "step {step}: {q} seen {n} times in {p}'s revolution");
                    }
                }
            }
            assert_eq!(r.len(), want.len());
            assert!(
                r.iter().map(|p| p.index()).eq(want.iter().copied()),
                "step {step}: sweep order"
            );
            let g = generation[slot as usize];
            assert_eq!(
                r.contains(Id::from_raw_parts(slot, g)),
                want.contains(&slot)
            );
            assert!(
                !r.contains(Id::from_raw_parts(slot, g - 1)),
                "a freed page's key"
            );
        }
    }
}
