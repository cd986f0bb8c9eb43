//! Page replacement: the paper's clock, and nothing beside it.
//!
//! The core keeps one replacement policy, the classic two-sweep clock
//! over one resident ring. Pages that should go before any the hand
//! would have to clear — what a stream has read and left (drop-behind),
//! what a laundering `pushOut` has just cleaned — are put in the run
//! just ahead of the hand (`ClockRing::next_up`), in the order they
//! came, and the hand treats them like every other candidate. (Pull
//! window sizing is not a policy: every cache carries a stream table,
//! see `descriptors.rs`.)
//!
//! `Clock` lives *inside* `PvmState` and is only touched under the
//! state lock; mutable page state is reached through the `PolicyView`
//! the caller passes in, which borrows the page arena and the MMU (to
//! read and take the hardware referenced bits) from the same locked
//! state.

use crate::clock::ClockRing;
use crate::descriptors::{CacheDesc, ContextDesc, PageDesc};
use crate::keys::PageKey;
use crate::stats::{Counter, StatsRegistry};
use chorus_hal::{Arena, CostModel, Mmu};

/// Read/write access to the per-page state victim selection consults.
/// Implemented over the page arena by the caller; all methods expect
/// live keys.
pub(crate) trait PolicyView {
    /// Pinned (`lock_count > 0`) or mid-cleaning: never a victim.
    fn pinned_or_cleaning(&self, key: PageKey) -> bool;
    /// Used since its reference was last cleared: mapped or consumed by
    /// the PVM, or accessed through any of its mappings (the hardware
    /// referenced bits).
    fn referenced(&self, key: PageKey) -> bool;
    /// Clears the reference (the clock sweep's first pass): the page
    /// gets a second chance, and must be used again to get a third.
    fn clear_referenced(&mut self, key: PageKey);
    /// Dirty page of a quarantined cache: cannot be cleaned, so not a
    /// victim (clean pages of quarantined caches still are).
    fn dirty_unpushable(&self, key: PageKey) -> bool;
}

/// What one victim-selection round decided.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pick {
    /// A page to clean or evict right now.
    Victim(PageKey),
    /// Nothing evictable.
    None,
}

/// The result of one victim-selection call.
#[derive(Debug)]
pub(crate) struct Selection {
    pub pick: Pick,
    /// Full-sweep count for `ClockFullSweeps` accounting: `step / n`
    /// when the hand found a victim, 2 on an exhausted sweep, 0 on an
    /// empty ring. The caller adds this to the counter and emits a
    /// `ClockSweep` trace event when positive.
    pub full_sweeps: u64,
}

/// The resident set and the classic two-sweep clock that picks victims
/// from it. Every tracked key is a live page: pages enter at creation
/// and leave eagerly when freed.
#[derive(Default)]
pub(crate) struct Clock {
    ring: ClockRing,
}

impl Clock {
    /// A page became resident.
    pub fn insert(&mut self, key: PageKey) {
        self.ring.insert(key);
    }

    /// A resident page is going away (eviction, invalidate, destroy).
    pub fn remove(&mut self, key: PageKey) {
        self.ring.remove(key);
    }

    /// A page its stream has read and left, or a laundering push has
    /// just cleaned: the hand's next candidate, after those already put
    /// there (see `ClockRing::next_up`).
    pub fn next_up(&mut self, key: PageKey) {
        self.ring.next_up(key);
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: PageKey) -> bool {
        self.ring.contains(key)
    }

    /// The tracked keys (emergency eviction, invariant checks).
    pub fn keys(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.ring.iter()
    }

    /// Selects one victim, or finds nothing: up to two full revolutions
    /// of the hand, clearing reference bits on the first.
    pub fn select_victim(&mut self, view: &mut dyn PolicyView) -> Selection {
        let n = self.ring.len();
        for step in 0..(2 * n) {
            let key = self.ring.advance().expect("ring emptied mid-sweep");
            if view.pinned_or_cleaning(key) {
                continue;
            }
            if view.referenced(key) {
                view.clear_referenced(key);
                continue;
            }
            if view.dirty_unpushable(key) {
                continue;
            }
            return Selection {
                pick: Pick::Victim(key),
                full_sweeps: (step / n) as u64,
            };
        }
        Selection {
            pick: Pick::None,
            full_sweeps: if n == 0 { 0 } else { 2 },
        }
    }
}

/// The [`PolicyView`] over the live page arena, built by the caller
/// under the state lock. Lookups expect live keys: a freed page leaves
/// the ring eagerly (`remove`).
pub(crate) struct StateView<'a> {
    pub pages: &'a mut Arena<PageDesc>,
    pub caches: &'a Arena<CacheDesc>,
    /// Resolve a reverse mapping's context to its MMU context.
    pub contexts: &'a Arena<ContextDesc>,
    /// Where the hardware referenced bits live.
    pub mmu: &'a mut dyn Mmu,
    pub model: &'a CostModel,
    pub stats: &'a StatsRegistry,
}

impl PolicyView for StateView<'_> {
    fn pinned_or_cleaning(&self, key: PageKey) -> bool {
        let p = self.pages.get(key).expect("dead key in policy");
        p.lock_count > 0 || p.cleaning
    }

    fn referenced(&self, key: PageKey) -> bool {
        let p = self.pages.get(key).expect("dead key in policy");
        p.referenced(self.contexts, &*self.mmu)
    }

    fn clear_referenced(&mut self, key: PageKey) {
        let p = self.pages.get_mut(key).expect("dead key in policy");
        p.take_reference(self.contexts, &mut *self.mmu, self.model);
        self.stats.bump(Counter::RefSecondChances);
    }

    fn dirty_unpushable(&self, key: PageKey) -> bool {
        let p = self.pages.get(key).expect("dead key in policy");
        p.dirty
            && self
                .caches
                .get(p.cache)
                .map(|c| c.poisoned)
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn k(i: u32) -> PageKey {
        Id::from_raw_parts(i, 1)
    }

    /// A free-standing view for policy unit tests.
    #[derive(Default)]
    struct TestView {
        referenced: std::collections::BTreeSet<u32>,
        pinned: std::collections::BTreeSet<u32>,
    }

    impl PolicyView for TestView {
        fn pinned_or_cleaning(&self, key: PageKey) -> bool {
            self.pinned.contains(&key.index())
        }
        fn referenced(&self, key: PageKey) -> bool {
            self.referenced.contains(&key.index())
        }
        fn clear_referenced(&mut self, key: PageKey) {
            self.referenced.remove(&key.index());
        }
        fn dirty_unpushable(&self, _key: PageKey) -> bool {
            false
        }
    }

    #[test]
    fn clock_two_sweep_semantics() {
        let mut c = Clock::default();
        let mut view = TestView::default();
        for i in 0..4 {
            c.insert(k(i));
            view.referenced.insert(i);
        }
        // Everything referenced: first sweep clears, second finds the
        // first candidate — one full sweep on the books.
        let out = c.select_victim(&mut view);
        assert!(matches!(out.pick, Pick::Victim(_)));
        assert_eq!(out.full_sweeps, 1);
        assert!(view.referenced.is_empty(), "first sweep cleared ref bits");
        // Nothing referenced now: immediate victim, zero full sweeps.
        let out = c.select_victim(&mut view);
        assert_eq!(out.full_sweeps, 0);
        // All pinned: exhausted sweep reports two revolutions.
        for i in 0..4 {
            view.pinned.insert(i);
        }
        let out = c.select_victim(&mut view);
        assert_eq!(out.pick, Pick::None);
        assert_eq!(out.full_sweeps, 2);
        // Empty ring: silent none.
        let out = Clock::default().select_victim(&mut view);
        assert_eq!(out.pick, Pick::None);
        assert_eq!(out.full_sweeps, 0);
    }

    /// `finish_clean` puts a page its push has just cleaned `next_up`,
    /// as drop-behind does a page its stream has read.
    #[test]
    fn a_laundered_page_is_the_hands_next_victim() {
        let mut c = Clock::default();
        let mut view = TestView::default();
        for i in 0..8 {
            c.insert(k(i));
        }
        fn victim(c: &mut Clock, view: &mut TestView) -> u32 {
            match c.select_victim(view).pick {
                Pick::Victim(key) => key.index(),
                Pick::None => panic!("a victim is there"),
            }
        }
        // Before the hand's own candidate, page 0.
        c.next_up(k(5));
        assert_eq!(victim(&mut c, &mut view), 5);
        // After the drop-behind pages already in the run.
        c.next_up(k(6)); // drop-behind
        c.next_up(k(3)); // cleaned
        assert_eq!(victim(&mut c, &mut view), 6, "drop-behind comes first");
        assert_eq!(victim(&mut c, &mut view), 3, "then the cleaned page");
        // A cleaned page referenced since has its bit cleared and is
        // passed over: the hand takes the candidate after it, its own
        // next page.
        c.next_up(k(7));
        view.referenced.insert(7);
        assert_eq!(victim(&mut c, &mut view), 0);
        assert!(!view.referenced.contains(&7), "its bit was cleared");
    }
}
