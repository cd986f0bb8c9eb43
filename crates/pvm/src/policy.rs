//! Page replacement: the clock, and the external advisor beside it.
//!
//! The core keeps one replacement policy, the classic two-sweep clock
//! (with one addition: pages a `pushOut` has just cleaned go first).
//! Any other policy belongs outside, behind the upcall:
//! [`ReplacementKind::External`] ships the clock's candidates to the
//! segment manager as `victimAdvice` batches and evicts what it
//! approves. (Pull-window sizing is not a policy: every cache carries a
//! stream table, see `descriptors.rs`.)
//!
//! `Replacement` lives *inside* `PvmState` and is only touched under
//! the state lock; mutable page state is reached through the
//! `PolicyView` the caller passes in, which borrows the page arena and
//! the MMU (to read and take the hardware referenced bits) from the
//! same locked state.

use crate::clock::ClockRing;
use crate::descriptors::{CacheDesc, ContextDesc, PageDesc};
use crate::keys::PageKey;
use crate::stats::{Counter, StatsRegistry};
use chorus_hal::{Arena, CostModel, Mmu};
use std::collections::VecDeque;

/// Who has the last word on an eviction victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// The classic two-sweep clock over one resident ring (default).
    Clock,
    /// The clock proposes, the segment manager disposes: candidate
    /// batches go out through the upcall protocol (they ride the
    /// completion engine) and only approved pages are evicted; the
    /// clock alone decides while a batch is in flight.
    External,
}

impl ReplacementKind {
    /// Stable lower-case label (bench JSON, pvmtop).
    pub fn label(self) -> &'static str {
        match self {
            ReplacementKind::Clock => "clock",
            ReplacementKind::External => "external",
        }
    }

    /// Every kind, in the order benches race them.
    pub const ALL: [ReplacementKind; 2] = [ReplacementKind::Clock, ReplacementKind::External];
}

/// Candidate batch size of a [`ReplacementKind::External`] advice
/// upcall.
const EXTERNAL_BATCH: usize = 8;

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
    /// The segment manager's advice is wanted on this candidate batch
    /// before anything is evicted.
    Advice(Vec<PageKey>),
    /// Nothing evictable.
    None,
}

/// The result of one victim-selection call.
#[derive(Debug)]
pub(crate) struct Selection {
    pub pick: Pick,
    /// Full-sweep count for `ClockFullSweeps` accounting: `step / n`
    /// when the hand found a victim, 2 on an exhausted sweep, 0 when
    /// the hand did not move or its candidates went out for advice. The
    /// caller adds this to the counter and emits a `ClockSweep` trace
    /// event when positive.
    pub full_sweeps: u64,
    /// The victim is the clock's own choice because advice is still in
    /// flight (counted as `PolicyExternalFallbacks`).
    pub external_fallback: bool,
}

/// The classic two-sweep clock, with one addition: pages a `pushOut`
/// has just cleaned are taken before the hand moves on.
#[derive(Default)]
struct Clock {
    ring: ClockRing,
    /// Pages cleaned since the last sweep, oldest first. The hand has
    /// usually passed them, and without this list the allocation that
    /// paid for the push would go on to a second dirty victim.
    cleaned: VecDeque<PageKey>,
}

impl Clock {
    /// Hands `found` up to `want` victims: the cleaned pages that
    /// nobody has touched since, then up to two full revolutions,
    /// clearing reference bits on the first. Returns the full sweeps
    /// made (see [`Selection::full_sweeps`]).
    fn sweep(
        &mut self,
        want: usize,
        view: &mut dyn PolicyView,
        mut found: impl FnMut(PageKey),
    ) -> u64 {
        let mut left = want;
        while let Some(key) = self.cleaned.pop_front() {
            if self.ring.contains(key)
                && !view.pinned_or_cleaning(key)
                && !view.referenced(key)
                && !view.dirty_unpushable(key)
            {
                found(key);
                left -= 1;
                if left == 0 {
                    return 0;
                }
            }
        }
        if self.ring.is_empty() {
            return 0;
        }
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
            found(key);
            left -= 1;
            if left == 0 {
                return (step / n) as u64;
            }
        }
        2
    }
}

/// [`ReplacementKind::External`]'s side of the advice protocol.
#[derive(Default)]
struct Advisor {
    /// Approved victims not yet taken, in the order they came back.
    approved: VecDeque<PageKey>,
    /// A candidate batch is out and has not been answered.
    inflight: bool,
}

/// The resident set and the policy that picks victims from it. Every
/// tracked key is a live page: pages enter at creation and leave
/// eagerly when freed.
pub(crate) struct Replacement {
    clock: Clock,
    /// `Some` under [`ReplacementKind::External`].
    advisor: Option<Advisor>,
}

impl Replacement {
    pub fn new(kind: ReplacementKind) -> Replacement {
        Replacement {
            clock: Clock::default(),
            advisor: (kind == ReplacementKind::External).then(Advisor::default),
        }
    }

    /// A page became resident.
    pub fn insert(&mut self, key: PageKey) {
        self.clock.ring.insert(key);
    }

    /// A resident page is going away (eviction, invalidate, destroy).
    pub fn remove(&mut self, key: PageKey) {
        self.clock.ring.remove(key);
    }

    /// A laundering push finished for the page (it is clean now).
    pub fn cleaned(&mut self, key: PageKey) {
        // Under the advisor the clock does not hear of a laundered
        // page. Telling it was measured and is no win
        // (`ablation_policies`, external rows: `writeback` 23 834.5 ->
        // 23 825.0 ms, `pressure` 201 -> 222 pulls and 4 877.5 ->
        // 5 247.2 ms; EXPERIMENTS.md "Policy engine").
        if self.advisor.is_some() {
            return;
        }
        // An explicit sync of a large cache cleans more pages than any
        // sweep will ask for; the list need not outgrow the ring.
        if self.clock.cleaned.len() < self.clock.ring.len() {
            self.clock.cleaned.push_back(key);
        }
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.clock.ring.len()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: PageKey) -> bool {
        self.clock.ring.contains(key)
    }

    /// The tracked keys (emergency eviction, invariant checks).
    pub fn keys(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.clock.ring.iter()
    }

    /// Selects one victim, or asks for advice, or finds nothing.
    pub fn select_victim(&mut self, view: &mut dyn PolicyView) -> Selection {
        let mut victim = None;
        let mut external_fallback = false;
        let full_sweeps = match &mut self.advisor {
            None => self.clock.sweep(1, view, |k| victim = Some(k)),
            Some(advisor) => {
                // 1. Approved victims that are still evictable go first.
                victim = core::iter::from_fn(|| advisor.approved.pop_front()).find(|&key| {
                    self.clock.ring.contains(key)
                        && !view.pinned_or_cleaning(key)
                        && !view.dirty_unpushable(key)
                });
                if victim.is_some() {
                    0
                } else if !advisor.inflight {
                    // 2. No approvals on hand: request a fresh batch.
                    let mut batch = Vec::new();
                    let sweeps = self.clock.sweep(EXTERNAL_BATCH, view, |k| batch.push(k));
                    if !batch.is_empty() {
                        advisor.inflight = true;
                        return Selection {
                            pick: Pick::Advice(batch),
                            full_sweeps: 0,
                            external_fallback: false,
                        };
                    }
                    sweeps
                } else {
                    // 3. Advice in flight: the clock decides, so
                    // allocation never stalls on the advisor.
                    let sweeps = self.clock.sweep(1, view, |k| victim = Some(k));
                    external_fallback = victim.is_some();
                    sweeps
                }
            }
        };
        Selection {
            pick: victim.map_or(Pick::None, Pick::Victim),
            full_sweeps,
            external_fallback,
        }
    }

    /// Delivers the approved subset of a previously requested advice
    /// batch (empty slice: the request failed or was cancelled, so clear
    /// the in-flight flag and let selection re-request).
    pub fn approve_victims(&mut self, pages: &[PageKey]) {
        if let Some(advisor) = &mut self.advisor {
            advisor.inflight = false;
            advisor.approved.extend(pages.iter().copied());
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
        let mut c = Replacement::new(ReplacementKind::Clock);
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
        let mut empty = Replacement::new(ReplacementKind::Clock);
        let out = empty.select_victim(&mut view);
        assert_eq!(out.pick, Pick::None);
        assert_eq!(out.full_sweeps, 0);
    }

    #[test]
    fn external_requests_advice_then_drains_approvals() {
        let mut e = Replacement::new(ReplacementKind::External);
        let mut view = TestView::default();
        for i in 0..12 {
            e.insert(k(i));
        }
        // First call: no approvals, not in flight → advice request.
        let Pick::Advice(cands) = e.select_victim(&mut view).pick else {
            panic!("requests an advice batch");
        };
        assert_eq!(cands.len(), EXTERNAL_BATCH, "batch size respected");
        // In flight: falls back to the inner clock.
        let out = e.select_victim(&mut view);
        assert!(matches!(out.pick, Pick::Victim(_)));
        assert!(out.external_fallback);
        // Approval delivery: approved victims drain first.
        e.approve_victims(&cands);
        let out = e.select_victim(&mut view);
        assert_eq!(out.pick, Pick::Victim(cands[0]));
        assert!(!out.external_fallback);
    }
}
