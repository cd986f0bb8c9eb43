//! Structural invariant checking and history-tree dumps.
//!
//! The checker validates every cross-structure invariant of Figure 2 and
//! §4.2 after mutating operations (when enabled); the dumps drive the
//! `figure3` bench binary and the worked examples.

use crate::descriptors::{CowSource, Slot};
use crate::engine::Parked;
use crate::keys::pub_cache;
use crate::pvm::Pvm;
use crate::state::PvmState;
use chorus_gmi::{CacheId, SegmentId};
use core::fmt;

impl PvmState {
    pub(crate) fn check_invariants_if_enabled(&self) {
        if self.config.check_invariants {
            self.check_invariants();
        }
    }

    /// Validates all structural invariants; panics on violation.
    pub(crate) fn check_invariants(&self) {
        self.check_global_map();
        self.check_caches();
        self.check_pages();
        self.check_regions();
        self.check_frames();
        self.check_clock_ring();
        // The write-behind queue holds at most one IPC message of
        // distinct keys. A key may be stale (page freed, cleaned, pinned
        // or quarantined since it was set aside): dropped when popped.
        let queue = &self.write_behind;
        assert!(queue.len() as u64 <= crate::config::IPC_MESSAGE_PAGES);
        let twice = |k| queue.iter().filter(|&o| o == k).count() > 1;
        assert!(!queue.iter().any(twice), "a key queued twice: {queue:?}");
    }

    fn check_global_map(&self) {
        for ((cache, off), slot) in self.gmap.slots() {
            let c = self
                .caches
                .get(cache)
                .unwrap_or_else(|| panic!("global slot for dead cache {cache:?}"));
            assert!(
                c.entries.contains(&off),
                "slot ({cache:?},{off:#x}) missing from entry index"
            );
            match slot {
                Slot::Present(p) => {
                    let page = self.pages.get(p).expect("Present slot with dead page");
                    assert_eq!(page.cache, cache, "page back pointer mismatch");
                    assert_eq!(page.offset, off, "page offset mismatch");
                }
                // A stub nothing will ever replace is a hang.
                Slot::Sync => assert!(
                    self.engine.parked.contains_key(&(cache, off)),
                    "sync stub ({cache:?},{off:#x}) with no page in flight"
                ),
                Slot::Cow(CowSource::Page(p)) => {
                    let src = self.pages.get(p).expect("Cow stub points at dead page");
                    assert!(
                        src.stubs.contains(&(cache, off)),
                        "stub ({cache:?},{off:#x}) not threaded on source page"
                    );
                }
                Slot::Cow(CowSource::Loc(c2, o2)) => {
                    assert!(
                        self.gmap.loc_stub_registered(c2, o2, (cache, off)),
                        "loc stub ({cache:?},{off:#x}) not registered at ({c2:?},{o2:#x})"
                    );
                }
                Slot::Cow(CowSource::Zero) => {}
            }
        }
        for (cache, c) in self.caches.iter() {
            for &off in &c.entries {
                assert!(
                    self.gmap.get(cache, off).is_some(),
                    "entry index ({cache:?},{off:#x}) without global slot"
                );
            }
        }
        // The O(1) liveness count must agree with a full scan of the
        // index, cache by cache.
        let mut scanned: chorus_hal::FxHashMap<_, usize> = Default::default();
        for ((c, o), list) in self.gmap.loc_stubs() {
            assert!(!list.is_empty(), "empty loc-stub list left in the index");
            *scanned.entry(c).or_insert(0) += list.len();
            for &(dc, doff) in list {
                assert_eq!(
                    self.gmap.get(dc, doff),
                    Some(Slot::Cow(CowSource::Loc(c, o))),
                    "stale loc-stub registration"
                );
            }
        }
        assert_eq!(
            self.gmap.loc_stub_counts(),
            &scanned,
            "per-cache loc-stub counts != full scan of the stub index"
        );
        let indexed: usize = self.caches.iter().map(|(_, c)| c.entries.len()).sum();
        assert_eq!(
            self.gmap.len(),
            indexed,
            "global map size != sum of cache entry indexes"
        );
    }

    /// Policy/pages bijection: every resident page is tracked by the
    /// replacement policy engine and every tracked key is a live page.
    fn check_clock_ring(&self) {
        assert_eq!(
            self.policy.len(),
            self.pages.len(),
            "policy tracked size != live pages"
        );
        for k in self.policy.keys() {
            assert!(self.pages.contains(k), "dead page key in policy engine");
        }
        for (k, _) in self.pages.iter() {
            assert!(
                self.policy.contains(k),
                "live page {k:?} missing from policy engine"
            );
        }
    }

    fn check_caches(&self) {
        for (key, c) in self.caches.iter() {
            // Fragments sorted and non-overlapping.
            for w in c.parents.windows(2) {
                assert!(
                    w[0].child_end() <= w[1].child_off,
                    "{key:?}: overlapping or unsorted parent fragments"
                );
            }
            for f in &c.parents {
                assert!(f.size > 0, "{key:?}: zero-size fragment");
                let p = self
                    .caches
                    .get(f.parent)
                    .unwrap_or_else(|| panic!("{key:?}: fragment to dead parent {:?}", f.parent));
                let refs = p.children.iter().filter(|&&ch| ch == key).count();
                let frags = c.parents.iter().filter(|g| g.parent == f.parent).count();
                assert_eq!(
                    refs, frags,
                    "{key:?}: child-list count mismatch with parent {:?}",
                    f.parent
                );
            }
            if let Some(h) = c.history {
                let hist = self
                    .caches
                    .get(h)
                    .unwrap_or_else(|| panic!("{key:?}: dead history object {h:?}"));
                assert!(
                    hist.parents.iter().any(|f| f.parent == key),
                    "{key:?}: history {h:?} has no fragment from it"
                );
            }
            // Offset-level termination: the cache graph may be cyclic at
            // cache granularity (copying data back into an ancestor is
            // legal), but every *resolution walk* must terminate because
            // overwrite re-pointing removes in-range back edges. Probe
            // each fragment at its boundaries.
            for f in &c.parents {
                for probe in [f.child_off, f.child_end().saturating_sub(1)] {
                    let mut x = key;
                    let mut o = probe;
                    let bound = self.caches.len() * 4 + 4;
                    let mut steps = 0;
                    loop {
                        steps += 1;
                        assert!(
                            steps <= bound,
                            "{key:?}@{probe:#x}: non-terminating resolution walk"
                        );
                        let Some(cd) = self.caches.get(x) else { break };
                        // A present or owned slot terminates the walk.
                        if cd.owns(o) || cd.entries.contains(&o) {
                            break;
                        }
                        match cd.parent_at(o) {
                            Some(g) => {
                                o = g.to_parent(o);
                                x = g.parent;
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    }

    fn check_pages(&self) {
        for (key, p) in self.pages.iter() {
            // Indexed in the global map, or parked behind its stub.
            let at = (p.cache, p.offset);
            match self.engine.parked.get(&at) {
                Some(&Parked::Filled { page, .. }) if page == key => {
                    assert!(p.lock_count > 0, "parked page {key:?} not pinned")
                }
                _ => assert_eq!(
                    self.gmap.get(p.cache, p.offset),
                    Some(Slot::Present(key)),
                    "page {key:?} not indexed in the global map"
                ),
            }
            assert_eq!(
                self.frame_owner.get(&p.frame.0),
                Some(&key),
                "frame owner mismatch"
            );
            for &(dc, doff) in &p.stubs {
                assert_eq!(
                    self.gmap.get(dc, doff),
                    Some(Slot::Cow(CowSource::Page(key))),
                    "threaded stub not pointing back at page {key:?}"
                );
            }
            for m in &p.mappings {
                let ctx = self.contexts.get(m.ctx).expect("mapping into dead context");
                assert_eq!(
                    self.mmu.query(ctx.mmu_ctx, m.vpn).map(|(f, _)| f),
                    Some(p.frame),
                    "MMU entry mismatch for mapping of page {key:?}"
                );
            }
            if self.caches.get(p.cache).map(|c| c.owns(p.offset)) == Some(false) {
                panic!("page {key:?} resident but not owned by its cache");
            }
        }
        // A page held for a faulter is pinned where the pull expects it.
        for (&(cache, off), held) in &self.demand_pulls {
            if let Some(p) = held.as_ref().ok().and_then(|&k| self.pages.get(k?)) {
                assert!(
                    p.lock_count > 0,
                    "demand page ({cache:?},{off:#x}) held without a pin"
                );
            }
        }
    }

    fn check_regions(&self) {
        for (ck, c) in self.contexts.iter() {
            let mut last_end = 0u64;
            for &r in &c.regions {
                let rd = self.regions.get(r).expect("context lists dead region");
                assert_eq!(rd.ctx, ck, "region context back pointer");
                assert!(
                    rd.addr.0 >= last_end,
                    "{ck:?}: regions unsorted or overlapping"
                );
                last_end = rd.end().0;
            }
        }
        for (rk, r) in self.regions.iter() {
            assert!(
                self.caches.contains(r.cache),
                "region {rk:?} maps dead cache"
            );
            let ctx = self.contexts.get(r.ctx).expect("region in dead context");
            assert!(
                ctx.regions.contains(&rk),
                "region {rk:?} missing from its context list"
            );
        }
        for (ck, c) in self.caches.iter() {
            let mapped = self.regions.iter().filter(|(_, r)| r.cache == ck).count() as u32;
            assert_eq!(
                c.mapped_regions, mapped,
                "{ck:?}: mapped_regions count drift"
            );
        }
    }

    fn check_frames(&self) {
        // Every allocated frame backs a page.
        assert_eq!(
            self.phys.stats().in_use as usize,
            self.pages.len(),
            "allocated frames != pages"
        );
        assert_eq!(
            self.frame_owner.len(),
            self.pages.len(),
            "frame_owner index drift"
        );
        for (&f, &p) in &self.frame_owner {
            assert!(
                self.phys.is_allocated(chorus_hal::FrameNo(f)),
                "frame_owner lists unallocated frame {f}"
            );
            assert!(self.pages.contains(p), "frame_owner lists dead page");
        }
        for &(cache, off) in self.engine.parked.keys() {
            // A page awaiting arrival hides behind its stub.
            assert!(
                self.is_sync_stub(cache, off),
                "parked page ({cache:?},{off:#x}) without its stub"
            );
        }
    }
}

/// The state of one page slot in a dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotDump {
    /// A resident page: (writable, dirty).
    Page {
        /// May be modified in place.
        writable: bool,
        /// Modified relative to the segment.
        dirty: bool,
    },
    /// A synchronization stub.
    Sync,
    /// A per-page copy-on-write stub.
    CowStub,
}

/// Dump of one cache for inspection and rendering.
#[derive(Clone, Debug)]
pub struct CacheDump {
    /// Public id.
    pub id: CacheId,
    /// Bound segment, if any.
    pub segment: Option<SegmentId>,
    /// A working object or zombie internal node.
    pub internal: bool,
    /// Destroyed but kept for descendants.
    pub zombie: bool,
    /// The history object.
    pub history: Option<CacheId>,
    /// Parent fragments: (child_off, size, parent, parent_off, cor).
    pub parents: Vec<(u64, u64, CacheId, u64, bool)>,
    /// Resident slots: (offset, state).
    pub slots: Vec<(u64, SlotDump)>,
}

/// Dump of every cache in the PVM.
#[derive(Clone, Debug, Default)]
pub struct TreeDump {
    /// One entry per live cache.
    pub caches: Vec<CacheDump>,
}

impl TreeDump {
    /// Looks a cache up by id.
    pub fn cache(&self, id: CacheId) -> Option<&CacheDump> {
        self.caches.iter().find(|c| c.id == id)
    }
}

impl fmt::Display for TreeDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.caches {
            let kind = match (c.internal, c.zombie) {
                (true, _) => " [working/internal]",
                (false, true) => " [zombie]",
                _ => "",
            };
            writeln!(f, "{:?}{kind}", c.id)?;
            if let Some(h) = c.history {
                writeln!(f, "  history -> {h:?}")?;
            }
            for &(co, size, parent, po, cor) in &c.parents {
                let sz = if size == u64::MAX {
                    "ALL".to_string()
                } else {
                    format!("{size:#x}")
                };
                let kind = if cor { "cor" } else { "cow" };
                writeln!(f, "  [{co:#x}+{sz}] <-{kind}- {parent:?}@{po:#x}")?;
            }
            for &(off, slot) in &c.slots {
                match slot {
                    SlotDump::Page { writable, dirty } => writeln!(
                        f,
                        "  page @{off:#x} {}{}",
                        if writable { "rw" } else { "ro" },
                        if dirty { " dirty" } else { "" }
                    )?,
                    SlotDump::Sync => writeln!(f, "  sync-stub @{off:#x}")?,
                    SlotDump::CowStub => writeln!(f, "  cow-stub @{off:#x}")?,
                }
            }
        }
        Ok(())
    }
}

impl Pvm {
    /// Dumps the full cache graph (history trees, stubs, residency).
    pub fn dump_caches(&self) -> TreeDump {
        let guard = self.state_for_dump();
        let mut out = TreeDump::default();
        for (key, c) in guard.caches.iter() {
            let mut slots = Vec::new();
            for &off in &c.entries {
                let slot = match guard.gmap.get(key, off) {
                    Some(Slot::Present(p)) => {
                        let page = guard.page(p);
                        SlotDump::Page {
                            writable: page.writable,
                            dirty: page.dirty,
                        }
                    }
                    Some(Slot::Sync) => SlotDump::Sync,
                    Some(Slot::Cow(_)) => SlotDump::CowStub,
                    None => continue,
                };
                slots.push((off, slot));
            }
            out.caches.push(CacheDump {
                id: pub_cache(key),
                segment: c.segment,
                internal: c.internal,
                zombie: c.zombie,
                history: c.history.map(pub_cache),
                parents: c
                    .parents
                    .iter()
                    .map(|f| {
                        (
                            f.child_off,
                            f.size,
                            pub_cache(f.parent),
                            f.parent_off,
                            f.cor,
                        )
                    })
                    .collect(),
                slots,
            });
        }
        out
    }

    /// Raw byte read of a cache's logical contents (test/debug helper
    /// mirroring `Gmi::cache_read`-style access).
    pub fn read_logical(
        &self,
        cache: CacheId,
        offset: u64,
        len: usize,
    ) -> chorus_gmi::Result<Vec<u8>> {
        let key = crate::keys::cache_key(cache);
        let mut buf = vec![0u8; len];
        let mut progress = 0u64;
        self.run_pub(|s| s.cache_read_attempt(key, offset, &mut buf, &mut progress))?;
        Ok(buf)
    }

    /// Raw byte write into a cache (test/debug helper).
    pub fn write_logical(
        &self,
        cache: CacheId,
        offset: u64,
        data: &[u8],
    ) -> chorus_gmi::Result<()> {
        let key = crate::keys::cache_key(cache);
        let mut progress = 0u64;
        self.run_pub(|s| s.cache_write_attempt(key, offset, data, &mut progress))
    }
}
