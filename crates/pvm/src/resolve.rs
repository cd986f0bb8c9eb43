//! Current-version resolution: the upward walk of the history tree.
//!
//! "Each cache contains the current version of its own pages. Pages not
//! present in some cache (cache misses) are found by looking upwards
//! (towards the root) in the tree" (§4.2.1). The walk also follows
//! per-virtual-page stub pointers (§4.3) and triggers `pullIn` for owned
//! but swapped-out data.

use crate::descriptors::{CowSource, Slot};
use crate::engine::Parked;
use crate::keys::{CacheKey, PageKey};
use crate::state::{blocked, Attempt, Blocked, PvmState};
use crate::trace::TraceEvent;
use chorus_gmi::GmiError;
use chorus_hal::{Access, OpKind};

/// The resolved current version of a (cache, offset) datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Version {
    /// A resident page holds the value (it may belong to the queried
    /// cache itself or to an ancestor / stub source).
    Page(PageKey),
    /// No cache on the path and no segment holds the value: the logical
    /// content is zeroes.
    Zero,
}

impl PvmState {
    /// Resolves the current logical version of offset `off` of `cache`.
    ///
    /// May request a `pullIn` (placing the window's synchronization
    /// stubs first) or a wait on an in-transit page.
    pub fn resolve_version(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
    ) -> Attempt<Version> {
        let mut depth = 0u32;
        let result = self.resolve_version_walk(cache, off, access, &mut depth);
        // Record the root-ward walk depth when the walk concluded (a
        // blocked walk re-runs and re-reports after the pull/wait).
        if result.is_ok() {
            self.trace.event(|| TraceEvent::HistoryWalk {
                cache: cache.index(),
                offset: off,
                depth,
            });
        }
        result
    }

    fn resolve_version_walk(
        &mut self,
        cache: CacheKey,
        off: u64,
        access: Access,
        depth: &mut u32,
    ) -> Attempt<Version> {
        let mut x = cache;
        let mut o = off;
        // Cycle guard: a correct history tree is acyclic; bound the walk.
        let mut steps = self.caches.len() + 2;
        loop {
            if steps == 0 {
                panic!("history tree cycle detected at {x:?}+{o:#x}");
            }
            steps -= 1;
            self.charge(OpKind::HistoryOp);
            // The walk may land in a quarantined ancestor whose segment
            // data is unreachable; fail cleanly rather than pulling.
            self.check_not_poisoned(x)?;
            match self.slot(x, o) {
                Some(Slot::Present(p)) | Some(Slot::Cow(CowSource::Page(p))) => {
                    debug_assert!(self.pages.contains(p), "stub points at dead page");
                    // Consumed, mapped or not: a use like any mapped
                    // access (`cache_read` and its kin map nothing, so
                    // no hardware bit speaks for them).
                    self.note_use(p);
                    return Ok(Version::Page(p));
                }
                Some(Slot::Sync) => return blocked(Blocked::WaitStub(x, o)),
                Some(Slot::Cow(CowSource::Loc(c2, o2))) => {
                    *depth += 1;
                    x = c2;
                    o = o2;
                }
                Some(Slot::Cow(CowSource::Zero)) => return Ok(Version::Zero),
                None => {
                    let desc = self.cache(x)?;
                    if desc.owns(o) {
                        // Owned but not resident: the data lives on the
                        // segment. Place the synchronization page stub
                        // and ask for a pull (§4.1.2); with clustering
                        // enabled, adjacent owned-non-resident pages ride
                        // along under their own stubs (read-ahead).
                        let segment = desc.segment.ok_or(GmiError::InvalidArgument(
                            "owned page with neither residence nor segment",
                        ))?;
                        let pages = self.size_pull(x, o, None)?;
                        let req = self.place_window(x, segment, o, pages, access);
                        return blocked(Blocked::PullIn { cache: x, req });
                    }
                    match desc.parent_at(o) {
                        Some(frag) => {
                            *depth += 1;
                            o = frag.to_parent(o);
                            x = frag.parent;
                        }
                        None => return Ok(Version::Zero),
                    }
                }
            }
        }
    }

    /// Places the synchronization stubs and parked entries of a window
    /// of `pages` pages of `cache` at `off`; returns its `pullIn`.
    pub(crate) fn place_window(
        &mut self,
        cache: CacheKey,
        segment: chorus_gmi::SegmentId,
        off: u64,
        pages: u64,
        access: Access,
    ) -> chorus_gmi::PullRequest {
        let ps = self.ps();
        for at in (off..off + pages * ps).step_by(ps as usize) {
            self.set_slot(cache, at, Slot::Sync);
            self.engine.parked.insert((cache, at), Parked::Empty);
        }
        chorus_gmi::PullRequest {
            cache: crate::keys::pub_cache(cache),
            segment,
            offset: off,
            size: pages * ps,
            access,
        }
    }

    /// True if the fragment policy of `cache` at `off` is
    /// copy-on-reference (materialize a private page on first access).
    pub fn is_cor_at(&self, cache: CacheKey, off: u64) -> bool {
        self.caches
            .get(cache)
            .and_then(|c| c.parent_at(off))
            .map(|f| f.cor)
            .unwrap_or(false)
    }
}
