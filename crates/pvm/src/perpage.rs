//! Per-virtual-page copy-on-write (§4.3).
//!
//! For small fragments (IPC messages), the PVM defers copies page by
//! page: each source page present in real memory is protected read-only
//! and a *copy-on-write page stub* is placed in the global map for each
//! destination page. The stub points at the source page descriptor when
//! resident, or at the (source cache, offset) pair otherwise; all stubs
//! for one source page are threaded on a list attached to its page
//! descriptor, so the page is readable through every cache it was copied
//! to, and a write violation — on either side — materializes private
//! copies.

use crate::descriptors::{CowSource, Slot};
use crate::keys::CacheKey;
use crate::state::{blocked, done, Attempt, Blocked, PvmState};
use crate::stats::Counter;
use chorus_gmi::Result;
use chorus_hal::OpKind;

/// The statically-located source of a per-page stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Located {
    /// A resident page (possibly of an ancestor cache).
    Page(crate::keys::PageKey),
    /// Swapped-out data of the given cache at the given offset.
    Loc(CacheKey, u64),
    /// No data anywhere on the path.
    Zero,
    /// A synchronization stub is in the way.
    InTransit(CacheKey, u64),
}

impl PvmState {
    /// Locates the current version of (cache, off) without side effects
    /// (no pulls): used to decide what a new stub should point at.
    pub fn locate_version(&self, cache: CacheKey, off: u64) -> Result<Located> {
        let mut x = cache;
        let mut o = off;
        let mut steps = self.caches.len() + 2;
        loop {
            assert!(steps > 0, "history tree cycle during locate");
            steps -= 1;
            match self.gmap.get(x, o) {
                Some(Slot::Present(p)) => return Ok(Located::Page(p)),
                Some(Slot::Sync) => return Ok(Located::InTransit(x, o)),
                Some(Slot::Cow(CowSource::Page(p))) => return Ok(Located::Page(p)),
                Some(Slot::Cow(CowSource::Loc(c2, o2))) => {
                    x = c2;
                    o = o2;
                }
                Some(Slot::Cow(CowSource::Zero)) => return Ok(Located::Zero),
                None => {
                    let desc = self.cache(x)?;
                    if desc.owns(o) {
                        return Ok(Located::Loc(x, o));
                    }
                    match desc.parent_at(o) {
                        Some(frag) => {
                            o = frag.to_parent(o);
                            x = frag.parent;
                        }
                        None => return Ok(Located::Zero),
                    }
                }
            }
        }
    }

    /// One attempt of the per-virtual-page deferred copy.
    pub fn per_page_copy_attempt(
        &mut self,
        src: CacheKey,
        src_off: u64,
        dst: CacheKey,
        dst_off: u64,
        size: u64,
    ) -> Attempt<()> {
        // Clear the destination range (waits out transits, unthreads old
        // stubs, preserves originals for the destination's history).
        match self.overwrite_range(dst, dst_off, size)? {
            crate::state::Outcome::Done(()) => {}
            crate::state::Outcome::Blocked(b) => return blocked(b),
        }
        let ps = self.ps();
        let pages = self.geom.pages_for(size);
        for k in 0..pages {
            let so = src_off + k * ps;
            let dstoff = dst_off + k * ps;
            match self.locate_version(src, so)? {
                Located::InTransit(x, o) => return blocked(Blocked::WaitStub(x, o)),
                Located::Page(p) => {
                    // Protect the source page read-only and thread the
                    // stub on its descriptor.
                    self.page_mut(p).stubs.push((dst, dstoff));
                    self.charge(OpKind::ProtectPage);
                    self.reprotect_mappings(p);
                    self.set_slot(dst, dstoff, Slot::Cow(CowSource::Page(p)));
                }
                Located::Loc(c, o) => {
                    self.gmap.push_loc_stub(c, o, (dst, dstoff));
                    self.set_slot(dst, dstoff, Slot::Cow(CowSource::Loc(c, o)));
                }
                Located::Zero => {
                    self.set_slot(dst, dstoff, Slot::Cow(CowSource::Zero));
                }
            }
            self.stats.bump(Counter::CowStubsCreated);
        }
        done(())
    }
}
