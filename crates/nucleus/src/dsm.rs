//! Distributed shared virtual memory over the GMI (§3.3.3).
//!
//! "A segment server may need to control some aspects of caching. For
//! instance, to implement distributed coherent virtual memory [Li &
//! Hudak], it needs to flush and/or lock the cache at times."
//!
//! This module provides a single-writer/multiple-reader coherence
//! manager built *only* on public GMI operations: data moves with
//! `pullIn`/`pushOut`, ownership moves with `getWriteAccess`, replicas
//! are revoked with `cache.invalidate`, and writers are demoted with
//! `cache.sync` + `cache.setProtection`. Each simulated site runs its
//! own memory manager; the [`DsmDirectory`] is the shared "network"
//! state (in a real Chorus deployment it would live in the mappers and
//! talk IPC).

use crate::capability::PortName;
use chorus_gmi::{
    CacheId, CacheIo, Gmi, GmiError, Prot, PullRequest, PushRequest, Result, SegmentId,
    SegmentManagerV2,
};
use chorus_hal::FxHashMap;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock, Weak};

/// Directory state of one shared page.
#[derive(Default, Clone)]
struct PageState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

/// Coherence traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Replica invalidations sent to reader sites.
    pub invalidations: u64,
    /// Writer demotions (sync + downgrade to read-only).
    pub demotions: u64,
    /// Pages served to readers.
    pub reads_served: u64,
    /// Write-ownership grants.
    pub write_grants: u64,
}

/// A handle to one site's memory manager, type-erased so the directory
/// can drive heterogeneous sites.
trait SiteHandle: Send + Sync {
    fn sync(&self, cache: CacheId, off: u64, size: u64) -> Result<()>;
    fn set_read_only(&self, cache: CacheId, off: u64, size: u64) -> Result<()>;
    fn invalidate(&self, cache: CacheId, off: u64, size: u64) -> Result<()>;
}

struct GmiSite<G: Gmi> {
    gmi: Weak<G>,
    cache: CacheId,
}

impl<G: Gmi> SiteHandle for GmiSite<G> {
    fn sync(&self, cache: CacheId, off: u64, size: u64) -> Result<()> {
        debug_assert_eq!(cache, self.cache);
        match self.gmi.upgrade() {
            Some(g) => g.cache_sync(cache, off, size),
            None => Ok(()),
        }
    }
    fn set_read_only(&self, cache: CacheId, off: u64, size: u64) -> Result<()> {
        match self.gmi.upgrade() {
            Some(g) => g.cache_set_protection(cache, off, size, Prot::READ),
            None => Ok(()),
        }
    }
    fn invalidate(&self, cache: CacheId, off: u64, size: u64) -> Result<()> {
        match self.gmi.upgrade() {
            Some(g) => g.cache_invalidate(cache, off, size),
            None => Ok(()),
        }
    }
}

/// The shared coherence directory plus backing store for one segment.
pub struct DsmDirectory {
    page_size: u64,
    data: Mutex<Vec<u8>>,
    pages: Mutex<FxHashMap<u64, PageState>>,
    sites: OnceLock<Vec<(Box<dyn SiteHandle>, CacheId)>>,
    stats: Mutex<DsmStats>,
}

impl DsmDirectory {
    /// Creates a directory for a shared segment of `size` bytes.
    pub fn new(page_size: u64, size: usize) -> Arc<DsmDirectory> {
        Arc::new(DsmDirectory {
            page_size,
            data: Mutex::new(vec![0u8; size]),
            pages: Mutex::new(FxHashMap::default()),
            sites: OnceLock::new(),
            stats: Mutex::new(DsmStats::default()),
        })
    }

    /// Coherence traffic counters.
    pub fn stats(&self) -> DsmStats {
        *self.stats.lock()
    }

    /// Registers the sites' (manager, local cache) pairs. Must be called
    /// exactly once, after every site has created its local cache.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn register_sites<G: Gmi + 'static>(&self, sites: Vec<(Arc<G>, CacheId)>) {
        let handles: Vec<(Box<dyn SiteHandle>, CacheId)> = sites
            .into_iter()
            .map(|(g, cache)| {
                (
                    Box::new(GmiSite {
                        gmi: Arc::downgrade(&g),
                        cache,
                    }) as Box<dyn SiteHandle>,
                    cache,
                )
            })
            .collect();
        assert!(self.sites.set(handles).is_ok(), "sites registered twice");
    }

    fn site(&self, i: usize) -> &(Box<dyn SiteHandle>, CacheId) {
        &self.sites.get().expect("sites registered")[i]
    }

    /// Forces the current writer (if any, other than `for_site`) to sync
    /// back and demote, then returns the page bytes.
    fn fetch_page(&self, off: u64, for_site: usize) -> Result<Vec<u8>> {
        let writer = self.pages.lock().entry(off).or_default().writer;
        if let Some(w) = writer {
            if w != for_site {
                let (handle, cache) = self.site(w);
                handle.sync(*cache, off, self.page_size)?;
                handle.set_read_only(*cache, off, self.page_size)?;
                self.stats.lock().demotions += 1;
                let mut pages = self.pages.lock();
                let st = pages.entry(off).or_default();
                st.writer = None;
                if !st.readers.contains(&w) {
                    st.readers.push(w);
                }
            }
        }
        let data = self.data.lock();
        Ok(data[off as usize..(off + self.page_size) as usize].to_vec())
    }
}

/// The per-site segment manager for a DSM segment: plug one of these
/// into each site's memory manager.
pub struct DsmSiteManager {
    site: usize,
    dir: Arc<DsmDirectory>,
}

impl DsmSiteManager {
    /// Creates the manager for site number `site`.
    pub fn new(site: usize, dir: Arc<DsmDirectory>) -> DsmSiteManager {
        DsmSiteManager { site, dir }
    }

    /// The shared directory.
    pub fn directory(&self) -> &Arc<DsmDirectory> {
        &self.dir
    }
}

impl SegmentManagerV2 for DsmSiteManager {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        let PullRequest {
            cache,
            offset,
            size,
            ..
        } = *req;
        let ps = self.dir.page_size;
        let mut cur = 0;
        while cur < size {
            let bytes = self.dir.fetch_page(offset + cur, self.site)?;
            io.fill_up(cache, offset + cur, &bytes)?;
            cur += ps;
        }
        // Read copies arrive write-protected so the next local write
        // raises getWriteAccess.
        let (handle, local) = self.dir.site(self.site);
        handle.set_read_only(*local, offset, size)?;
        debug_assert_eq!(*local, cache);
        let mut pages = self.dir.pages.lock();
        let mut cur = 0;
        while cur < size {
            let st = pages.entry(offset + cur).or_default();
            if !st.readers.contains(&self.site) {
                st.readers.push(self.site);
            }
            cur += ps;
        }
        self.dir.stats.lock().reads_served += size / ps;
        Ok(())
    }

    fn acquire_write_access(&self, _segment: SegmentId, offset: u64, _size: u64) -> Result<()> {
        // Single writer: sync back the current writer, invalidate every
        // other reader, then grant.
        let bytes = self.dir.fetch_page(offset, self.site)?;
        {
            let mut data = self.dir.data.lock();
            data[offset as usize..offset as usize + bytes.len()].copy_from_slice(&bytes);
        }
        let readers = {
            let mut pages = self.dir.pages.lock();
            core::mem::take(&mut pages.entry(offset).or_default().readers)
        };
        for r in readers {
            if r != self.site {
                let (handle, cache) = self.dir.site(r);
                handle.invalidate(*cache, offset, self.dir.page_size)?;
                self.dir.stats.lock().invalidations += 1;
            }
        }
        let mut pages = self.dir.pages.lock();
        let st = pages.entry(offset).or_default();
        st.writer = Some(self.site);
        st.readers = vec![self.site];
        self.dir.stats.lock().write_grants += 1;
        Ok(())
    }

    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        let PushRequest {
            cache,
            offset,
            size,
            ..
        } = *req;
        let mut buf = vec![0u8; size as usize];
        io.copy_back(cache, offset, &mut buf)?;
        let mut data = self.dir.data.lock();
        if (offset as usize + buf.len()) > data.len() {
            return Err(GmiError::OutOfRange {
                offset,
                size,
                what: "DSM segment bounds",
            });
        }
        data[offset as usize..offset as usize + buf.len()].copy_from_slice(&buf);
        Ok(())
    }

    fn create_segment_v2(&self, _cache: CacheId) -> SegmentId {
        // Local anonymous data of a DSM site swaps to a synthetic local
        // segment id (not part of the shared address space).
        SegmentId(u64::MAX - self.site as u64)
    }
}

/// Convenience: the conventional port name of the DSM "mapper".
pub fn dsm_port() -> PortName {
    PortName(0xD5)
}

#[cfg(test)]
mod tests {
    // The full protocol is exercised with real memory managers in
    // `tests/dsm_coherence.rs` at the workspace root and in
    // `examples/dsm.rs`; here only the directory bookkeeping.
    use super::*;

    #[test]
    fn directory_tracks_readers_and_writer() {
        let dir = DsmDirectory::new(256, 1024);
        dir.register_sites::<NullGmi>(vec![]);
        let mut pages = dir.pages.lock();
        let st = pages.entry(0).or_default();
        st.readers.push(1);
        st.writer = Some(0);
        drop(pages);
        assert_eq!(dir.stats(), DsmStats::default());
    }

    /// A never-instantiated Gmi for the type parameter above.
    enum NullGmi {}
    impl chorus_gmi::CacheIo for NullGmi {
        fn fill_up(&self, _: CacheId, _: u64, _: &[u8]) -> Result<()> {
            unreachable!()
        }
        fn copy_back(&self, _: CacheId, _: u64, _: &mut [u8]) -> Result<()> {
            unreachable!()
        }
        fn move_back(&self, _: CacheId, _: u64, _: &mut [u8]) -> Result<()> {
            unreachable!()
        }
    }
    impl Gmi for NullGmi {
        fn cache_create(&self, _: Option<SegmentId>) -> Result<CacheId> {
            unreachable!()
        }
        fn cache_destroy(&self, _: CacheId) -> Result<()> {
            unreachable!()
        }
        fn cache_copy_with(
            &self,
            _: CacheId,
            _: u64,
            _: CacheId,
            _: u64,
            _: u64,
            _: chorus_gmi::CopyMode,
        ) -> Result<()> {
            unreachable!()
        }
        fn cache_read(&self, _: CacheId, _: u64, _: &mut [u8]) -> Result<()> {
            unreachable!()
        }
        fn cache_write(&self, _: CacheId, _: u64, _: &[u8]) -> Result<()> {
            unreachable!()
        }
        fn cache_move(&self, _: CacheId, _: u64, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn context_create(&self) -> Result<chorus_gmi::CtxId> {
            unreachable!()
        }
        fn context_destroy(&self, _: chorus_gmi::CtxId) -> Result<()> {
            unreachable!()
        }
        fn context_switch(&self, _: chorus_gmi::CtxId) -> Result<()> {
            unreachable!()
        }
        fn region_list(
            &self,
            _: chorus_gmi::CtxId,
        ) -> Result<Vec<(chorus_gmi::RegionId, chorus_gmi::RegionStatus)>> {
            unreachable!()
        }
        fn find_region(
            &self,
            _: chorus_gmi::CtxId,
            _: chorus_gmi::VirtAddr,
        ) -> Result<chorus_gmi::RegionId> {
            unreachable!()
        }
        fn region_create(
            &self,
            _: chorus_gmi::CtxId,
            _: chorus_gmi::VirtAddr,
            _: u64,
            _: Prot,
            _: CacheId,
            _: u64,
        ) -> Result<chorus_gmi::RegionId> {
            unreachable!()
        }
        fn region_split(&self, _: chorus_gmi::RegionId, _: u64) -> Result<chorus_gmi::RegionId> {
            unreachable!()
        }
        fn region_set_protection(&self, _: chorus_gmi::RegionId, _: Prot) -> Result<()> {
            unreachable!()
        }
        fn region_lock_in_memory(&self, _: chorus_gmi::RegionId) -> Result<()> {
            unreachable!()
        }
        fn region_unlock(&self, _: chorus_gmi::RegionId) -> Result<()> {
            unreachable!()
        }
        fn region_status(&self, _: chorus_gmi::RegionId) -> Result<chorus_gmi::RegionStatus> {
            unreachable!()
        }
        fn region_destroy(&self, _: chorus_gmi::RegionId) -> Result<()> {
            unreachable!()
        }
        fn cache_flush(&self, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn cache_sync(&self, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn cache_invalidate(&self, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn cache_set_protection(&self, _: CacheId, _: u64, _: u64, _: Prot) -> Result<()> {
            unreachable!()
        }
        fn cache_lock_in_memory(&self, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn cache_unlock(&self, _: CacheId, _: u64, _: u64) -> Result<()> {
            unreachable!()
        }
        fn handle_fault(
            &self,
            _: chorus_gmi::CtxId,
            _: chorus_gmi::VirtAddr,
            _: chorus_gmi::Access,
        ) -> Result<()> {
            unreachable!()
        }
        fn vm_read(
            &self,
            _: chorus_gmi::CtxId,
            _: chorus_gmi::VirtAddr,
            _: &mut [u8],
        ) -> Result<()> {
            unreachable!()
        }
        fn vm_write(&self, _: chorus_gmi::CtxId, _: chorus_gmi::VirtAddr, _: &[u8]) -> Result<()> {
            unreachable!()
        }
        fn geometry(&self) -> chorus_gmi::PageGeometry {
            unreachable!()
        }
        fn cache_resident_pages(&self, _: CacheId) -> Result<u64> {
            unreachable!()
        }
    }
}
