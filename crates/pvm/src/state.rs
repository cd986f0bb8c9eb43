//! The locked PVM state and its core bookkeeping helpers.
//!
//! All descriptor arenas, the global map, and the machine state (frame
//! pool + MMU) live behind one mutex in [`crate::Pvm`] — the PVM's only
//! lock. Operations that must block (waiting on a synchronization page
//! stub, performing a `pullIn`/`pushOut` upcall) never sleep while
//! holding the lock: an
//! *attempt* runs under the lock and either completes or returns a
//! [`Blocked`] action; the driver in `pvm.rs` releases the lock, performs
//! the action, and retries the attempt.

use crate::config::PvmConfig;
use crate::descriptors::{CacheDesc, ContextDesc, CowSource, Mapping, PageDesc, RegionDesc, Slot};
use crate::gmap::GlobalMap;
use crate::keys::{CacheKey, CtxKey, PageKey, RegKey};
use crate::policy::Clock;
use crate::stats::{Counter, StatsRegistry};
use crate::telemetry::{At, SeriesRing, Telemetry, TelemetrySample, SAMPLE_NS, SERIES_CAP};
use crate::trace::{TraceEvent, Tracer};
use chorus_gmi::{GmiError, Result, SegmentId};
use chorus_hal::{
    Access, Arena, CostModel, FrameNo, FxHashMap, Mmu, OpKind, PageGeometry, PhysicalMemory, Prot,
    VirtAddr, Vpn,
};
use std::sync::Arc;

/// An action the caller must perform without the state lock, then retry.
#[derive(Debug)]
pub(crate) enum Blocked {
    /// Wait for the synchronization page stub at (cache, offset) to
    /// resolve, or for the page there to come out of cleaning.
    WaitStub(CacheKey, u64),
    /// Submit a `pullIn` for a window. The attempt has already placed a
    /// sync stub on every page of it and entered them in the engine's
    /// parked table; the faulter then waits on the stub of the page it
    /// wants like anybody else.
    PullIn {
        /// Target cache.
        cache: CacheKey,
        /// The window: its segment, page-aligned offset, size, and the
        /// access mode of the miss.
        req: chorus_gmi::PullRequest,
    },
    /// Perform a `pushOut` upcall for a run of pages being cleaned. The
    /// attempt has already write-protected every page's mappings and set
    /// their `cleaning` flags; `pages[i]` sits at `offset + i * ps`.
    PushOut {
        /// Source cache.
        cache: CacheKey,
        /// Its segment.
        segment: SegmentId,
        /// Page-aligned offset of the first page of the run.
        offset: u64,
        /// Size to push (`pages.len() * page_size`).
        size: u64,
        /// The contiguous run of pages being cleaned, in offset order.
        pages: Vec<PageKey>,
        /// Why the run is being pushed (demand eviction, write-behind,
        /// or an explicit sync/flush).
        origin: PushOrigin,
    },
    /// The cache needs a segment assigned (`segmentCreate` upcall,
    /// §5.1.2: temporary caches get a swap segment at first push-out).
    NeedSegment {
        /// The segment-less cache.
        cache: CacheKey,
    },
    /// Frame allocation found no victim, but the completion engine has
    /// in-flight upcalls whose delivery can free frames (a finished
    /// laundering push makes its pages clean and evictable, a landed
    /// page is one). The driver force-delivers the earliest completion
    /// and retries.
    AwaitCompletion,
    /// Ask the segment manager for write access (`getWriteAccess`).
    GetWriteAccess {
        /// The cache whose page needs write access (kept for telemetry
        /// in Debug output).
        #[allow(dead_code)]
        cache: CacheKey,
        /// Its segment.
        segment: SegmentId,
        /// Page offset.
        offset: u64,
        /// Size (one page).
        size: u64,
        /// The page to mark writable on success.
        page: PageKey,
    },
}

/// Why a [`Blocked::PushOut`] was issued. Demand evictions stall the
/// faulting thread (tracked in the `fault.evictStall` histogram); daemon
/// pushes drain the write-behind queue and must never fail the
/// operation that triggered them; sync pushes come from explicit
/// `cache_sync`/flush/destroy and keep their caller's error semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushOrigin {
    /// Synchronous eviction inside a demand fault or allocation.
    Demand,
    /// Background laundering off the write-behind queue.
    Daemon,
    /// Explicit `cache_sync`/flush/destroy writeback.
    Sync,
}

/// Result of one locked attempt.
pub(crate) enum Outcome<T> {
    /// The operation completed.
    Done(T),
    /// The lock must be released and `Blocked` performed, then retry.
    Blocked(Blocked),
}

/// `Result` of an attempt: hard error, completion, or blocked.
pub(crate) type Attempt<T> = Result<Outcome<T>>;

/// Shorthand for returning a blocked outcome.
pub(crate) fn blocked<T>(b: Blocked) -> Attempt<T> {
    Ok(Outcome::Blocked(b))
}

/// Shorthand for returning a completed outcome.
pub(crate) fn done<T>(v: T) -> Attempt<T> {
    Ok(Outcome::Done(v))
}

/// How [`PvmState::free_page`] should treat stubs threaded on the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StubsTo {
    /// Re-point stubs at (cache, offset) — the data survives on the
    /// segment (eviction path; §4.3 "otherwise, it contains a pointer to
    /// the source local-cache descriptor and its offset").
    Loc,
    /// The caller already materialized or dropped every stub.
    AlreadyHandled,
}

/// The PVM state proper (everything behind the lock).
pub(crate) struct PvmState {
    pub geom: PageGeometry,
    /// The frame pool: frame metadata and the bytes.
    pub phys: PhysicalMemory,
    /// MMU contexts and page tables.
    pub mmu: Box<dyn Mmu>,
    pub model: Arc<CostModel>,
    pub contexts: Arena<ContextDesc>,
    pub regions: Arena<RegionDesc>,
    pub caches: Arena<CacheDesc>,
    pub pages: Arena<PageDesc>,
    /// The global map (§4.1.1); also holds the location-stub index
    /// (per-virtual-page stubs whose source page is not resident,
    /// re-threaded at the next pull).
    pub gmap: GlobalMap,
    /// Owner page of each allocated frame (reverse of `PageDesc.frame`).
    pub frame_owner: FxHashMap<u32, PageKey>,
    /// The replacement policy, the clock (every tracked entry is a live
    /// page; freed pages are removed eagerly).
    pub policy: Clock,
    /// The current user context.
    pub current: Option<CtxKey>,
    pub config: PvmConfig,
    /// The live counter cells, shared with the tracer and `Pvm`
    /// (lock-free snapshots).
    pub stats: Arc<StatsRegistry>,
    /// The event tracer, shared with `Pvm` and (for correlation) the
    /// nucleus mapper layers.
    pub trace: Arc<Tracer>,
    /// The completion engine: in-flight table, deterministic
    /// completion queue and the parked pages of pull windows in flight.
    pub engine: crate::engine::EngineState,
    /// The demand pages of pull windows in flight, keyed by (cache,
    /// offset): the faulter's mailbox. The driver enters `Ok(None)`
    /// when it submits; the page delivered there is born pinned and
    /// recorded (`create_page`), or the error of a failed window is
    /// left instead; the driver takes either when its attempt is over.
    /// Without the pin the page a faulter is about to map sits
    /// unpinned between its delivery and the faulter's re-lock, and a
    /// second thread's eviction makes the faulter pull it again.
    pub demand_pulls: FxHashMap<(CacheKey, u64), Result<Option<PageKey>>>,
    /// The write-behind queue: dirty victims an allocation sweep met and
    /// set aside so it could go on to a clean page, at most one IPC
    /// message of them. The driver launders one run per light entry
    /// (`Pvm::run`); keys are validated when they are popped, so a page
    /// freed or cleaned in the meantime is simply dropped.
    pub write_behind: std::collections::VecDeque<PageKey>,
    /// Blocked actions performed so far. An entry that leaves it
    /// unchanged was light (`Pvm::run`).
    pub performed: u64,
    /// The (cache, stream) whose next window fell due during this
    /// entry (`note_use`); `Pvm::run` submits it on its way out.
    pub ahead_due: Option<(CacheKey, usize)>,
    /// The per-cache, per-context and per-mapper rows of the counters
    /// that name their entities ([`PvmState::count`]).
    pub telemetry: Telemetry,
    /// Ring of deterministic sim-time gauge samples recorded by
    /// [`PvmState::maybe_sample`].
    pub series: SeriesRing,
    /// Next simulated instant (multiple of [`SAMPLE_NS`]) at which the
    /// gauge sampler fires.
    pub next_sample_ns: u64,
}

impl PvmState {
    pub fn new(
        geom: PageGeometry,
        phys: PhysicalMemory,
        mmu: Box<dyn Mmu>,
        model: Arc<CostModel>,
        config: PvmConfig,
    ) -> PvmState {
        let stats = Arc::new(StatsRegistry::new());
        let trace = Arc::new(Tracer::new(config.trace, model.clone(), stats.clone()));
        PvmState {
            geom,
            phys,
            mmu,
            model,
            contexts: Arena::new(),
            regions: Arena::new(),
            caches: Arena::new(),
            pages: Arena::new(),
            gmap: GlobalMap::default(),
            frame_owner: FxHashMap::default(),
            policy: Clock::default(),
            current: None,
            config,
            stats,
            trace,
            engine: crate::engine::EngineState::new(),
            demand_pulls: FxHashMap::default(),
            write_behind: std::collections::VecDeque::new(),
            performed: 0,
            ahead_due: None,
            telemetry: Telemetry::default(),
            series: SeriesRing::new(SERIES_CAP),
            next_sample_ns: 0,
        }
    }

    // ----- lookups --------------------------------------------------------

    pub fn ctx(&self, k: CtxKey) -> Result<&ContextDesc> {
        self.contexts
            .get(k)
            .ok_or(GmiError::NoSuchContext(crate::keys::pub_ctx(k)))
    }

    pub fn ctx_mut(&mut self, k: CtxKey) -> Result<&mut ContextDesc> {
        self.contexts
            .get_mut(k)
            .ok_or(GmiError::NoSuchContext(crate::keys::pub_ctx(k)))
    }

    pub fn region(&self, k: RegKey) -> Result<&RegionDesc> {
        self.regions
            .get(k)
            .ok_or(GmiError::NoSuchRegion(crate::keys::pub_region(k)))
    }

    pub fn region_mut(&mut self, k: RegKey) -> Result<&mut RegionDesc> {
        self.regions
            .get_mut(k)
            .ok_or(GmiError::NoSuchRegion(crate::keys::pub_region(k)))
    }

    pub fn cache(&self, k: CacheKey) -> Result<&CacheDesc> {
        self.caches
            .get(k)
            .ok_or(GmiError::NoSuchCache(crate::keys::pub_cache(k)))
    }

    pub fn cache_mut(&mut self, k: CacheKey) -> Result<&mut CacheDesc> {
        self.caches
            .get_mut(k)
            .ok_or(GmiError::NoSuchCache(crate::keys::pub_cache(k)))
    }

    /// Fails with `CachePoisoned` if the cache was quarantined after a
    /// permanent mapper failure. A dead (removed) cache is not an error
    /// here — the caller's own lookup reports that.
    pub fn check_not_poisoned(&self, k: CacheKey) -> Result<()> {
        match self.caches.get(k) {
            Some(c) if c.poisoned => Err(GmiError::CachePoisoned(crate::keys::pub_cache(k))),
            _ => Ok(()),
        }
    }

    /// Quarantines a cache after a permanent mapper failure: every
    /// later operation that needs the cache fails with a clean
    /// `CachePoisoned` error instead of re-driving upcalls into an
    /// unavailable mapper. Its windows in flight stay queued and
    /// deliver, or fail, in their turn; faulters see `CachePoisoned`
    /// either way.
    pub fn quarantine_cache(&mut self, k: CacheKey) {
        if let Some(c) = self.caches.get_mut(k) {
            if !c.poisoned {
                c.poisoned = true;
                self.stats.bump(Counter::QuarantinedCaches);
                self.trace
                    .event(|| TraceEvent::Quarantine { cache: k.index() });
            }
        }
    }

    /// Internal page lookup: pages are never exposed, so a dangling key
    /// is a PVM bug.
    pub fn page(&self, k: PageKey) -> &PageDesc {
        self.pages.get(k).expect("dangling page key")
    }

    pub fn page_mut(&mut self, k: PageKey) -> &mut PageDesc {
        self.pages.get_mut(k).expect("dangling page key")
    }

    /// Whether the page was used since its reference was last cleared
    /// (see [`PageDesc::referenced`]).
    pub fn page_referenced(&self, k: PageKey) -> bool {
        self.page(k).referenced(&self.contexts, &*self.mmu)
    }

    /// A use of page `k`, mapped or read through its cache: the software
    /// half of its reference, and the end of its being a prefetch an
    /// eviction would count as wasted. The first use of a readahead page
    /// of the pull a full-window stream is reading (its last, or the one
    /// before: [`PvmState::two_ahead`]) makes that stream's next window
    /// due.
    pub fn note_use(&mut self, k: PageKey) {
        let two = self.two_ahead();
        let page = self.page_mut(k);
        page.ref_bit = true;
        if core::mem::take(&mut page.prefetched) {
            let (cache, off) = (page.cache, page.offset);
            if let Some(slot) = self.caches.get(cache).and_then(|c| c.streams.due(off, two)) {
                self.ahead_due = Some((cache, slot));
            }
        }
    }

    /// Releases pins (`lock_count`) taken on pages. They may have died
    /// with their cache in the meantime; dead keys are skipped (arena
    /// generations make reuse detection exact).
    pub fn unpin_pages(&mut self, keys: &[PageKey]) {
        for &p in keys {
            if self.pages.contains(p) {
                self.page_mut(p).lock_count -= 1;
            }
        }
    }

    // ----- geometry helpers ------------------------------------------------

    #[inline]
    pub fn ps(&self) -> u64 {
        self.geom.page_size()
    }

    pub fn check_aligned(&self, value: u64, what: &'static str) -> Result<()> {
        if self.geom.is_aligned(value) {
            Ok(())
        } else {
            Err(GmiError::Unaligned { value, what })
        }
    }

    // ----- global map ------------------------------------------------------

    pub fn slot(&self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.model.charge(OpKind::GlobalMapOp);
        self.gmap.get(cache, off)
    }

    /// Installs a slot, maintaining the cache's entry index.
    pub fn set_slot(&mut self, cache: CacheKey, off: u64, slot: Slot) {
        self.model.charge(OpKind::GlobalMapOp);
        self.gmap.insert(cache, off, slot);
        if let Some(c) = self.caches.get_mut(cache) {
            c.entries.insert(off);
        }
    }

    /// Removes a slot, maintaining the cache's entry index.
    pub fn clear_slot(&mut self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.model.charge(OpKind::GlobalMapOp);
        let old = self.gmap.remove(cache, off);
        if old.is_some() {
            if let Some(c) = self.caches.get_mut(cache) {
                c.entries.remove(&off);
            }
        }
        old
    }

    // ----- page lifecycle ---------------------------------------------------

    /// Creates a real page descriptor for `frame` at (cache, offset),
    /// replacing any stub there, and threads any location stubs waiting
    /// for this (cache, offset).
    pub fn create_page(
        &mut self,
        cache: CacheKey,
        offset: u64,
        frame: FrameNo,
        writable: bool,
        dirty: bool,
    ) -> PageKey {
        let key = self.new_page(cache, offset, frame, writable, dirty);
        self.publish_page(key);
        key
    }

    /// Builds the page descriptor of `frame` at (cache, offset): owned,
    /// framed and known to the replacement policy, but not yet in the
    /// global map, so nothing can reach it ([`Self::publish_page`]).
    pub fn new_page(
        &mut self,
        cache: CacheKey,
        offset: u64,
        frame: FrameNo,
        writable: bool,
        dirty: bool,
    ) -> PageKey {
        let mut desc = PageDesc::new(cache, offset, frame);
        desc.writable = writable;
        desc.dirty = dirty;
        let key = self.pages.insert(desc);
        if let Some(c) = self.caches.get_mut(cache) {
            c.owned.insert(offset);
        }
        self.frame_owner.insert(frame.0, key);
        self.policy.insert(key);
        key
    }

    /// Enters a built page in the global map, in place of whatever stub
    /// is there, and re-threads the per-page stubs that were pointing
    /// at its location.
    pub fn publish_page(&mut self, key: PageKey) {
        let (cache, offset) = (self.page(key).cache, self.page(key).offset);
        let stubs = self.gmap.take_loc_stubs(cache, offset);
        for &(dc, doff) in &stubs {
            self.set_slot(dc, doff, Slot::Cow(CowSource::Page(key)));
        }
        self.page_mut(key).stubs = stubs;
        self.set_slot(cache, offset, Slot::Present(key));
        // A page born where a faulter's pull is waiting is born
        // pinned; the driver drops the pin when its attempt is over
        // (see `demand_pulls`).
        if let Some(held @ Ok(None)) = self.demand_pulls.get_mut(&(cache, offset)) {
            *held = Ok(Some(key));
            self.page_mut(key).lock_count += 1;
        }
    }

    /// Removes a page: unmaps it everywhere, detaches stubs per
    /// `stubs_to`, clears its slot, and releases (or returns) its frame.
    ///
    /// The `owned` mark is *not* cleared — the caller decides whether the
    /// cache still logically owns the offset (eviction: yes; invalidate:
    /// no).
    pub fn free_page(&mut self, key: PageKey, stubs_to: StubsTo, release_frame: bool) -> FrameNo {
        self.unmap_all(key);
        let desc = self.pages.remove(key).expect("freeing a dead page");
        match stubs_to {
            StubsTo::Loc => {
                for (dc, doff) in desc.stubs {
                    self.set_slot(dc, doff, Slot::Cow(CowSource::Loc(desc.cache, desc.offset)));
                    self.gmap.push_loc_stub(desc.cache, desc.offset, (dc, doff));
                }
            }
            StubsTo::AlreadyHandled => {
                debug_assert!(desc.stubs.is_empty(), "free_page with live stubs");
            }
        }
        // Only clear the slot if it still refers to this page (a sync
        // stub may have replaced it during cleaning).
        if self.gmap.get(desc.cache, desc.offset) == Some(Slot::Present(key)) {
            self.clear_slot(desc.cache, desc.offset);
        }
        self.frame_owner.remove(&desc.frame.0);
        self.policy.remove(key);
        if release_frame {
            self.phys.release(desc.frame);
        }
        desc.frame
    }

    // ----- mapping bookkeeping ----------------------------------------------

    /// Enters a mapping in the MMU and records it on the page, or just
    /// re-protects the entry the page already has there through `via`.
    pub fn map_page(&mut self, key: PageKey, ctx: CtxKey, vpn: Vpn, prot: Prot, via: CacheKey) {
        let mmu_ctx = self.ctx(ctx).expect("mapping into dead context").mmu_ctx;
        let frame = self.page(key).frame;
        let here = Mapping { ctx, vpn, via };
        let mapped = self.mmu.query(mmu_ctx, vpn).map(|(f, _)| f) == Some(frame);
        if mapped && self.page(key).mappings.contains(&here) {
            self.mmu.protect(mmu_ctx, vpn, prot);
        } else {
            // Remove any previous mapping at this (ctx, vpn) first.
            self.unmap_va(ctx, vpn);
            self.mmu.map(mmu_ctx, vpn, frame, prot);
            self.page_mut(key).mappings.push(here);
        }
        // A new MMU entry is unreferenced; the access that faulted walks
        // the table when it is retried and sets that bit too. Until then
        // the software half stands for the fault.
        self.note_use(key);
    }

    /// Removes the mapping at (ctx, vpn), if any, and unthreads it from
    /// its page descriptor.
    pub fn unmap_va(&mut self, ctx: CtxKey, vpn: Vpn) {
        let Ok(desc) = self.ctx(ctx) else { return };
        let mmu_ctx = desc.mmu_ctx;
        if let Some(frame) = self.mmu.unmap(mmu_ctx, vpn) {
            if let Some(&owner) = self.frame_owner.get(&frame.0) {
                let page = self.page_mut(owner);
                page.mappings.retain(|m| !(m.ctx == ctx && m.vpn == vpn));
            }
        }
    }

    /// Removes every MMU mapping of a page.
    pub fn unmap_all(&mut self, key: PageKey) {
        let mappings = core::mem::take(&mut self.page_mut(key).mappings);
        for m in mappings {
            if let Ok(desc) = self.ctx(m.ctx) {
                let mmu_ctx = desc.mmu_ctx;
                self.mmu.unmap(mmu_ctx, m.vpn);
            }
        }
    }

    /// Shoots down the mappings of a page that were established through
    /// one particular cache — used when that cache materializes its own
    /// version, so stale read mappings of the old version re-fault.
    pub fn unmap_via(&mut self, key: PageKey, via: CacheKey) {
        let (keep, drop): (Vec<Mapping>, Vec<Mapping>) =
            self.page(key).mappings.iter().partition(|m| m.via != via);
        for m in &drop {
            if let Ok(desc) = self.ctx(m.ctx) {
                let mmu_ctx = desc.mmu_ctx;
                self.mmu.unmap(mmu_ctx, m.vpn);
            }
        }
        self.page_mut(key).mappings = keep;
    }

    /// Shoots down mappings of a page established through caches other
    /// than the owner (descendants reading the original); called before
    /// the owner's copy is modified in place.
    pub fn unmap_foreign(&mut self, key: PageKey) {
        let owner = self.page(key).cache;
        let (keep, drop): (Vec<Mapping>, Vec<Mapping>) =
            self.page(key).mappings.iter().partition(|m| m.via == owner);
        for m in &drop {
            if let Ok(desc) = self.ctx(m.ctx) {
                let mmu_ctx = desc.mmu_ctx;
                self.mmu.unmap(mmu_ctx, m.vpn);
            }
        }
        self.page_mut(key).mappings = keep;
    }

    /// Re-applies the protection of every current mapping of a page,
    /// given each mapping's region protection recomputed from scratch.
    pub fn reprotect_mappings(&mut self, key: PageKey) {
        let mappings = self.page(key).mappings.clone();
        for m in mappings {
            let Some(region_prot) = self.region_prot_at(m.ctx, m.vpn) else {
                continue;
            };
            let page = self.page(key);
            let eff = if m.via == page.cache {
                page.effective_prot(region_prot)
            } else {
                // Foreign (descendant) mappings of an ancestor page are
                // always read-only.
                region_prot.remove(Prot::WRITE)
            };
            let mmu_ctx = self.ctx(m.ctx).expect("mapping into dead context").mmu_ctx;
            self.mmu.protect(mmu_ctx, m.vpn, eff);
        }
    }

    /// The protection of the region covering (ctx, vpn), if any.
    fn region_prot_at(&self, ctx: CtxKey, vpn: Vpn) -> Option<Prot> {
        let va = self.geom.base(vpn);
        let reg = self.find_region(ctx, va).ok()?;
        Some(self.region(reg).ok()?.prot)
    }

    // ----- region lookup ----------------------------------------------------

    /// Finds the region of `ctx` containing `va` (§4.1.2's search in the
    /// sorted region list).
    pub fn find_region(&self, ctx: CtxKey, va: VirtAddr) -> Result<RegKey> {
        let desc = self.ctx(ctx)?;
        // Regions are sorted by start address; find the last region whose
        // start is <= va and check containment.
        let idx = desc
            .regions
            .partition_point(|&r| self.regions.get(r).map(|d| d.addr <= va).unwrap_or(false));
        if idx > 0 {
            let key = desc.regions[idx - 1];
            if let Some(r) = self.regions.get(key) {
                if r.contains(va) {
                    return Ok(key);
                }
            }
        }
        Err(GmiError::SegmentationFault {
            ctx: crate::keys::pub_ctx(ctx),
            va,
            access: Access::Read,
        })
    }

    // ----- counting and sampling ----------------------------------------

    /// Counts `n` events of a counter that names its entities: its
    /// global cell and the row of each entity of `at`, in one call.
    #[inline]
    pub fn count(&mut self, c: Counter, n: u64, at: At) {
        self.stats.add_cell(c, n);
        self.telemetry.add(c, n, at);
    }

    /// A gauge sample of the live state, stamped with the current
    /// simulated time. Pure observation: nothing here charges the cost
    /// model (`free_frames`/`len` are plain reads, and the gmap is
    /// consulted via its uncharged `len`).
    pub fn live_sample(&self) -> TelemetrySample {
        TelemetrySample {
            sim_ns: self.model.now().nanos(),
            free_frames: self.phys.free_frames(),
            inflight_upcalls: self.engine.inflight(),
            arriving_pages: self.engine.parked.len() as u64,
            clock_ring_pages: self.policy.len() as u64,
            gmap_slots: self.gmap.len() as u64,
            ahead_pulls: self.stats.get(Counter::AheadPulls),
            ahead_skipped: self.stats.get(Counter::AheadSkipped),
        }
    }

    /// The deterministic sim-time sampler: records at most one gauge
    /// sample per driver entry, once the simulated clock has crossed the
    /// next multiple of [`SAMPLE_NS`]. Reads the clock, never advances
    /// it.
    pub fn maybe_sample(&mut self) {
        let now = self.model.now().nanos();
        if now < self.next_sample_ns {
            return;
        }
        self.next_sample_ns = now - now % SAMPLE_NS + SAMPLE_NS;
        let sample = self.live_sample();
        self.series.push(sample);
    }

    // ----- charging ----------------------------------------------------------

    #[inline]
    pub fn charge(&self, op: OpKind) {
        self.model.charge(op);
    }

    #[inline]
    pub fn charge_n(&self, op: OpKind, n: u64) {
        self.model.charge_n(op, n);
    }
}
