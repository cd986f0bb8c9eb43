//! The GMI traits: the downward [`Gmi`] interface, the upward
//! [`SegmentManagerV2`] upcall interface with its typed requests and
//! completions, and the fault-resolution [`CacheIo`] subset.

use crate::error::Result;
use crate::ids::{CacheId, CtxId, RegionId, SegmentId};
use crate::types::{CopyMode, RegionStatus};
use chorus_hal::{Access, PageGeometry, Prot, VirtAddr};
use std::sync::Arc;

/// Table 4 data-transfer downcalls, used by segment managers to resolve
/// faults.
///
/// These are deliberately distinct from the Table 1 `copy`/`move`
/// operations: "the former may cause faults, whereas the latter are used
/// to resolve faults" (§3.3.3). A [`SegmentManagerV2`] receives a `&dyn
/// CacheIo` in its upcalls and uses it to move bytes into or out of the
/// cache without faulting.
pub trait CacheIo: Send + Sync {
    /// `fillUp`: provides the data requested by a `pullIn` upcall.
    ///
    /// The fragment `[offset, offset + data.len())` of `cache` becomes
    /// resident with the given contents; any threads blocked on the
    /// corresponding synchronization page stubs are released.
    ///
    /// # Errors
    ///
    /// Fails if the cache is dead or the pool is out of frames even after
    /// page replacement.
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()>;

    /// `copyBack`: reads cached data during a `pushOut`, leaving it
    /// resident.
    ///
    /// # Errors
    ///
    /// Fails if the cache is dead or the fragment is not resident.
    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// `moveBack`: reads cached data during a `pushOut` and removes it
    /// from the cache (the frames are released).
    ///
    /// # Errors
    ///
    /// Fails if the cache is dead or the fragment is not resident.
    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Batched `copyBack`: reads the longest fully-resident page-aligned
    /// prefix of `[offset, offset + buf.len())` into `buf` and returns
    /// its length in bytes. A clustered `pushOut` uses this so a page
    /// that vanished mid-run shortens the reply instead of failing the
    /// whole batch; the memory manager then split-retries the remainder.
    ///
    /// The default forwards to [`CacheIo::copy_back`] (all-or-nothing),
    /// which preserves the old semantics for implementations that never
    /// batch.
    ///
    /// # Errors
    ///
    /// Fails if the cache is dead or the *first* page is not resident.
    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        self.copy_back(cache, offset, buf).map(|_| buf.len() as u64)
    }
}

// ----- Table 3: typed request / completion upcalls -----------------------

/// A typed `pullIn` request: read `[offset, offset + size)` of
/// `segment` into `cache`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PullRequest {
    /// Destination cache (the `fill_up` target).
    pub cache: CacheId,
    /// Source segment.
    pub segment: SegmentId,
    /// Byte offset of the fragment, page aligned.
    pub offset: u64,
    /// Fragment length in bytes, a whole number of pages.
    pub size: u64,
    /// The access that missed (mappers may log or prefetch on it).
    pub access: Access,
}

/// A typed `pushOut` request: write `[offset, offset + size)` of
/// `cache` back to `segment`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushRequest {
    /// Source cache (the `copy_back` target).
    pub cache: CacheId,
    /// Destination segment.
    pub segment: SegmentId,
    /// Byte offset of the fragment, page aligned.
    pub offset: u64,
    /// Fragment length in bytes, a whole number of pages.
    pub size: u64,
}

/// Either kind of data-transfer request, as carried by a
/// [`Completion`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpcallRequest {
    /// A `pullIn`.
    Pull(PullRequest),
    /// A `pushOut`.
    Push(PushRequest),
}

impl UpcallRequest {
    /// The segment the request addresses.
    pub fn segment(&self) -> SegmentId {
        match self {
            UpcallRequest::Pull(r) => r.segment,
            UpcallRequest::Push(r) => r.segment,
        }
    }

    /// The cache the request addresses.
    pub fn cache(&self) -> CacheId {
        match self {
            UpcallRequest::Pull(r) => r.cache,
            UpcallRequest::Push(r) => r.cache,
        }
    }

    /// The `(offset, size)` window of the request.
    pub fn window(&self) -> (u64, u64) {
        match self {
            UpcallRequest::Pull(r) => (r.offset, r.size),
            UpcallRequest::Push(r) => (r.offset, r.size),
        }
    }
}

/// The completion record of an asynchronous upcall: which request it
/// was, and how it ended. Delivered by the completion engine in
/// deterministic `(due-time, id)` order.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Monotonic request id, assigned at submission.
    pub id: u64,
    /// The request this completion answers.
    pub request: UpcallRequest,
    /// The outcome the mapper reported (after the per-request retry
    /// budget was spent).
    pub result: Result<()>,
}

/// Table 3: the upcall interface from the memory manager to segment
/// managers.
///
/// One segment manager is attached to a memory manager at construction;
/// it demultiplexes per-segment (in Chorus, by sending IPC to the mapper
/// named in the segment's capability, see `chorus-nucleus`). The
/// data-transfer calls take whole request structs; the memory manager's
/// completion engine decides whether to wait for the result inline or
/// to defer the bookkeeping into a [`Completion`] delivered later in
/// deterministic order.
pub trait SegmentManagerV2: Send + Sync {
    /// `segment.pullIn(offset, size, accessMode)`: read data in from the
    /// segment. The implementation must deliver the bytes with
    /// [`CacheIo::fill_up`] before returning.
    ///
    /// While the pull is in progress the memory manager keeps
    /// synchronization page stubs in place, so concurrent accesses to the
    /// fragment block until `fill_up` lands.
    ///
    /// # Errors
    ///
    /// I/O failure is reported to the submitter (or its completion).
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()>;

    /// `segment.pushOut(offset, size)`: write data back to the segment.
    /// The implementation collects the bytes with
    /// [`CacheIo::copy_back_run`] (or `copy_back`/`move_back`).
    ///
    /// # Errors
    ///
    /// I/O failure is reported to the submitter (or its completion) and
    /// aborts the flush/sync/destroy that needed it.
    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()>;

    /// `segment.getWriteAccess(offset, size)`: the cached data was pulled
    /// read-only and a write access occurred; ask the segment manager to
    /// grant write access (e.g. after revoking it from other sites in a
    /// distributed-coherence protocol).
    ///
    /// # Errors
    ///
    /// Denial is propagated as a protection error to the faulting thread.
    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()>;

    /// `segmentCreate(cache)`: the memory manager unilaterally created a
    /// cache (e.g. a working history object, §4.2.3/§3.3.3) and declares
    /// it to the upper layer so it can be swapped; the segment manager
    /// assigns it a (temporary) segment.
    fn create_segment_v2(&self, cache: CacheId) -> SegmentId;

    /// The current length of a segment in bytes, if the manager knows
    /// it. The memory manager clamps clustered (readahead) pulls at
    /// segment end with it; `None` (the default, right for
    /// sparse/unbounded segments) only disables the clamp.
    fn segment_len(&self, _segment: SegmentId) -> Option<u64> {
        None
    }

    /// `victimAdvice(candidates)`: an external replacement policy asks
    /// the segment manager to approve or veto an eviction candidate
    /// batch, one `(cache, offset)` page per entry. Returns one flag
    /// per candidate (`true` = evictable); a short reply vetoes the
    /// missing tail. The default approves everything, so managers that
    /// never customize replacement need no code.
    fn advise_victims(&self, candidates: &[(CacheId, u64)]) -> Vec<bool> {
        vec![true; candidates.len()]
    }
}

/// What is left of the adapter that once lifted a positional-argument
/// upcall trait into [`SegmentManagerV2`]: the identity coercion, kept
/// because the frozen `benchmark/` sources call it. It and the `V2`
/// suffix of the trait go when ROADMAP item 1 unfreezes the scoreboard.
pub struct SyncShim;

impl SyncShim {
    /// `mgr`, as the trait object the memory managers take.
    pub fn wrap<T: SegmentManagerV2 + 'static>(mgr: Arc<T>) -> Arc<dyn SegmentManagerV2> {
        mgr
    }
}

/// The Generic Memory management Interface (Tables 1, 2 and 4).
///
/// Implemented below the interface by a particular memory manager (the
/// PVM in this reproduction, plus the shadow-object baseline); called
/// from above by the kernel-dependent layer.
pub trait Gmi: CacheIo {
    // ----- Table 1: segment (copy) access ------------------------------

    /// `cacheCreate(segment)`: binds a segment to a new empty cache.
    ///
    /// Passing `None` creates a *temporary* cache: the memory manager will
    /// request a segment via [`SegmentManagerV2::create_segment_v2`] the first
    /// time it needs to push data out.
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId>;

    /// `cache.destroy()`: flushes modified data to the segment and
    /// discards the cache.
    ///
    /// If other caches still depend on this one for deferred-copy data,
    /// the implementation must keep the data alive until they are gone
    /// (§4.2.2: "remaining unmodified source data must be kept until the
    /// copy is deleted").
    ///
    /// # Errors
    ///
    /// Fails if the cache handle is dead or a required `pushOut` fails.
    fn cache_destroy(&self, cache: CacheId) -> Result<()>;

    /// `destCache.copy(destOffset, srcCache, srcOffset, size)` with an
    /// explicit deferral policy. May cause (and block on) faults.
    ///
    /// # Errors
    ///
    /// Fails on dead handles, unaligned deferred copies, or I/O errors
    /// while materializing source data.
    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        mode: CopyMode,
    ) -> Result<()>;

    /// `destCache.copy(...)` with the implementation's default policy.
    ///
    /// # Errors
    ///
    /// See [`Gmi::cache_copy_with`].
    fn cache_copy(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        self.cache_copy_with(src, src_offset, dst, dst_offset, size, CopyMode::Auto)
    }

    /// Explicit read access to a segment through its cache: the kernel's
    /// `read(2)` path. Unlike [`CacheIo::copy_back`] this may fault
    /// (pull data in, walk deferred-copy chains).
    ///
    /// # Errors
    ///
    /// Fails on dead handles or segment I/O errors.
    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Explicit write access to a segment through its cache: the
    /// `write(2)` path. Runs the full write-violation algorithm
    /// (copy-on-write preservation included) per page.
    ///
    /// # Errors
    ///
    /// Fails on dead handles, out of memory, or segment I/O errors.
    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()>;

    /// `destCache.move(destOffset, srcCache, srcOffset, size)`: like
    /// `copy` but the source fragment becomes undefined, allowing the
    /// implementation to re-assign page frames instead of copying when
    /// alignment permits (§3.3.1).
    ///
    /// # Errors
    ///
    /// See [`Gmi::cache_copy_with`].
    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()>;

    // ----- Table 2: address space management ----------------------------

    /// `contextCreate()`: creates an empty address space.
    fn context_create(&self) -> Result<CtxId>;

    /// `context.destroy()`: destroys the address space and all its
    /// regions.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn context_destroy(&self, ctx: CtxId) -> Result<()>;

    /// `context.switch()`: makes `ctx` the current user context.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn context_switch(&self, ctx: CtxId) -> Result<()>;

    /// `context.getRegionList()`: lists the regions of a context sorted by
    /// start address.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>>;

    /// `context.findRegion(address)`: finds the region containing a
    /// virtual address (used by the Nucleus `rgnMapFromActor`, §5.1.4).
    ///
    /// # Errors
    ///
    /// Fails with `SegmentationFault` if no region contains `va`.
    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId>;

    /// `regionCreate(context, address, size, prot, cache, offset)`: maps a
    /// window of a cache into a context.
    ///
    /// # Errors
    ///
    /// Fails on overlap with an existing region, unaligned address/size/
    /// offset, or dead handles.
    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId>;

    /// `region.split(offset)`: cuts a region in two at `offset` (relative
    /// to the region start); returns the upper half. Splitting never
    /// occurs spontaneously (§3.3.2), so the upper layers can track
    /// regions reliably.
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-range offsets.
    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId>;

    /// `region.setProtection(prot)`: changes the hardware protection of
    /// the whole region.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()>;

    /// `region.lockInMemory()`: faults all pages of the region in, pins
    /// them, and guarantees the MMU maps stay fixed (real-time kernels,
    /// §3.3.2).
    ///
    /// # Errors
    ///
    /// Fails if memory cannot hold the whole region.
    fn region_lock_in_memory(&self, region: RegionId) -> Result<()>;

    /// `region.unlock()`: faults may again occur during access.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn region_unlock(&self, region: RegionId) -> Result<()>;

    /// `region.status()`: address, size, protection, cache, etc.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn region_status(&self, region: RegionId) -> Result<RegionStatus>;

    /// `region.destroy()`: unmaps the cache window from the context.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead or the region is locked.
    fn region_destroy(&self, region: RegionId) -> Result<()>;

    // ----- Table 4: cache management ------------------------------------

    /// `cache.flush(offset, size)`: pushes modified data out to the
    /// segment and removes the fragment from the cache.
    ///
    /// # Errors
    ///
    /// Fails on dead handles or `pushOut` I/O errors.
    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()>;

    /// `cache.sync(offset, size)`: pushes modified data out but keeps it
    /// cached (and clean).
    ///
    /// # Errors
    ///
    /// Fails on dead handles or `pushOut` I/O errors.
    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()>;

    /// `cache.invalidate(offset, size)`: discards the fragment without
    /// writing it back (distributed-coherence protocols use this to
    /// revoke stale replicas).
    ///
    /// # Errors
    ///
    /// Fails on dead handles or if a page in the range is locked.
    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()>;

    /// `cache.setProtection(offset, size, prot)`: caps the hardware access
    /// of the cached fragment (e.g. downgrade to read-only so the next
    /// write triggers [`SegmentManagerV2::acquire_write_access`]).
    ///
    /// # Errors
    ///
    /// Fails on dead handles.
    fn cache_set_protection(
        &self,
        cache: CacheId,
        offset: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()>;

    /// `cache.lockInMemory(offset, size)`: pulls the fragment in and pins
    /// it. May cause `pullIn` upcalls.
    ///
    /// # Errors
    ///
    /// Fails if memory cannot hold the fragment.
    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()>;

    /// `cache.unlock(offset, size)`: releases a pin.
    ///
    /// # Errors
    ///
    /// Fails on dead handles.
    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()>;

    // ----- Fault entry and simulated user access -------------------------

    /// The page-fault entry point (§4.1.2): the simulation analogue of the
    /// hardware trap handler. Resolves the fault so the access can be
    /// retried, or reports it as an error.
    ///
    /// # Errors
    ///
    /// `SegmentationFault` if no region covers `va`; `ProtectionViolation`
    /// if the region forbids the access; `OutOfMemory`/`SegmentIo` if
    /// resolution fails.
    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()>;

    /// Simulates a user-mode read of `buf.len()` bytes at `va`, taking and
    /// resolving page faults as needed (may cross page and region
    /// boundaries).
    ///
    /// # Errors
    ///
    /// Propagates unresolved faults.
    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()>;

    /// Simulates a user-mode write, taking and resolving page faults
    /// (copy-on-write included) as needed.
    ///
    /// # Errors
    ///
    /// Propagates unresolved faults.
    fn vm_write(&self, ctx: CtxId, va: VirtAddr, buf: &[u8]) -> Result<()>;

    // ----- Introspection --------------------------------------------------

    /// The page geometry of the underlying machine.
    fn geometry(&self) -> PageGeometry;

    /// Number of resident pages currently held by a cache.
    ///
    /// # Errors
    ///
    /// Fails if the handle is dead.
    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64>;
}
