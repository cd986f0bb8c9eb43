//! Actors, Nucleus region operations (§5.1.4), segment caching (§5.1.3)
//! and the IPC data path (§5.1.6).

use crate::capability::Capability;
use crate::capability::PortName;
use crate::ipc::{IpcError, Message, Ports};
use crate::segment_manager::{NucleusSegmentManager, SegmentCachingStats};
use chorus_gmi::{CacheId, CtxId, Gmi, GmiError, Prot, RegionId, Result, VirtAddr};
use chorus_hal::FxHashMap;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// An actor identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Actor(pub u64);

/// The 64 KB IPC message limit, in pages of the configured geometry.
pub const TRANSIT_SLOT_PAGES: u64 = 8;

/// What a region is backed by, for teardown accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Backing {
    /// A temporary cache created by `rgnAllocate`/`rgnInit`; destroyed
    /// with its last region.
    Temp(CacheId),
    /// A capability-bound cache; released to the segment cache.
    Cap(Capability),
    /// Another region's cache shared via `rgnMapFromActor`; the owner
    /// accounts for it.
    Shared,
}

struct Bound {
    cache: CacheId,
    refs: u32,
    last_use: u64,
}

struct NucInner {
    actors: FxHashMap<Actor, CtxId>,
    next_actor: u64,
    region_backing: FxHashMap<RegionId, Backing>,
    temp_refs: FxHashMap<CacheId, u32>,
    bound: FxHashMap<Capability, Bound>,
    lru_tick: u64,
    caching_enabled: bool,
    cache_limit: usize,
    caching_stats: SegmentCachingStats,
    transit_slots: Vec<bool>,
}

/// The Chorus Nucleus: the kernel-dependent layer above the GMI.
///
/// Generic over the memory manager, reproducing §5.2: "The MM
/// implementation is the only difference between these Nucleus
/// versions."
pub struct Nucleus<G: Gmi> {
    gmi: Arc<G>,
    seg_mgr: Arc<NucleusSegmentManager>,
    ports: Ports,
    transit_cache: CacheId,
    slot_size: u64,
    inner: Mutex<NucInner>,
}

impl<G: Gmi> Nucleus<G> {
    /// Creates a Nucleus over a memory manager and segment manager,
    /// allocating the fixed transit segment (`slots` slots of 8 pages).
    pub fn new(gmi: Arc<G>, seg_mgr: Arc<NucleusSegmentManager>, slots: usize) -> Nucleus<G> {
        let transit_cache = gmi.cache_create(None).expect("transit cache");
        let slot_size = gmi.geometry().page_size() * TRANSIT_SLOT_PAGES;
        Nucleus {
            gmi,
            seg_mgr,
            ports: Ports::new(),
            transit_cache,
            slot_size,
            inner: Mutex::new(NucInner {
                actors: FxHashMap::default(),
                next_actor: 1,
                region_backing: FxHashMap::default(),
                temp_refs: FxHashMap::default(),
                bound: FxHashMap::default(),
                lru_tick: 0,
                caching_enabled: true,
                cache_limit: 64,
                caching_stats: SegmentCachingStats::default(),
                transit_slots: vec![false; slots],
            }),
        }
    }

    /// The underlying memory manager.
    pub fn gmi(&self) -> &Arc<G> {
        &self.gmi
    }

    /// The segment manager.
    pub fn segment_manager(&self) -> &Arc<NucleusSegmentManager> {
        &self.seg_mgr
    }

    /// The maximum IPC message size in bytes.
    pub fn message_limit(&self) -> u64 {
        self.slot_size
    }

    // ----- actors -------------------------------------------------------------

    /// Creates an actor (an address space hosting threads).
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn actor_create(&self) -> Result<Actor> {
        let ctx = self.gmi.context_create()?;
        let mut inner = self.inner.lock();
        let id = Actor(inner.next_actor);
        inner.next_actor += 1;
        inner.actors.insert(id, ctx);
        Ok(id)
    }

    /// Destroys an actor and all its regions.
    ///
    /// # Errors
    ///
    /// Fails on unknown actors.
    pub fn actor_destroy(&self, actor: Actor) -> Result<()> {
        let ctx = self.ctx(actor)?;
        // Release backings of every region first.
        let regions = self.gmi.region_list(ctx)?;
        for (region, _status) in regions {
            self.rgn_free_inner(region, false)?;
        }
        self.gmi.context_destroy(ctx)?;
        self.inner.lock().actors.remove(&actor);
        Ok(())
    }

    /// The context of an actor.
    ///
    /// # Errors
    ///
    /// Fails on unknown actors.
    pub fn ctx(&self, actor: Actor) -> Result<CtxId> {
        self.inner
            .lock()
            .actors
            .get(&actor)
            .copied()
            .ok_or(GmiError::InvalidArgument("unknown actor"))
    }

    /// Reads actor memory (user-access simulation).
    ///
    /// # Errors
    ///
    /// Propagates faults.
    pub fn read_mem(&self, actor: Actor, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.gmi.vm_read(self.ctx(actor)?, va, buf)
    }

    /// Writes actor memory (user-access simulation).
    ///
    /// # Errors
    ///
    /// Propagates faults.
    pub fn write_mem(&self, actor: Actor, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.gmi.vm_write(self.ctx(actor)?, va, data)
    }

    // ----- segment caching (§5.1.3) --------------------------------------------

    /// Enables/disables segment caching and sets the kept-cache limit.
    pub fn set_segment_caching(&self, enabled: bool, limit: usize) {
        let mut inner = self.inner.lock();
        inner.caching_enabled = enabled;
        inner.cache_limit = limit;
    }

    /// Segment-caching statistics.
    pub fn segment_caching_stats(&self) -> SegmentCachingStats {
        self.inner.lock().caching_stats
    }

    /// Finds or creates the local cache bound to a capability,
    /// incrementing its reference count.
    fn acquire_cache(&self, cap: Capability) -> Result<CacheId> {
        let mut inner = self.inner.lock();
        inner.lru_tick += 1;
        let tick = inner.lru_tick;
        if let Some(b) = inner.bound.get_mut(&cap) {
            // "the manager first checks if there is a cache already kept
            // for it" — the hit that makes repeated execs fast.
            b.refs += 1;
            b.last_use = tick;
            let cache = b.cache;
            inner.caching_stats.hits += 1;
            return Ok(cache);
        }
        inner.caching_stats.misses += 1;
        drop(inner);
        let segment = self.seg_mgr.segment_for(cap);
        let cache = self.gmi.cache_create(Some(segment))?;
        let mut inner = self.inner.lock();
        inner.bound.insert(
            cap,
            Bound {
                cache,
                refs: 1,
                last_use: tick,
            },
        );
        Ok(cache)
    }

    /// Drops one reference to a bound cache; unreferenced caches are
    /// kept "as long as there is enough free physical memory, and enough
    /// space in the segment manager tables".
    fn release_cache(&self, cap: Capability) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(b) = inner.bound.get_mut(&cap) else {
            return Ok(());
        };
        b.refs = b.refs.saturating_sub(1);
        let keep = inner.caching_enabled;
        // Evict beyond the table limit, oldest unreferenced first.
        let mut to_destroy: Vec<(Capability, CacheId)> = Vec::new();
        if !keep {
            if let Some(b) = inner.bound.get(&cap) {
                if b.refs == 0 {
                    to_destroy.push((cap, b.cache));
                }
            }
        } else {
            let unreferenced: usize = inner.bound.values().filter(|b| b.refs == 0).count();
            if unreferenced > inner.cache_limit {
                let mut idle: Vec<(Capability, u64, CacheId)> = inner
                    .bound
                    .iter()
                    .filter(|(_, b)| b.refs == 0)
                    .map(|(&c, b)| (c, b.last_use, b.cache))
                    .collect();
                idle.sort_by_key(|&(_, t, _)| t);
                for &(c, _, cache) in idle.iter().take(unreferenced - inner.cache_limit) {
                    to_destroy.push((c, cache));
                }
            }
        }
        for (c, _) in &to_destroy {
            inner.bound.remove(c);
            inner.caching_stats.evictions += 1;
        }
        drop(inner);
        for (_, cache) in to_destroy {
            // A cache may refuse destruction if still mapped elsewhere
            // (shared via rgnMapFromActor); that's fine — it stays alive
            // through the mapping.
            let _ = self.gmi.cache_destroy(cache);
        }
        Ok(())
    }

    // ----- Nucleus region operations (§5.1.4) -------------------------------------

    /// `rgnAllocate`: a new zero-filled memory region (temporary cache).
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_allocate(
        &self,
        actor: Actor,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
    ) -> Result<RegionId> {
        let ctx = self.ctx(actor)?;
        let cache = self.gmi.cache_create(None)?;
        let region = match self.gmi.region_create(ctx, addr, size, prot, cache, 0) {
            Ok(r) => r,
            Err(e) => {
                let _ = self.gmi.cache_destroy(cache);
                return Err(e);
            }
        };
        let mut inner = self.inner.lock();
        inner.region_backing.insert(region, Backing::Temp(cache));
        *inner.temp_refs.entry(cache).or_insert(0) += 1;
        Ok(region)
    }

    /// `rgnMap`: maps an existing segment into an actor.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_map(
        &self,
        actor: Actor,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cap: Capability,
        offset: u64,
    ) -> Result<RegionId> {
        let ctx = self.ctx(actor)?;
        let cache = self.acquire_cache(cap)?;
        let region = match self.gmi.region_create(ctx, addr, size, prot, cache, offset) {
            Ok(r) => r,
            Err(e) => {
                self.release_cache(cap)?;
                return Err(e);
            }
        };
        self.inner
            .lock()
            .region_backing
            .insert(region, Backing::Cap(cap));
        Ok(region)
    }

    /// `rgnInit`: a new region initialized as a (deferred) copy of an
    /// existing segment.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_init(
        &self,
        actor: Actor,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cap: Capability,
        offset: u64,
    ) -> Result<RegionId> {
        let ctx = self.ctx(actor)?;
        let src = self.acquire_cache(cap)?;
        let cache = self.gmi.cache_create(None)?;
        let res = self
            .gmi
            .cache_copy(src, offset, cache, 0, size)
            .and_then(|()| self.gmi.region_create(ctx, addr, size, prot, cache, 0));
        // The deferred copy keeps its own link to the source; the
        // capability reference can be released immediately.
        self.release_cache(cap)?;
        match res {
            Ok(region) => {
                let mut inner = self.inner.lock();
                inner.region_backing.insert(region, Backing::Temp(cache));
                *inner.temp_refs.entry(cache).or_insert(0) += 1;
                Ok(region)
            }
            Err(e) => {
                let _ = self.gmi.cache_destroy(cache);
                Err(e)
            }
        }
    }

    /// `rgnMapFromActor`: maps the segment behind a source actor's
    /// region (found by address) into another actor — sharing, not
    /// copying (Unix `fork` text segments).
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_map_from_actor(
        &self,
        actor: Actor,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        src_actor: Actor,
        src_va: VirtAddr,
    ) -> Result<RegionId> {
        let ctx = self.ctx(actor)?;
        let src_ctx = self.ctx(src_actor)?;
        let src_region = self.gmi.find_region(src_ctx, src_va)?;
        let status = self.gmi.region_status(src_region)?;
        let offset = status.va_to_offset(src_va);
        let region = self
            .gmi
            .region_create(ctx, addr, size, prot, status.cache, offset)?;
        let mut inner = self.inner.lock();
        // Share accounting: if the source is a temp cache, bump its ref.
        let backing = match inner.region_backing.get(&src_region) {
            Some(Backing::Temp(c)) => {
                let c = *c;
                *inner.temp_refs.entry(c).or_insert(0) += 1;
                Backing::Temp(c)
            }
            Some(Backing::Cap(cap)) => {
                let cap = *cap;
                if let Some(b) = inner.bound.get_mut(&cap) {
                    b.refs += 1;
                }
                Backing::Cap(cap)
            }
            _ => Backing::Shared,
        };
        inner.region_backing.insert(region, backing);
        Ok(region)
    }

    /// `rgnInitFromActor`: a new region initialized as a deferred copy
    /// of a source actor's region (Unix `fork` data/stack).
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_init_from_actor(
        &self,
        actor: Actor,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        src_actor: Actor,
        src_va: VirtAddr,
    ) -> Result<RegionId> {
        let ctx = self.ctx(actor)?;
        let src_ctx = self.ctx(src_actor)?;
        let src_region = self.gmi.find_region(src_ctx, src_va)?;
        let status = self.gmi.region_status(src_region)?;
        let offset = status.va_to_offset(src_va);
        let cache = self.gmi.cache_create(None)?;
        let res = self
            .gmi
            .cache_copy(status.cache, offset, cache, 0, size)
            .and_then(|()| self.gmi.region_create(ctx, addr, size, prot, cache, 0));
        match res {
            Ok(region) => {
                let mut inner = self.inner.lock();
                inner.region_backing.insert(region, Backing::Temp(cache));
                *inner.temp_refs.entry(cache).or_insert(0) += 1;
                Ok(region)
            }
            Err(e) => {
                let _ = self.gmi.cache_destroy(cache);
                Err(e)
            }
        }
    }

    /// `rgnFree`: destroys a region and releases its backing.
    ///
    /// # Errors
    ///
    /// Propagates memory-manager failures.
    pub fn rgn_free(&self, region: RegionId) -> Result<()> {
        self.rgn_free_inner(region, true)
    }

    fn rgn_free_inner(&self, region: RegionId, destroy_region: bool) -> Result<()> {
        let backing = self.inner.lock().region_backing.remove(&region);
        if destroy_region {
            self.gmi.region_destroy(region)?;
        } else {
            // Caller (actor_destroy) lets context_destroy do it.
            self.gmi.region_destroy(region)?;
        }
        match backing {
            Some(Backing::Temp(cache)) => {
                let mut inner = self.inner.lock();
                let refs = inner.temp_refs.entry(cache).or_insert(1);
                *refs -= 1;
                let dead = *refs == 0;
                if dead {
                    inner.temp_refs.remove(&cache);
                }
                drop(inner);
                if dead {
                    self.gmi.cache_destroy(cache)?;
                }
            }
            Some(Backing::Cap(cap)) => self.release_cache(cap)?,
            Some(Backing::Shared) | None => {}
        }
        Ok(())
    }

    // ----- IPC data path (§5.1.6) ---------------------------------------------------

    /// Creates a port.
    pub fn port_create(&self) -> PortName {
        self.ports.create()
    }

    /// Destroys a port, reclaiming transit slots of undelivered
    /// messages.
    pub fn port_destroy(&self, port: PortName) {
        for msg in self.ports.destroy(port) {
            if let Message::Slot { slot, .. } = msg {
                self.inner.lock().transit_slots[slot] = false;
            }
        }
    }

    fn alloc_slot(&self) -> Option<usize> {
        let mut inner = self.inner.lock();
        let idx = inner.transit_slots.iter().position(|&used| !used)?;
        inner.transit_slots[idx] = true;
        Some(idx)
    }

    /// Sends `len` bytes at `va` of `actor` to a port.
    ///
    /// "An IPC send is implemented as a cache.copy between the
    /// user-space segment and a transit slot, if the segment is large
    /// enough, otherwise as a bcopy."
    ///
    /// # Errors
    ///
    /// Fails on oversized messages, dead ports, or faults.
    pub fn ipc_send(
        &self,
        actor: Actor,
        port: PortName,
        va: VirtAddr,
        len: u64,
    ) -> core::result::Result<(), IpcError> {
        if len > self.slot_size {
            return Err(IpcError::MessageTooLarge {
                size: len,
                limit: self.slot_size,
            });
        }
        let ctx = self.ctx(actor)?;
        let ps = self.gmi.geometry().page_size();
        // The deferred path needs page alignment on both sides.
        let region = self.gmi.find_region(ctx, va)?;
        let status = self.gmi.region_status(region)?;
        let src_off = status.va_to_offset(va);
        let aligned = src_off % ps == 0 && len >= ps && va.0 + len <= status.end().0;
        if aligned {
            let Some(slot) = self.alloc_slot() else {
                return Err(IpcError::TransitFull);
            };
            let slot_off = slot as u64 * self.slot_size;
            let main = len - (len % ps);
            self.gmi
                .cache_copy(status.cache, src_off, self.transit_cache, slot_off, main)?;
            if main < len {
                // Unaligned tail goes byte-wise.
                let mut tail = vec![0u8; (len - main) as usize];
                self.gmi.vm_read(ctx, VirtAddr(va.0 + main), &mut tail)?;
                self.gmi
                    .cache_write(self.transit_cache, slot_off + main, &tail)?;
            }
            self.ports
                .enqueue(port, Message::Slot { slot, len })
                .inspect_err(|_| {
                    self.inner.lock().transit_slots[slot] = false;
                })?;
        } else {
            let mut buf = vec![0u8; len as usize];
            self.gmi.vm_read(ctx, va, &mut buf)?;
            self.ports.enqueue(port, Message::Inline(buf))?;
        }
        Ok(())
    }

    /// Receives the next message on `port` into `va` of `actor`,
    /// blocking up to `timeout`. Returns the message length.
    ///
    /// "A receive is implemented by cache.move or bcopy."
    ///
    /// # Errors
    ///
    /// Fails on timeout, dead ports, undersized buffers, or faults.
    pub fn ipc_receive(
        &self,
        actor: Actor,
        port: PortName,
        va: VirtAddr,
        max_len: u64,
        timeout: Duration,
    ) -> core::result::Result<u64, IpcError> {
        let msg = self.ports.dequeue(port, timeout)?;
        if msg.len() > max_len {
            return Err(IpcError::MessageTooLarge {
                size: msg.len(),
                limit: max_len,
            });
        }
        let ctx = self.ctx(actor)?;
        let ps = self.gmi.geometry().page_size();
        match msg {
            Message::Inline(bytes) => {
                self.gmi.vm_write(ctx, va, &bytes)?;
                Ok(bytes.len() as u64)
            }
            Message::Slot { slot, len } => {
                let slot_off = slot as u64 * self.slot_size;
                let region = self.gmi.find_region(ctx, va)?;
                let status = self.gmi.region_status(region)?;
                let dst_off = status.va_to_offset(va);
                let aligned = dst_off % ps == 0 && va.0 + len <= status.end().0;
                if aligned {
                    let main = len - (len % ps);
                    if main > 0 {
                        self.gmi.cache_move(
                            self.transit_cache,
                            slot_off,
                            status.cache,
                            dst_off,
                            main,
                        )?;
                    }
                    if main < len {
                        let mut tail = vec![0u8; (len - main) as usize];
                        self.gmi
                            .cache_read(self.transit_cache, slot_off + main, &mut tail)?;
                        self.gmi.vm_write(ctx, VirtAddr(va.0 + main), &tail)?;
                    }
                } else {
                    let mut buf = vec![0u8; len as usize];
                    self.gmi
                        .cache_read(self.transit_cache, slot_off, &mut buf)?;
                    self.gmi.vm_write(ctx, va, &buf)?;
                }
                // Scrub and release the slot: "The kernel has a single
                // fixed-sized transit segment... made of 64 Kbyte slots."
                self.gmi
                    .cache_invalidate(self.transit_cache, slot_off, self.slot_size)?;
                self.inner.lock().transit_slots[slot] = false;
                Ok(len)
            }
        }
    }
}
