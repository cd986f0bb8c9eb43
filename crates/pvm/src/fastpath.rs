//! The soft-fault fast path: a generation-validated resident
//! translation cache.
//!
//! A soft fault — the page is resident, not COW, not a stub, and the
//! access is already allowed by the installed protection — needs no PVM
//! state change at all: the MMU mapping is (or was just) present and the
//! fault exists only because the simulated MMU had not yet been told, or
//! because a racing thread re-faulted after a benign TLB-style miss.
//! Serializing those faults behind the big state mutex is the
//! single-lock scalability wall this cache removes (cf. Mach's VM lock,
//! RadixVM): `handle_fault` consults it *before* taking the mutex and,
//! on a hit, returns without locking anything but one sharded read lock.
//!
//! **Invalidation protocol.** Correctness does not ride on per-entry
//! precision: a single global generation counter is bumped (and all
//! shards cleared) by every operation that revokes or narrows an
//! existing translation — unmap, reprotect, eviction/cleaning,
//! region/context destruction, cache quarantine. An entry is valid only
//! if its recorded generation equals the current one, so a reader that
//! raced a bump falls through to the slow path, which re-derives truth
//! under the mutex. Installs happen only while the state mutex is held
//! (from `map_page`), so an entry can never outlive the MMU mapping it
//! mirrors by more than one generation bump. A fast hit leaves the
//! page's reference alone and loses nothing by it: the access that
//! follows the fault walks the page table (or hits a TLB entry that a
//! walk loaded), and the walk sets the mapping's hardware referenced
//! bit, which is what replacement reads.

use crate::keys::CtxKey;
use crate::stats::{Counter, StatsRegistry};
use crate::telemetry::{Dim, DimCounter, Telemetry};
use chorus_hal::{Access, FrameNo, FxHashMap, Prot, Vpn};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of read-mostly shards (fixed; keyed by (ctx, vpn) hash).
const SHARDS: usize = 16;

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FastEntry {
    /// The physical frame the MMU maps (ctx, vpn) to.
    pub frame: FrameNo,
    /// The protection installed in the MMU for this mapping.
    pub prot: Prot,
    /// Generation at install time; stale when != current.
    pub gen: u64,
}

/// One read-mostly shard of the translation cache.
type FastShard = RwLock<FxHashMap<(CtxKey, Vpn), FastEntry>>;

/// The sharded, generation-validated translation cache.
pub(crate) struct TranslationCache {
    enabled: AtomicBool,
    shards: Box<[FastShard]>,
    /// Current generation; entries from older generations are dead.
    generation: AtomicU64,
    /// Shared counter registry: hit/fallback counts land in the same
    /// atomic cells every other PVM counter lives in, so the snapshot
    /// never has to fold divergent copies.
    stats: Arc<StatsRegistry>,
    /// Shared dimensional registry: fast hits are the one per-context
    /// event the slow path never sees, so the lock-free path must
    /// attribute them itself (a no-op when telemetry is off).
    telemetry: Arc<Telemetry>,
}

impl TranslationCache {
    pub fn new(
        enabled: bool,
        stats: Arc<StatsRegistry>,
        telemetry: Arc<Telemetry>,
    ) -> TranslationCache {
        TranslationCache {
            enabled: AtomicBool::new(enabled),
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            generation: AtomicU64::new(0),
            stats,
            telemetry,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    #[inline]
    fn shard(&self, key: &(CtxKey, Vpn)) -> &FastShard {
        &self.shards[(chorus_hal::fx_hash_one(key) as usize) & (SHARDS - 1)]
    }

    /// The lock-avoiding fault check. Returns true if a current-
    /// generation entry exists for (ctx, vpn) whose installed protection
    /// already allows `access` — in that case the MMU mapping is valid
    /// and the fault needs no state mutation at all.
    pub fn lookup(&self, ctx: CtxKey, vpn: Vpn, access: Access) -> bool {
        if !self.enabled() {
            return false;
        }
        // Acquire pairs with the Release bump: if we read generation G
        // here, every invalidation up to bump G is visible, so an entry
        // stamped G still mirrors a live MMU mapping.
        let gen = self.generation.load(Ordering::Acquire);
        let key = (ctx, vpn);
        let hit = self
            .shard(&key)
            .read()
            .get(&key)
            .is_some_and(|e| e.gen == gen && e.prot.allows(access, false));
        if hit {
            self.stats.bump(Counter::FastPathHits);
            self.telemetry.bump(
                Dim::Context,
                u64::from(ctx.index()),
                DimCounter::FastPathHits,
            );
        } else {
            self.stats.bump(Counter::FastPathFallbacks);
        }
        hit
    }

    /// Records a translation just installed in the MMU. Called only
    /// while the state mutex is held, so the entry matches the mapping.
    pub fn install(&self, ctx: CtxKey, vpn: Vpn, frame: FrameNo, prot: Prot) {
        if !self.enabled() {
            return;
        }
        let gen = self.generation.load(Ordering::Relaxed);
        let key = (ctx, vpn);
        self.shard(&key)
            .write()
            .insert(key, FastEntry { frame, prot, gen });
    }

    /// Drops one translation (precise removal; no generation bump
    /// needed when the caller removes every entry it invalidated).
    pub fn remove(&self, ctx: CtxKey, vpn: Vpn) {
        if !self.enabled() {
            return;
        }
        let key = (ctx, vpn);
        self.shard(&key).write().remove(&key);
    }

    /// Invalidates everything: bumps the generation (Release, pairing
    /// with the Acquire in `lookup`) and clears all shards in ascending
    /// order. Used by bulk revocations (context destroy, quarantine)
    /// where enumerating affected entries is not worth it.
    pub fn bump_generation(&self) {
        if !self.enabled() {
            return;
        }
        self.generation.fetch_add(1, Ordering::Release);
        for s in self.shards.iter() {
            s.write().clear();
        }
    }

    #[cfg(test)]
    pub fn hits(&self) -> u64 {
        self.stats.get(Counter::FastPathHits)
    }

    #[cfg(test)]
    pub fn fallbacks(&self) -> u64 {
        self.stats.get(Counter::FastPathFallbacks)
    }

    /// Copies out every *current-generation* entry (for the invariant
    /// checker). Ascending shard order.
    pub fn snapshot(&self) -> Vec<((CtxKey, Vpn), FastEntry)> {
        let gen = self.generation.load(Ordering::Acquire);
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(
                s.read()
                    .iter()
                    .filter(|(_, e)| e.gen == gen)
                    .map(|(&k, &e)| (k, e)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn ctx(i: u32) -> CtxKey {
        Id::from_raw_parts(i, 1)
    }

    fn cache(enabled: bool) -> TranslationCache {
        TranslationCache::new(
            enabled,
            Arc::new(StatsRegistry::new()),
            Arc::new(Telemetry::new(false)),
        )
    }

    #[test]
    fn hit_requires_matching_generation_and_protection() {
        let c = cache(true);
        c.install(ctx(1), Vpn(4), FrameNo(9), Prot::READ);
        assert!(c.lookup(ctx(1), Vpn(4), Access::Read));
        assert!(
            !c.lookup(ctx(1), Vpn(4), Access::Write),
            "read-only entry must not satisfy a write fault"
        );
        c.bump_generation();
        assert!(
            !c.lookup(ctx(1), Vpn(4), Access::Read),
            "stale generation falls through to the slow path"
        );
        assert_eq!(c.hits(), 1);
        assert_eq!(c.fallbacks(), 2);
    }

    #[test]
    fn precise_remove_and_disabled_mode() {
        let c = cache(true);
        c.install(ctx(2), Vpn(7), FrameNo(1), Prot::RW);
        c.remove(ctx(2), Vpn(7));
        assert!(!c.lookup(ctx(2), Vpn(7), Access::Read));

        let off = cache(false);
        off.install(ctx(2), Vpn(7), FrameNo(1), Prot::RW);
        assert!(!off.lookup(ctx(2), Vpn(7), Access::Read));
        assert_eq!(off.fallbacks(), 0, "disabled mode counts nothing");
    }
}
