//! The sharded global map (§4.1.1) and location-stub index.
//!
//! The paper's global map is the one structure every fault, pull, clean
//! and copy touches, so on a multiprocessor it must not convoy on a
//! single lock. This module lock-stripes the `(cache, offset) → Slot`
//! table and the location-stub index across N mutex-protected shards
//! hashed by [`chorus_hal::fx_hash_one`] of the key. Offsets are
//! page-strided, so the Fx mix spreads consecutive pages of one cache
//! across shards and two unrelated caches almost never share one.
//!
//! **Ordering discipline:** any operation that must visit more than one
//! shard (the snapshot helpers used by the invariant checker and the
//! dumps) visits shards in ascending index order and never holds two
//! shard locks at once unless acquired in that order. Today the outer `Mutex<PvmState>` already serializes
//! whole multi-shard *transactions* (history walks, copies); the shard
//! locks exist so the lock-free fault fast path and future finer-grained
//! entry points see a consistent per-entry view, and so contention on
//! the map itself is measurable (`contention()`), not hidden.

use crate::descriptors::Slot;
use crate::keys::CacheKey;

/// One stub list keyed by its source location, as copied out by
/// [`GlobalMap::loc_stubs_snapshot`].
type LocStubEntry = ((CacheKey, u64), Vec<(CacheKey, u64)>);
use crate::stats::{Counter, StatsRegistry};
use chorus_hal::{fx_hash_one, FxHashMap};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One lock stripe: a slice of the slot table plus the location stubs
/// whose *source* (cache, offset) hashes here.
#[derive(Default)]
struct Shard {
    slots: FxHashMap<(CacheKey, u64), Slot>,
    loc_stubs: FxHashMap<(CacheKey, u64), Vec<(CacheKey, u64)>>,
}

/// The lock-striped global map.
pub(crate) struct GlobalMap {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    /// Live slot count across all shards, maintained on insert/remove so
    /// `len()` — polled by the telemetry gauge sampler — never has to
    /// sweep the stripes.
    slot_count: AtomicUsize,
    /// Live location stubs per *source* cache, maintained wherever a
    /// stub is threaded or unthreaded, so the cache-liveness check
    /// (`has_loc_stubs_from`, on every cache destroy and zombie
    /// collapse) is one lookup instead of a sweep of the whole index.
    /// Caches with no stubs have no entry. A leaf lock: taken with a
    /// shard lock held, never the other way round.
    stubs_from: Mutex<FxHashMap<CacheKey, usize>>,
    /// Shared counter registry; contended shard-lock acquisitions bump
    /// `Counter::ShardContention` (exposed as
    /// `PvmStats::shard_contention`).
    stats: Arc<StatsRegistry>,
}

impl GlobalMap {
    /// Creates a map with `shards` stripes, rounded up to a power of two
    /// (and at least 1) so shard selection is a mask.
    pub fn new(shards: usize, stats: Arc<StatsRegistry>) -> GlobalMap {
        let n = shards.max(1).next_power_of_two();
        GlobalMap {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: (n - 1) as u64,
            slot_count: AtomicUsize::new(0),
            stubs_from: Mutex::new(FxHashMap::default()),
            stats,
        }
    }

    /// Number of stripes (power of two).
    #[cfg(test)]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_for(&self, key: &(CacheKey, u64)) -> &Mutex<Shard> {
        &self.shards[(fx_hash_one(key) & self.mask) as usize]
    }

    /// Locks one shard, counting contention when the uncontended
    /// try-lock misses.
    #[inline]
    fn lock<'a>(&'a self, m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.stats.bump(Counter::ShardContention);
                m.lock()
            }
        }
    }

    // ----- slot table -------------------------------------------------------

    /// Looks up the slot at (cache, offset).
    pub fn get(&self, cache: CacheKey, off: u64) -> Option<Slot> {
        let key = (cache, off);
        self.lock(self.shard_for(&key)).slots.get(&key).copied()
    }

    /// Installs a slot, returning the previous one.
    pub fn insert(&self, cache: CacheKey, off: u64, slot: Slot) -> Option<Slot> {
        let key = (cache, off);
        let prev = self.lock(self.shard_for(&key)).slots.insert(key, slot);
        if prev.is_none() {
            self.slot_count.fetch_add(1, Ordering::Relaxed);
        }
        prev
    }

    /// Removes the slot at (cache, offset), returning it.
    pub fn remove(&self, cache: CacheKey, off: u64) -> Option<Slot> {
        let key = (cache, off);
        let prev = self.lock(self.shard_for(&key)).slots.remove(&key);
        if prev.is_some() {
            self.slot_count.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    }

    /// Total live slots across all shards (one relaxed load).
    pub fn len(&self) -> usize {
        self.slot_count.load(Ordering::Relaxed)
    }

    /// Live slots per stripe, ascending shard order — the balance gauge
    /// behind `pvmtop` (a skewed vector means one stripe convoys).
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| self.lock(s).slots.len())
            .collect()
    }

    /// Copies out every (key, slot) pair, in ascending shard order, for
    /// the invariant checker and debug dumps. Not a consistent global
    /// snapshot unless the caller holds the state mutex.
    pub fn slots_snapshot(&self) -> Vec<((CacheKey, u64), Slot)> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(self.lock(s).slots.iter().map(|(&k, &v)| (k, v)));
        }
        out
    }

    // ----- location-stub index ----------------------------------------------

    /// Threads a per-page stub (dst cache, dst offset) onto the source
    /// location (cache, offset).
    pub fn push_loc_stub(&self, cache: CacheKey, off: u64, dst: (CacheKey, u64)) {
        let key = (cache, off);
        let mut g = self.lock(self.shard_for(&key));
        g.loc_stubs.entry(key).or_default().push(dst);
        *self.stubs_from.lock().entry(cache).or_insert(0) += 1;
    }

    /// Drops `n` stubs from `cache`'s live count (called with the
    /// source location's shard lock held).
    fn unthreaded(&self, cache: CacheKey, n: usize) {
        if n == 0 {
            return;
        }
        let mut counts = self.stubs_from.lock();
        let left = counts.get_mut(&cache).expect("stub count underflow");
        *left -= n;
        if *left == 0 {
            counts.remove(&cache);
        }
    }

    /// Takes (and removes) every stub waiting on (cache, offset).
    pub fn take_loc_stubs(&self, cache: CacheKey, off: u64) -> Vec<(CacheKey, u64)> {
        let key = (cache, off);
        let mut g = self.lock(self.shard_for(&key));
        let taken = g.loc_stubs.remove(&key).unwrap_or_default();
        self.unthreaded(cache, taken.len());
        taken
    }

    /// Unthreads one stub (dc, doff) from the list at (cache, offset).
    /// Returns true if the list existed and is now empty (and removed).
    pub fn unthread_loc_stub(&self, cache: CacheKey, off: u64, dc: CacheKey, doff: u64) -> bool {
        let key = (cache, off);
        let mut g = self.lock(self.shard_for(&key));
        let Some(list) = g.loc_stubs.get_mut(&key) else {
            return false;
        };
        let before = list.len();
        list.retain(|&(c, o)| !(c == dc && o == doff));
        let removed = before - list.len();
        let emptied = list.is_empty();
        if emptied {
            g.loc_stubs.remove(&key);
        }
        self.unthreaded(cache, removed);
        emptied
    }

    /// True if exactly `dst` is threaded on (cache, offset) — invariant
    /// checking only.
    pub fn loc_stub_registered(&self, cache: CacheKey, off: u64, dst: (CacheKey, u64)) -> bool {
        let key = (cache, off);
        self.lock(self.shard_for(&key))
            .loc_stubs
            .get(&key)
            .is_some_and(|l| l.contains(&dst))
    }

    /// True if any stub is threaded on (cache, offset).
    pub fn has_loc_stubs_at(&self, cache: CacheKey, off: u64) -> bool {
        let key = (cache, off);
        self.lock(self.shard_for(&key))
            .loc_stubs
            .get(&key)
            .is_some_and(|l| !l.is_empty())
    }

    /// True if any location anywhere in `cache` still has threaded stubs
    /// (cache-liveness check; one lookup in the per-cache count).
    pub fn has_loc_stubs_from(&self, cache: CacheKey) -> bool {
        self.stubs_from.lock().contains_key(&cache)
    }

    /// The per-cache live-stub counts, for the invariant checker to
    /// compare against a full scan of the index.
    pub fn loc_stub_counts(&self) -> FxHashMap<CacheKey, usize> {
        self.stubs_from.lock().clone()
    }

    /// Copies out the whole stub index, ascending shard order.
    pub fn loc_stubs_snapshot(&self) -> Vec<LocStubEntry> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(self.lock(s).loc_stubs.iter().map(|(&k, v)| (k, v.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn keys(n: u32) -> Vec<CacheKey> {
        (0..n).map(|i| Id::from_raw_parts(i, 1)).collect()
    }

    fn map(shards: usize) -> GlobalMap {
        GlobalMap::new(shards, Arc::new(StatsRegistry::new()))
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(map(0).shard_count(), 1);
        assert_eq!(map(5).shard_count(), 8);
        assert_eq!(map(16).shard_count(), 16);
    }

    #[test]
    fn slots_roundtrip_across_shards() {
        let m = map(8);
        let ks = keys(3);
        for (i, &c) in ks.iter().enumerate() {
            for o in 0..64u64 {
                m.insert(c, o * 8192, Slot::Cow(crate::descriptors::CowSource::Zero));
                assert!(m.get(c, o * 8192).is_some(), "key {i}/{o}");
            }
        }
        assert_eq!(m.len(), 3 * 64);
        for &c in &ks {
            for o in 0..64u64 {
                assert!(m.remove(c, o * 8192).is_some());
            }
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn loc_stub_threading() {
        let m = map(4);
        let ks = keys(2);
        let (src, dst) = (ks[0], ks[1]);
        m.push_loc_stub(src, 0, (dst, 8192));
        m.push_loc_stub(src, 0, (dst, 16384));
        assert!(m.has_loc_stubs_at(src, 0));
        assert!(m.has_loc_stubs_from(src));
        assert!(!m.unthread_loc_stub(src, 0, dst, 8192), "one stub remains");
        assert!(m.unthread_loc_stub(src, 0, dst, 16384), "now emptied");
        assert!(!m.has_loc_stubs_from(src));
        m.push_loc_stub(src, 8192, (dst, 0));
        assert_eq!(m.take_loc_stubs(src, 8192), vec![(dst, 0)]);
        assert!(m.take_loc_stubs(src, 8192).is_empty());
    }
}
