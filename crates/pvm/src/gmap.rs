//! The global map (§4.1.1) and location-stub index.
//!
//! One `(cache, offset) → Slot` hash table — the paper's single
//! structure every fault, pull, clean and copy goes through — plus the
//! index of per-virtual-page stubs whose source page is not resident,
//! keyed by that source location. Both live in [`crate::state::PvmState`]
//! and are only reachable under the state lock.

use crate::descriptors::Slot;
use crate::keys::CacheKey;
use chorus_hal::FxHashMap;

/// The global map.
#[derive(Default)]
pub(crate) struct GlobalMap {
    slots: FxHashMap<(CacheKey, u64), Slot>,
    /// Stubs threaded on a non-resident source location.
    loc_stubs: FxHashMap<(CacheKey, u64), Vec<(CacheKey, u64)>>,
    /// Live location stubs per *source* cache, maintained wherever a
    /// stub is threaded or unthreaded, so the cache-liveness check
    /// (`has_loc_stubs_from`, on every cache destroy and zombie
    /// collapse) is one lookup instead of a sweep of the whole index.
    /// Caches with no stubs have no entry.
    stubs_from: FxHashMap<CacheKey, usize>,
}

impl GlobalMap {
    // ----- slot table -------------------------------------------------------

    /// Looks up the slot at (cache, offset).
    pub fn get(&self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.slots.get(&(cache, off)).copied()
    }

    /// Installs a slot, returning the previous one.
    pub fn insert(&mut self, cache: CacheKey, off: u64, slot: Slot) -> Option<Slot> {
        self.slots.insert((cache, off), slot)
    }

    /// Removes the slot at (cache, offset), returning it.
    pub fn remove(&mut self, cache: CacheKey, off: u64) -> Option<Slot> {
        self.slots.remove(&(cache, off))
    }

    /// Total live slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every (key, slot) pair, for the invariant checker.
    pub fn slots(&self) -> impl Iterator<Item = ((CacheKey, u64), Slot)> + '_ {
        self.slots.iter().map(|(&k, &v)| (k, v))
    }

    // ----- location-stub index ----------------------------------------------

    /// Threads a per-page stub (dst cache, dst offset) onto the source
    /// location (cache, offset).
    pub fn push_loc_stub(&mut self, cache: CacheKey, off: u64, dst: (CacheKey, u64)) {
        self.loc_stubs.entry((cache, off)).or_default().push(dst);
        *self.stubs_from.entry(cache).or_insert(0) += 1;
    }

    /// Drops `n` stubs from `cache`'s live count.
    fn unthreaded(&mut self, cache: CacheKey, n: usize) {
        if n == 0 {
            return;
        }
        let left = self
            .stubs_from
            .get_mut(&cache)
            .expect("stub count underflow");
        *left -= n;
        if *left == 0 {
            self.stubs_from.remove(&cache);
        }
    }

    /// Takes (and removes) every stub waiting on (cache, offset).
    pub fn take_loc_stubs(&mut self, cache: CacheKey, off: u64) -> Vec<(CacheKey, u64)> {
        let taken = self.loc_stubs.remove(&(cache, off)).unwrap_or_default();
        self.unthreaded(cache, taken.len());
        taken
    }

    /// Unthreads one stub (dc, doff) from the list at (cache, offset).
    /// Returns true if the list existed and is now empty (and removed).
    pub fn unthread_loc_stub(
        &mut self,
        cache: CacheKey,
        off: u64,
        dc: CacheKey,
        doff: u64,
    ) -> bool {
        let key = (cache, off);
        let Some(list) = self.loc_stubs.get_mut(&key) else {
            return false;
        };
        let before = list.len();
        list.retain(|&(c, o)| !(c == dc && o == doff));
        let removed = before - list.len();
        let emptied = list.is_empty();
        if emptied {
            self.loc_stubs.remove(&key);
        }
        self.unthreaded(cache, removed);
        emptied
    }

    /// True if exactly `dst` is threaded on (cache, offset) — invariant
    /// checking only.
    pub fn loc_stub_registered(&self, cache: CacheKey, off: u64, dst: (CacheKey, u64)) -> bool {
        self.loc_stubs
            .get(&(cache, off))
            .is_some_and(|l| l.contains(&dst))
    }

    /// True if any stub is threaded on (cache, offset).
    pub fn has_loc_stubs_at(&self, cache: CacheKey, off: u64) -> bool {
        self.loc_stubs
            .get(&(cache, off))
            .is_some_and(|l| !l.is_empty())
    }

    /// True if any location anywhere in `cache` still has threaded stubs
    /// (cache-liveness check; one lookup in the per-cache count).
    pub fn has_loc_stubs_from(&self, cache: CacheKey) -> bool {
        self.stubs_from.contains_key(&cache)
    }

    /// The per-cache live-stub counts, for the invariant checker to
    /// compare against a full scan of the index.
    pub fn loc_stub_counts(&self) -> &FxHashMap<CacheKey, usize> {
        &self.stubs_from
    }

    /// The whole stub index: each source location with its stub list.
    pub fn loc_stubs(&self) -> impl Iterator<Item = ((CacheKey, u64), &[(CacheKey, u64)])> {
        self.loc_stubs.iter().map(|(&k, v)| (k, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    fn keys(n: u32) -> Vec<CacheKey> {
        (0..n).map(|i| Id::from_raw_parts(i, 1)).collect()
    }

    #[test]
    fn slots_roundtrip() {
        let mut m = GlobalMap::default();
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
        let mut m = GlobalMap::default();
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
