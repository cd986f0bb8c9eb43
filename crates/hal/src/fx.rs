//! A small FxHash-style hasher (multiply-xor, as used by rustc) for the
//! in-kernel tables.
//!
//! The default std `HashMap` hasher is SipHash-1-3, which is keyed and
//! DoS-resistant but costs tens of cycles per small key, and iterates in
//! a different order every run. The tables below are all keyed by ids
//! and offsets the kernel issues itself, never by bytes a client chooses,
//! so the collision-flooding threat model does not apply and a
//! two-instruction mix is the right trade:
//!
//! - the MMU page tables: `SoftMmu`'s context map and per-context
//!   tables, `TwoLevelMmu`'s context map;
//! - the PVM's global map, location-stub index, frame-owner index,
//!   clock positions, parked pages, demand pulls and telemetry cells;
//! - the Nucleus actor, region-backing, binding, segment-id, mapper,
//!   port and DSM page tables, and MIX's process table and program
//!   store (names the system installs, not user input);
//! - `ShadowVm`'s frame-owner index and the in-memory test segment
//!   manager, so comparisons with them are like for like.
//!
//! `scripts/verify.sh` fails on a std hash table anywhere in the kernel
//! crates. Kept in-repo so builds stay offline-capable (no external
//! `rustc-hash` dependency).

use core::hash::{BuildHasher, Hasher};

/// 64-bit spread constant (the golden-ratio multiplier used by FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: a single 64-bit accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply pushes entropy toward the high bits, but hash
        // consumers (hashbrown bucket selection) use
        // the LOW bits — for page-stride keys those are near-constant.
        // Rotate the high-entropy bits down (the rustc-hash v2 fix).
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`] instances (unkeyed, so equal keys
/// hash identically across maps and runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let fx = FxBuildHasher;
        assert_eq!(fx.hash_one((1u32, 0u64)), fx.hash_one((1u32, 0u64)));
        // Nearby keys must land in different low bits (hashbrown selects
        // buckets with the low bits).
        let h: FxHashSet<u64> = (0..64u64)
            .map(|o| fx.hash_one((7u32, o * 8192)) & 15)
            .collect();
        assert!(h.len() > 4, "page-stride keys must spread across buckets");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 13, i * 8192), i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i as u32 % 13, i * 8192)), Some(&i));
        }
    }
}
