//! A small direct-mapped TLB model shared by the MMU back-ends.
//!
//! The TLB caches (vpn → frame, prot) for the *current* context only and
//! is flushed on context switch, matching the un-tagged TLBs of the
//! paper's era. It exists so the cost model can account for switch and
//! miss costs and so benches can report locality effects.
//!
//! The TLB holds no referenced bit. The back-ends load an entry only in
//! the table walk that sets the page table entry's bit, and whoever
//! clears that bit ([`crate::Mmu::take_referenced`]) invalidates the
//! entry with it. A hit therefore has nothing to set, and the first
//! access after the bit was taken is a miss that sets it again.

use crate::addr::Vpn;
use crate::frame::FrameNo;
use crate::mmu::Prot;

#[derive(Clone, Copy)]
struct TlbEntry {
    vpn: Vpn,
    frame: FrameNo,
    prot: Prot,
}

/// Statistics accumulated by a [`Tlb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Whole-TLB flushes (context switches).
    pub flushes: u64,
    /// Single-entry invalidations.
    pub invalidations: u64,
}

/// A direct-mapped translation lookaside buffer.
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `size` entries (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(size: usize) -> Tlb {
        assert!(size.is_power_of_two(), "TLB size must be a power of two");
        Tlb {
            entries: vec![None; size],
            stats: TlbStats::default(),
        }
    }

    #[inline]
    fn slot(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.entries.len() - 1)
    }

    /// Looks up a translation, updating hit/miss statistics.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<(FrameNo, Prot)> {
        let slot = self.slot(vpn);
        match self.entries[slot] {
            Some(e) if e.vpn == vpn => {
                self.stats.hits += 1;
                Some((e.frame, e.prot))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs a translation (evicting whatever shared its slot).
    pub fn insert(&mut self, vpn: Vpn, frame: FrameNo, prot: Prot) {
        let slot = self.slot(vpn);
        self.entries[slot] = Some(TlbEntry { vpn, frame, prot });
    }

    /// Invalidates the entry for one page, if cached.
    pub fn invalidate(&mut self, vpn: Vpn) {
        let slot = self.slot(vpn);
        if matches!(self.entries[slot], Some(e) if e.vpn == vpn) {
            self.entries[slot] = None;
            self.stats.invalidations += 1;
        }
    }

    /// Flushes the whole TLB (context switch).
    pub fn flush(&mut self) {
        self.entries.fill(None);
        self.stats.flushes += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(16);
        assert_eq!(tlb.lookup(Vpn(5)), None);
        tlb.insert(Vpn(5), FrameNo(9), Prot::RW);
        assert_eq!(tlb.lookup(Vpn(5)), Some((FrameNo(9), Prot::RW)));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn conflicting_slots_evict() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(1), FrameNo(1), Prot::READ);
        tlb.insert(Vpn(5), FrameNo(2), Prot::READ); // Same slot (1 mod 4).
        assert_eq!(tlb.lookup(Vpn(1)), None);
        assert_eq!(tlb.lookup(Vpn(5)), Some((FrameNo(2), Prot::READ)));
    }

    #[test]
    fn invalidate_removes_only_matching_vpn() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(2), FrameNo(3), Prot::RW);
        tlb.invalidate(Vpn(6)); // Same slot, different vpn: no-op.
        assert_eq!(tlb.lookup(Vpn(2)), Some((FrameNo(3), Prot::RW)));
        tlb.invalidate(Vpn(2));
        assert_eq!(tlb.lookup(Vpn(2)), None);
        assert_eq!(tlb.stats().invalidations, 1);
    }

    #[test]
    fn flush_clears_all() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(0), FrameNo(0), Prot::READ);
        tlb.insert(Vpn(1), FrameNo(1), Prot::READ);
        tlb.flush();
        assert_eq!(tlb.lookup(Vpn(0)), None);
        assert_eq!(tlb.lookup(Vpn(1)), None);
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Tlb::new(3);
    }
}
