//! A hash-table-backed MMU: the simplest correct back-end.
//!
//! Models MMUs like the Sun-3 custom MMU where the OS view is "a mapping
//! table per context". Each context is a hash map from virtual page number
//! to a page table entry (frame, protection, referenced bit). A shared
//! [`Tlb`] caches translations for the current context.

use crate::addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
use crate::cost::{CostModel, OpKind};
use crate::frame::FrameNo;
use crate::mmu::{Access, Mmu, MmuCtx, MmuFault, Prot};
use crate::tlb::{Tlb, TlbStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Default TLB entry count for the software MMUs.
pub const DEFAULT_TLB_ENTRIES: usize = 64;

/// A page table entry, base or large.
#[derive(Clone, Copy)]
struct Pte {
    frame: FrameNo,
    prot: Prot,
    /// Set by a table walk that ends in an allowed access; a large
    /// entry's bit stands for each of its base pages.
    referenced: bool,
}

impl Pte {
    fn new(frame: FrameNo, prot: Prot) -> Pte {
        Pte {
            frame,
            prot,
            referenced: false,
        }
    }
}

/// A software MMU with per-context hash page tables.
///
/// Supports an optional *large-page level*: per-context tables keyed by
/// large virtual page number (`geometry().large_factor()` base pages per
/// entry), cached by a second, separate TLB with its own statistics. The
/// large path costs nothing until the first large mapping is installed.
pub struct SoftMmu {
    geom: PageGeometry,
    model: Arc<CostModel>,
    ctxs: HashMap<u32, HashMap<Vpn, Pte>>,
    large: HashMap<u32, HashMap<Vpn, Pte>>,
    /// Live large mappings across all contexts (fast guard: translation
    /// skips the large path entirely while this is zero).
    large_total: usize,
    next: u32,
    current: Option<MmuCtx>,
    tlb: Tlb,
    large_tlb: Tlb,
}

impl SoftMmu {
    /// Creates a software MMU for the given geometry.
    pub fn new(geom: PageGeometry, model: Arc<CostModel>) -> SoftMmu {
        SoftMmu {
            geom,
            model,
            ctxs: HashMap::new(),
            large: HashMap::new(),
            large_total: 0,
            next: 0,
            current: None,
            tlb: Tlb::new(DEFAULT_TLB_ENTRIES),
            large_tlb: Tlb::new(DEFAULT_TLB_ENTRIES),
        }
    }

    /// TLB statistics (for benches and the ablation on MMU back-ends).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Attempts a large-page translation. Returns `None` when no usable
    /// large mapping covers `va` — including protection mismatches, which
    /// fall through to the base path so the fault carries the base
    /// mapping's protection.
    fn translate_large(
        &mut self,
        ctx: MmuCtx,
        va: VirtAddr,
        access: Access,
        system_mode: bool,
    ) -> Option<PhysAddr> {
        if self.large.get(&ctx.0).is_none_or(|t| t.is_empty()) {
            return None;
        }
        let lvpn = self.geom.large_vpn(va);
        let cached = if self.current == Some(ctx) {
            self.large_tlb.lookup(lvpn)
        } else {
            None
        };
        let (frame, prot) = match cached {
            Some(hit) => hit,
            None => {
                let pte = self.large.get_mut(&ctx.0)?.get_mut(&lvpn)?;
                self.model.charge(OpKind::TlbMiss);
                if !pte.prot.allows(access, system_mode) {
                    return None;
                }
                pte.referenced = true;
                let entry = (pte.frame, pte.prot);
                if self.current == Some(ctx) {
                    self.large_tlb.insert(lvpn, entry.0, entry.1);
                }
                entry
            }
        };
        if !prot.allows(access, system_mode) {
            return None;
        }
        Some(PhysAddr(
            frame.0 as u64 * self.geom.page_size() + self.geom.large_offset(va),
        ))
    }

    fn table(&self, ctx: MmuCtx) -> &HashMap<Vpn, Pte> {
        self.ctxs.get(&ctx.0).expect("MMU context does not exist")
    }

    fn table_mut(&mut self, ctx: MmuCtx) -> &mut HashMap<Vpn, Pte> {
        self.ctxs
            .get_mut(&ctx.0)
            .expect("MMU context does not exist")
    }

    fn maybe_invalidate(&mut self, ctx: MmuCtx, vpn: Vpn) {
        if self.current == Some(ctx) {
            self.tlb.invalidate(vpn);
        }
    }

    /// The large virtual page number covering base page `vpn`.
    fn large_vpn_of(&self, vpn: Vpn) -> Vpn {
        Vpn(vpn.0 / self.geom.large_factor())
    }

    /// Moves a set referenced bit from the large mapping at `lvpn` to
    /// every base mapping under it, the way an OS splits a huge page's
    /// accessed bit: the one bit stands for each base page, and each is
    /// then test-and-cleared on its own. Demotion does the same, so the
    /// bit is not lost with the large mapping.
    fn hand_down_large_bit(&mut self, ctx: MmuCtx, lvpn: Vpn) {
        let Some(pte) = self.large.get_mut(&ctx.0).and_then(|t| t.get_mut(&lvpn)) else {
            return;
        };
        if !core::mem::take(&mut pte.referenced) {
            return;
        }
        if self.current == Some(ctx) {
            self.large_tlb.invalidate(lvpn);
        }
        let factor = self.geom.large_factor();
        let table = self.table_mut(ctx);
        for v in lvpn.0 * factor..(lvpn.0 + 1) * factor {
            if let Some(base) = table.get_mut(&Vpn(v)) {
                base.referenced = true;
            }
        }
    }
}

impl Mmu for SoftMmu {
    fn geometry(&self) -> PageGeometry {
        self.geom
    }

    fn ctx_create(&mut self) -> MmuCtx {
        let id = self.next;
        self.next += 1;
        self.ctxs.insert(id, HashMap::new());
        self.model.charge(OpKind::DescriptorOp);
        MmuCtx(id)
    }

    fn ctx_destroy(&mut self, ctx: MmuCtx) {
        let table = self
            .ctxs
            .remove(&ctx.0)
            .expect("MMU context does not exist");
        self.model.charge_n(OpKind::UnmapPage, table.len() as u64);
        if let Some(large) = self.large.remove(&ctx.0) {
            self.large_total -= large.len();
            self.model.charge_n(OpKind::UnmapPage, large.len() as u64);
        }
        if self.current == Some(ctx) {
            self.current = None;
            self.tlb.flush();
            self.large_tlb.flush();
            self.model.charge(OpKind::TlbFlush);
        }
    }

    fn switch(&mut self, ctx: MmuCtx) {
        assert!(self.ctxs.contains_key(&ctx.0), "switch to dead MMU context");
        if self.current != Some(ctx) {
            self.current = Some(ctx);
            self.tlb.flush();
            self.large_tlb.flush();
            self.model.charge(OpKind::TlbFlush);
        }
    }

    fn current(&self) -> Option<MmuCtx> {
        self.current
    }

    fn map(&mut self, ctx: MmuCtx, vpn: Vpn, frame: FrameNo, prot: Prot) {
        self.table_mut(ctx).insert(vpn, Pte::new(frame, prot));
        self.maybe_invalidate(ctx, vpn);
        self.model.charge(OpKind::MapPage);
    }

    fn unmap(&mut self, ctx: MmuCtx, vpn: Vpn) -> Option<FrameNo> {
        let removed = self.table_mut(ctx).remove(&vpn);
        if removed.is_some() {
            self.maybe_invalidate(ctx, vpn);
            self.model.charge(OpKind::UnmapPage);
        }
        removed.map(|pte| pte.frame)
    }

    fn protect(&mut self, ctx: MmuCtx, vpn: Vpn, prot: Prot) -> bool {
        match self.table_mut(ctx).get_mut(&vpn) {
            Some(pte) => {
                pte.prot = prot;
                self.maybe_invalidate(ctx, vpn);
                self.model.charge(OpKind::ProtectPage);
                true
            }
            None => false,
        }
    }

    fn query(&self, ctx: MmuCtx, vpn: Vpn) -> Option<(FrameNo, Prot)> {
        self.table(ctx).get(&vpn).map(|pte| (pte.frame, pte.prot))
    }

    fn translate(
        &mut self,
        ctx: MmuCtx,
        va: VirtAddr,
        access: Access,
        system_mode: bool,
    ) -> Result<PhysAddr, MmuFault> {
        // Large mappings take precedence; a miss (or protection mismatch)
        // falls through to the base tables. The guard keeps this free for
        // configurations that never promote.
        if self.large_total > 0 {
            if let Some(pa) = self.translate_large(ctx, va, access, system_mode) {
                return Ok(pa);
            }
        }
        let vpn = self.geom.vpn(va);
        let offset = self.geom.page_offset(va);
        let cached = if self.current == Some(ctx) {
            self.tlb.lookup(vpn)
        } else {
            None
        };
        let (frame, prot) = match cached {
            Some(hit) => hit,
            None => {
                // Table walk. Only a walk that ends in an allowed access
                // sets the referenced bit and loads the TLB, so a cached
                // entry always has its bit set.
                let Some(pte) = self.table_mut(ctx).get_mut(&vpn) else {
                    return Err(MmuFault::NotMapped { va, access });
                };
                let allowed = pte.prot.allows(access, system_mode);
                pte.referenced |= allowed;
                let entry = (pte.frame, pte.prot);
                self.model.charge(OpKind::TlbMiss);
                if allowed && self.current == Some(ctx) {
                    self.tlb.insert(vpn, entry.0, entry.1);
                }
                entry
            }
        };
        if !prot.allows(access, system_mode) {
            return Err(MmuFault::ProtectionViolation { va, access, prot });
        }
        Ok(PhysAddr(frame.0 as u64 * self.geom.page_size() + offset))
    }

    fn referenced(&self, ctx: MmuCtx, vpn: Vpn) -> bool {
        let large = self.large_total > 0
            && self
                .large
                .get(&ctx.0)
                .and_then(|t| t.get(&self.large_vpn_of(vpn)))
                .is_some_and(|pte| pte.referenced);
        large || self.table(ctx).get(&vpn).is_some_and(|pte| pte.referenced)
    }

    fn take_referenced(&mut self, ctx: MmuCtx, vpn: Vpn) -> bool {
        if self.large_total > 0 {
            self.hand_down_large_bit(ctx, self.large_vpn_of(vpn));
        }
        let was = self
            .table_mut(ctx)
            .get_mut(&vpn)
            .is_some_and(|pte| core::mem::take(&mut pte.referenced));
        if was {
            self.maybe_invalidate(ctx, vpn);
        }
        was
    }

    fn mapped_count(&self, ctx: MmuCtx) -> usize {
        self.table(ctx).len()
    }

    fn supports_large(&self) -> bool {
        true
    }

    fn map_large(&mut self, ctx: MmuCtx, lvpn: Vpn, base_frame: FrameNo, prot: Prot) -> bool {
        assert!(self.ctxs.contains_key(&ctx.0), "MMU context does not exist");
        let prev = self
            .large
            .entry(ctx.0)
            .or_default()
            .insert(lvpn, Pte::new(base_frame, prot));
        if prev.is_none() {
            self.large_total += 1;
        }
        if self.current == Some(ctx) {
            self.large_tlb.invalidate(lvpn);
        }
        self.model.charge(OpKind::MapPage);
        true
    }

    fn unmap_large(&mut self, ctx: MmuCtx, lvpn: Vpn) -> Option<FrameNo> {
        self.hand_down_large_bit(ctx, lvpn);
        let removed = self.large.get_mut(&ctx.0).and_then(|t| t.remove(&lvpn));
        if removed.is_some() {
            self.large_total -= 1;
            if self.current == Some(ctx) {
                self.large_tlb.invalidate(lvpn);
            }
            self.model.charge(OpKind::UnmapPage);
        }
        removed.map(|pte| pte.frame)
    }

    fn has_large_mapping(&self, ctx: MmuCtx, lvpn: Vpn) -> bool {
        self.large
            .get(&ctx.0)
            .is_some_and(|t| t.contains_key(&lvpn))
    }

    fn large_mapped_count(&self, ctx: MmuCtx) -> usize {
        self.large.get(&ctx.0).map_or(0, HashMap::len)
    }

    fn large_tlb_stats(&self) -> Option<TlbStats> {
        Some(self.large_tlb.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    fn mk() -> SoftMmu {
        SoftMmu::new(PageGeometry::new(256), Arc::new(CostModel::counting()))
    }

    #[test]
    fn conformance_suite() {
        conformance::run(|model| SoftMmu::new(PageGeometry::new(256).with_large_factor(4), model));
    }

    #[test]
    fn tlb_caches_current_context_translations() {
        let mut m = mk();
        let c = m.ctx_create();
        m.switch(c);
        m.map(c, Vpn(3), FrameNo(7), Prot::RW);
        let va = VirtAddr(3 * 256 + 5);
        m.translate(c, va, Access::Read, false).unwrap();
        m.translate(c, va, Access::Read, false).unwrap();
        let stats = m.tlb_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn protect_invalidates_tlb_entry() {
        let mut m = mk();
        let c = m.ctx_create();
        m.switch(c);
        m.map(c, Vpn(0), FrameNo(0), Prot::RW);
        let va = VirtAddr(1);
        m.translate(c, va, Access::Write, false).unwrap();
        m.protect(c, Vpn(0), Prot::READ);
        // A stale TLB entry would let this write through.
        assert!(matches!(
            m.translate(c, va, Access::Write, false),
            Err(MmuFault::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn non_current_context_translation_bypasses_tlb() {
        let mut m = mk();
        let a = m.ctx_create();
        let b = m.ctx_create();
        m.switch(a);
        m.map(b, Vpn(1), FrameNo(2), Prot::READ);
        let va = VirtAddr(256 + 8);
        assert_eq!(
            m.translate(b, va, Access::Read, false),
            Ok(PhysAddr(2 * 256 + 8))
        );
        assert_eq!(m.tlb_stats().hits, 0);
    }

    /// Geometry 256-byte pages, large factor 4 (1 KiB large pages).
    fn mk_large() -> SoftMmu {
        SoftMmu::new(
            PageGeometry::new(256).with_large_factor(4),
            Arc::new(CostModel::counting()),
        )
    }

    #[test]
    fn large_mapping_translates_whole_run() {
        let mut m = mk_large();
        let c = m.ctx_create();
        m.switch(c);
        assert!(m.supports_large());
        // Large page 1 covers VAs [1024, 2048) -> frames 8..12.
        assert!(m.map_large(c, Vpn(1), FrameNo(8), Prot::READ));
        assert!(m.has_large_mapping(c, Vpn(1)));
        assert_eq!(m.large_mapped_count(c), 1);
        // No base mapping needed anywhere in the run.
        for off in [0u64, 255, 256, 1023] {
            let va = VirtAddr(1024 + off);
            assert_eq!(
                m.translate(c, va, Access::Read, false),
                Ok(PhysAddr(8 * 256 + off))
            );
        }
        // First translation walks, the rest hit the large TLB.
        let ls = m.large_tlb_stats().unwrap();
        assert_eq!(ls.misses, 1);
        assert_eq!(ls.hits, 3);
        // The base TLB never saw any of it.
        assert_eq!(m.tlb_stats().hits + m.tlb_stats().misses, 0);
    }

    #[test]
    fn large_protection_mismatch_falls_through_to_base() {
        let mut m = mk_large();
        let c = m.ctx_create();
        m.switch(c);
        m.map_large(c, Vpn(0), FrameNo(0), Prot::READ);
        // A write inside a read-only large page reports the *base* fault:
        // not-mapped here, since no base mapping exists.
        assert!(matches!(
            m.translate(c, VirtAddr(100), Access::Write, false),
            Err(MmuFault::NotMapped { .. })
        ));
        // With a writable base mapping underneath, the write goes through.
        m.map(c, Vpn(0), FrameNo(0), Prot::RW);
        assert_eq!(
            m.translate(c, VirtAddr(100), Access::Write, false),
            Ok(PhysAddr(100))
        );
    }

    #[test]
    fn unmap_large_demotes_to_base_mappings() {
        let mut m = mk_large();
        let c = m.ctx_create();
        m.switch(c);
        m.map(c, Vpn(4), FrameNo(20), Prot::READ);
        m.map_large(c, Vpn(1), FrameNo(20), Prot::READ);
        assert_eq!(m.unmap_large(c, Vpn(1)), Some(FrameNo(20)));
        assert!(!m.has_large_mapping(c, Vpn(1)));
        assert_eq!(m.unmap_large(c, Vpn(1)), None);
        // The base mapping still serves the page.
        assert_eq!(
            m.translate(c, VirtAddr(1024), Access::Read, false),
            Ok(PhysAddr(20 * 256))
        );
    }

    #[test]
    fn ctx_destroy_drops_large_mappings() {
        let mut m = mk_large();
        let a = m.ctx_create();
        let b = m.ctx_create();
        m.map_large(a, Vpn(0), FrameNo(0), Prot::READ);
        m.map_large(b, Vpn(0), FrameNo(4), Prot::READ);
        m.ctx_destroy(a);
        assert_eq!(m.large_total, 1);
        assert!(m.has_large_mapping(b, Vpn(0)));
        // ctx b was never current, so its translation bypasses both TLBs.
        assert_eq!(
            m.translate(b, VirtAddr(3), Access::Read, false),
            Ok(PhysAddr(4 * 256 + 3))
        );
        assert_eq!(m.large_tlb_stats().unwrap().hits, 0);
    }

    #[test]
    fn switch_flushes_tlb() {
        let mut m = mk();
        let a = m.ctx_create();
        let b = m.ctx_create();
        m.switch(a);
        m.map(a, Vpn(0), FrameNo(0), Prot::READ);
        m.translate(a, VirtAddr(0), Access::Read, false).unwrap();
        m.switch(b);
        m.switch(a);
        m.translate(a, VirtAddr(0), Access::Read, false).unwrap();
        // Two misses: initial fill, and refill after the flushes.
        assert_eq!(m.tlb_stats().misses, 2);
        assert!(m.tlb_stats().flushes >= 2);
    }
}
