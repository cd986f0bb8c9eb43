//! A hash-table-backed MMU: the simplest correct back-end.
//!
//! Models MMUs like the Sun-3 custom MMU where the OS view is "a mapping
//! table per context". Each context is a hash map from virtual page number
//! to a page table entry (frame, protection, referenced bit). A shared
//! [`Tlb`] caches translations for the current context.

use crate::addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
use crate::cost::{CostModel, OpKind};
use crate::frame::FrameNo;
use crate::fx::FxHashMap;
use crate::mmu::{Access, Mmu, MmuCtx, MmuFault, Prot};
use crate::tlb::{Tlb, TlbStats};
use std::sync::Arc;

/// Default TLB entry count for the software MMUs.
pub const DEFAULT_TLB_ENTRIES: usize = 64;

/// A page table entry.
#[derive(Clone, Copy)]
struct Pte {
    frame: FrameNo,
    prot: Prot,
    /// Set by a table walk that ends in an allowed access.
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
pub struct SoftMmu {
    geom: PageGeometry,
    model: Arc<CostModel>,
    ctxs: FxHashMap<u32, FxHashMap<Vpn, Pte>>,
    next: u32,
    current: Option<MmuCtx>,
    tlb: Tlb,
}

impl SoftMmu {
    /// Creates a software MMU for the given geometry.
    pub fn new(geom: PageGeometry, model: Arc<CostModel>) -> SoftMmu {
        SoftMmu {
            geom,
            model,
            ctxs: FxHashMap::default(),
            next: 0,
            current: None,
            tlb: Tlb::new(DEFAULT_TLB_ENTRIES),
        }
    }

    /// TLB statistics (for benches and the ablation on MMU back-ends).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    fn table(&self, ctx: MmuCtx) -> &FxHashMap<Vpn, Pte> {
        self.ctxs.get(&ctx.0).expect("MMU context does not exist")
    }

    fn table_mut(&mut self, ctx: MmuCtx) -> &mut FxHashMap<Vpn, Pte> {
        self.ctxs
            .get_mut(&ctx.0)
            .expect("MMU context does not exist")
    }

    fn maybe_invalidate(&mut self, ctx: MmuCtx, vpn: Vpn) {
        if self.current == Some(ctx) {
            self.tlb.invalidate(vpn);
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
        self.ctxs.insert(id, FxHashMap::default());
        self.model.charge(OpKind::DescriptorOp);
        MmuCtx(id)
    }

    fn ctx_destroy(&mut self, ctx: MmuCtx) {
        let table = self
            .ctxs
            .remove(&ctx.0)
            .expect("MMU context does not exist");
        self.model.charge_n(OpKind::UnmapPage, table.len() as u64);
        if self.current == Some(ctx) {
            self.current = None;
            self.tlb.flush();
            self.model.charge(OpKind::TlbFlush);
        }
    }

    fn switch(&mut self, ctx: MmuCtx) {
        assert!(self.ctxs.contains_key(&ctx.0), "switch to dead MMU context");
        if self.current != Some(ctx) {
            self.current = Some(ctx);
            self.tlb.flush();
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
        self.table(ctx).get(&vpn).is_some_and(|pte| pte.referenced)
    }

    fn take_referenced(&mut self, ctx: MmuCtx, vpn: Vpn) -> bool {
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

    fn mapped_in(&self, ctx: MmuCtx, lo: Vpn, hi: Vpn) -> Vec<(Vpn, FrameNo)> {
        let table = self.table(ctx);
        if hi < lo {
            return Vec::new();
        }
        // Probe a range no wider than the table; scan a table smaller
        // than the range (and sort what it finds).
        if hi.0 - lo.0 < table.len() as u64 {
            return (lo.0..=hi.0)
                .filter_map(|v| table.get(&Vpn(v)).map(|pte| (Vpn(v), pte.frame)))
                .collect();
        }
        let mut found: Vec<(Vpn, FrameNo)> = table
            .iter()
            .filter(|(&v, _)| lo <= v && v <= hi)
            .map(|(&v, pte)| (v, pte.frame))
            .collect();
        found.sort_unstable_by_key(|&(v, _)| v);
        found
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
        conformance::run(|model| SoftMmu::new(PageGeometry::new(256), model));
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
