//! An explicit two-level page-table MMU back-end.
//!
//! Models MMUs like the Motorola PMMU or the i386 where translation walks
//! real table trees. Level-1 (root) tables index `L1_ENTRIES` level-2
//! tables of `L2_ENTRIES` page table entries each; level-2 tables are
//! allocated lazily and freed when their last entry is removed. The point
//! of this second back-end is the paper's portability claim: the PVM never
//! sees which one it runs on, and the conformance suite plus the
//! `ablation_mmu` bench verify behavioural equivalence.

use crate::addr::{PageGeometry, PhysAddr, VirtAddr, Vpn};
use crate::cost::{CostModel, OpKind};
use crate::frame::FrameNo;
use crate::mmu::{Access, Mmu, MmuCtx, MmuFault, Prot};
use crate::tlb::{Tlb, TlbStats};
use std::collections::HashMap;
use std::sync::Arc;

/// Entries per level-2 table.
pub const L2_ENTRIES: usize = 1024;
/// Entries in the root (level-1) table.
pub const L1_ENTRIES: usize = 8192;

#[derive(Clone, Copy)]
struct Pte {
    frame: FrameNo,
    prot: Prot,
    /// Set by a table walk that ends in an allowed access.
    referenced: bool,
}

struct L2Table {
    entries: Box<[Option<Pte>; L2_ENTRIES]>,
    live: usize,
}

impl L2Table {
    fn new() -> L2Table {
        L2Table {
            entries: Box::new([None; L2_ENTRIES]),
            live: 0,
        }
    }
}

struct RootTable {
    l1: Vec<Option<L2Table>>,
    live_pages: usize,
}

impl RootTable {
    fn new() -> RootTable {
        RootTable {
            l1: (0..L1_ENTRIES).map(|_| None).collect(),
            live_pages: 0,
        }
    }
}

fn split(vpn: Vpn) -> (usize, usize) {
    let l1 = (vpn.0 / L2_ENTRIES as u64) as usize;
    let l2 = (vpn.0 % L2_ENTRIES as u64) as usize;
    assert!(
        l1 < L1_ENTRIES,
        "virtual page {vpn:?} beyond the {L1_ENTRIES}x{L2_ENTRIES}-page table reach"
    );
    (l1, l2)
}

/// A software MMU with explicit two-level page tables.
pub struct TwoLevelMmu {
    geom: PageGeometry,
    model: Arc<CostModel>,
    ctxs: HashMap<u32, RootTable>,
    next: u32,
    current: Option<MmuCtx>,
    tlb: Tlb,
}

impl TwoLevelMmu {
    /// Creates a two-level MMU for the given geometry.
    pub fn new(geom: PageGeometry, model: Arc<CostModel>) -> TwoLevelMmu {
        TwoLevelMmu {
            geom,
            model,
            ctxs: HashMap::new(),
            next: 0,
            current: None,
            tlb: Tlb::new(crate::soft_mmu::DEFAULT_TLB_ENTRIES),
        }
    }

    /// TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Number of level-2 tables currently allocated in a context.
    pub fn l2_table_count(&self, ctx: MmuCtx) -> usize {
        self.root(ctx).l1.iter().filter(|t| t.is_some()).count()
    }

    fn root(&self, ctx: MmuCtx) -> &RootTable {
        self.ctxs.get(&ctx.0).expect("MMU context does not exist")
    }

    fn root_mut(&mut self, ctx: MmuCtx) -> &mut RootTable {
        self.ctxs
            .get_mut(&ctx.0)
            .expect("MMU context does not exist")
    }

    fn walk(&self, ctx: MmuCtx, vpn: Vpn) -> Option<Pte> {
        let (l1, l2) = split(vpn);
        self.root(ctx).l1[l1].as_ref().and_then(|t| t.entries[l2])
    }

    fn walk_mut(&mut self, ctx: MmuCtx, vpn: Vpn) -> Option<&mut Pte> {
        let (l1, l2) = split(vpn);
        self.root_mut(ctx).l1[l1]
            .as_mut()
            .and_then(|t| t.entries[l2].as_mut())
    }

    fn maybe_invalidate(&mut self, ctx: MmuCtx, vpn: Vpn) {
        if self.current == Some(ctx) {
            self.tlb.invalidate(vpn);
        }
    }
}

impl Mmu for TwoLevelMmu {
    fn geometry(&self) -> PageGeometry {
        self.geom
    }

    fn ctx_create(&mut self) -> MmuCtx {
        let id = self.next;
        self.next += 1;
        self.ctxs.insert(id, RootTable::new());
        self.model.charge(OpKind::DescriptorOp);
        MmuCtx(id)
    }

    fn ctx_destroy(&mut self, ctx: MmuCtx) {
        let root = self
            .ctxs
            .remove(&ctx.0)
            .expect("MMU context does not exist");
        self.model
            .charge_n(OpKind::UnmapPage, root.live_pages as u64);
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
        let (l1, l2) = split(vpn);
        let root = self.root_mut(ctx);
        let table = root.l1[l1].get_or_insert_with(L2Table::new);
        if table.entries[l2].is_none() {
            table.live += 1;
            root.live_pages += 1;
        }
        table.entries[l2] = Some(Pte {
            frame,
            prot,
            referenced: false,
        });
        self.maybe_invalidate(ctx, vpn);
        self.model.charge(OpKind::MapPage);
    }

    fn unmap(&mut self, ctx: MmuCtx, vpn: Vpn) -> Option<FrameNo> {
        let (l1, l2) = split(vpn);
        let root = self.root_mut(ctx);
        let slot = root.l1[l1].as_mut()?;
        let pte = slot.entries[l2].take()?;
        slot.live -= 1;
        root.live_pages -= 1;
        if slot.live == 0 {
            // Free empty level-2 tables, keeping table count proportional
            // to resident pages (the paper's size-independence goal).
            root.l1[l1] = None;
        }
        self.maybe_invalidate(ctx, vpn);
        self.model.charge(OpKind::UnmapPage);
        Some(pte.frame)
    }

    fn protect(&mut self, ctx: MmuCtx, vpn: Vpn, prot: Prot) -> bool {
        let Some(pte) = self.walk_mut(ctx, vpn) else {
            return false;
        };
        pte.prot = prot;
        self.maybe_invalidate(ctx, vpn);
        self.model.charge(OpKind::ProtectPage);
        true
    }

    fn query(&self, ctx: MmuCtx, vpn: Vpn) -> Option<(FrameNo, Prot)> {
        self.walk(ctx, vpn).map(|pte| (pte.frame, pte.prot))
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
                // Only a walk that ends in an allowed access sets the
                // referenced bit and loads the TLB, so a cached entry
                // always has its bit set.
                let Some(pte) = self.walk_mut(ctx, vpn) else {
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
        self.walk(ctx, vpn).is_some_and(|pte| pte.referenced)
    }

    fn take_referenced(&mut self, ctx: MmuCtx, vpn: Vpn) -> bool {
        let was = self
            .walk_mut(ctx, vpn)
            .is_some_and(|pte| core::mem::take(&mut pte.referenced));
        if was {
            self.maybe_invalidate(ctx, vpn);
        }
        was
    }

    fn mapped_count(&self, ctx: MmuCtx) -> usize {
        self.root(ctx).live_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    fn mk() -> TwoLevelMmu {
        TwoLevelMmu::new(PageGeometry::new(256), Arc::new(CostModel::counting()))
    }

    #[test]
    fn conformance_suite() {
        conformance::run(|model| TwoLevelMmu::new(PageGeometry::new(256), model));
    }

    #[test]
    fn l2_tables_allocated_lazily_and_freed() {
        let mut m = mk();
        let c = m.ctx_create();
        assert_eq!(m.l2_table_count(c), 0);
        m.map(c, Vpn(0), FrameNo(0), Prot::READ);
        m.map(c, Vpn(L2_ENTRIES as u64 * 3), FrameNo(1), Prot::READ);
        assert_eq!(m.l2_table_count(c), 2);
        m.unmap(c, Vpn(0));
        assert_eq!(m.l2_table_count(c), 1);
        m.unmap(c, Vpn(L2_ENTRIES as u64 * 3));
        assert_eq!(m.l2_table_count(c), 0);
    }

    #[test]
    fn sparse_mapping_across_table_boundaries() {
        let mut m = mk();
        let c = m.ctx_create();
        // Map the last page of one L2 table and the first of the next.
        let a = Vpn(L2_ENTRIES as u64 - 1);
        let b = Vpn(L2_ENTRIES as u64);
        m.map(c, a, FrameNo(10), Prot::RW);
        m.map(c, b, FrameNo(11), Prot::RW);
        assert_eq!(m.query(c, a), Some((FrameNo(10), Prot::RW)));
        assert_eq!(m.query(c, b), Some((FrameNo(11), Prot::RW)));
        assert_eq!(m.mapped_count(c), 2);
    }

    #[test]
    fn remap_does_not_double_count() {
        let mut m = mk();
        let c = m.ctx_create();
        m.map(c, Vpn(5), FrameNo(1), Prot::READ);
        m.map(c, Vpn(5), FrameNo(2), Prot::RW);
        assert_eq!(m.mapped_count(c), 1);
        assert_eq!(m.query(c, Vpn(5)), Some((FrameNo(2), Prot::RW)));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn vpn_beyond_reach_panics() {
        let mut m = mk();
        let c = m.ctx_create();
        m.map(
            c,
            Vpn((L1_ENTRIES * L2_ENTRIES) as u64),
            FrameNo(0),
            Prot::READ,
        );
    }
}
