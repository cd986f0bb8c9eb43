//! Shared MMU conformance suite.
//!
//! Every [`Mmu`] back-end must pass these checks; they encode the contract
//! the PVM's machine-independent layer relies on. Run from each back-end's
//! test module, reproducing the paper's claim that the machine-dependent
//! part is swappable without affecting the layers above.

use crate::addr::{PhysAddr, VirtAddr, Vpn};
use crate::cost::{CostModel, OpKind};
use crate::frame::FrameNo;
use crate::mmu::{Access, Mmu, MmuCtx, MmuFault, Prot};
use std::sync::Arc;

/// Runs the full conformance suite against fresh MMUs built by
/// `mk_on`, each charging a counting cost model of its own.
///
/// # Panics
///
/// Panics (via assertions) on any contract violation.
pub fn run<M: Mmu>(mk_on: impl Fn(Arc<CostModel>) -> M) {
    let mk = || mk_on(Arc::new(CostModel::counting()));
    basic_map_translate(&mk);
    unmapped_access_faults(&mk);
    protection_enforced(&mk);
    contexts_are_isolated(&mk);
    unmap_returns_frame(&mk);
    protect_changes_take_effect(&mk);
    system_pages_respected(&mk);
    destroy_then_recreate(&mk);
    query_is_side_effect_free(&mk);
    walk_sets_referenced_fault_does_not(&mk);
    map_and_remap_enter_referenced_clear(&mk);
    protect_keeps_referenced(&mk);
    unmap_and_destroy_drop_referenced(&mk);
    take_referenced_forces_the_next_walk(&mk_on);
    tlb_hit_sets_nothing(&mk_on);
    mapped_in_lists_a_range_in_vpn_order(&mk);
}

fn page(m: &impl Mmu) -> u64 {
    m.geometry().page_size()
}

fn basic_map_translate<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(2), FrameNo(5), Prot::RW);
    let ps = page(&m);
    let pa = m
        .translate(c, VirtAddr(2 * ps + 17), Access::Read, false)
        .unwrap();
    assert_eq!(pa, PhysAddr(5 * ps + 17), "offset must be preserved");
    assert_eq!(m.mapped_count(c), 1);
}

fn unmapped_access_faults<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    let r = m.translate(c, VirtAddr(0), Access::Read, false);
    assert!(
        matches!(r, Err(MmuFault::NotMapped { .. })),
        "expected NotMapped, got {r:?}"
    );
}

fn protection_enforced<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(0), FrameNo(0), Prot::READ);
    assert!(m.translate(c, VirtAddr(0), Access::Read, false).is_ok());
    let w = m.translate(c, VirtAddr(0), Access::Write, false);
    assert!(
        matches!(w, Err(MmuFault::ProtectionViolation { .. })),
        "expected violation, got {w:?}"
    );
    let x = m.translate(c, VirtAddr(0), Access::Execute, false);
    assert!(matches!(x, Err(MmuFault::ProtectionViolation { .. })));
}

fn contexts_are_isolated<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let a = m.ctx_create();
    let b = m.ctx_create();
    m.map(a, Vpn(1), FrameNo(3), Prot::RW);
    m.switch(b);
    assert!(m
        .translate(b, VirtAddr(page(&m)), Access::Read, false)
        .is_err());
    m.switch(a);
    assert!(m
        .translate(a, VirtAddr(page(&m)), Access::Read, false)
        .is_ok());
    assert_eq!(m.mapped_count(b), 0);
}

fn unmap_returns_frame<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(4), FrameNo(9), Prot::RW);
    assert_eq!(m.unmap(c, Vpn(4)), Some(FrameNo(9)));
    assert_eq!(m.unmap(c, Vpn(4)), None, "second unmap must be a no-op");
    assert!(m
        .translate(c, VirtAddr(4 * page(&m)), Access::Read, false)
        .is_err());
    assert_eq!(m.mapped_count(c), 0);
}

fn protect_changes_take_effect<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(0), FrameNo(1), Prot::RW);
    // Touch through the TLB first so a stale entry would be caught.
    assert!(m.translate(c, VirtAddr(0), Access::Write, false).is_ok());
    assert!(m.protect(c, Vpn(0), Prot::READ));
    assert!(m.translate(c, VirtAddr(0), Access::Write, false).is_err());
    assert!(m.translate(c, VirtAddr(0), Access::Read, false).is_ok());
    // Upgrade back.
    assert!(m.protect(c, Vpn(0), Prot::RW));
    assert!(m.translate(c, VirtAddr(0), Access::Write, false).is_ok());
    assert!(
        !m.protect(c, Vpn(7), Prot::RW),
        "protect of unmapped page must return false"
    );
}

fn system_pages_respected<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(0), FrameNo(0), Prot::RW.union(Prot::SYSTEM));
    assert!(m.translate(c, VirtAddr(0), Access::Read, false).is_err());
    assert!(m.translate(c, VirtAddr(0), Access::Read, true).is_ok());
    assert!(m.translate(c, VirtAddr(0), Access::Write, true).is_ok());
}

fn destroy_then_recreate<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let a = m.ctx_create();
    m.switch(a);
    m.map(a, Vpn(0), FrameNo(0), Prot::RW);
    m.ctx_destroy(a);
    assert_eq!(
        m.current(),
        None,
        "destroying the current context clears it"
    );
    let b = m.ctx_create();
    m.switch(b);
    assert_eq!(m.mapped_count(b), 0, "fresh context must be empty");
    assert!(m.translate(b, VirtAddr(0), Access::Read, false).is_err());
}

fn query_is_side_effect_free<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.map(c, Vpn(6), FrameNo(2), Prot::RX);
    assert_eq!(m.query(c, Vpn(6)), Some((FrameNo(2), Prot::RX)));
    assert_eq!(m.query(c, Vpn(7)), None);
}

/// Reads at the start of page `vpn` from user mode.
fn read(m: &mut impl Mmu, c: MmuCtx, vpn: u64) -> Result<PhysAddr, MmuFault> {
    let va = VirtAddr(vpn * page(m));
    m.translate(c, va, Access::Read, false)
}

fn walk_sets_referenced_fault_does_not<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(1), FrameNo(1), Prot::READ);
    assert!(!m.referenced(c, Vpn(1)), "map enters the bit clear");
    // A protection fault walks the table but is no use of the page...
    let w = m.translate(c, VirtAddr(page(&m)), Access::Write, false);
    assert!(matches!(w, Err(MmuFault::ProtectionViolation { .. })));
    assert!(
        !m.referenced(c, Vpn(1)),
        "a faulting translate sets nothing"
    );
    // ...nor is a fault on a neighbour that has no mapping at all.
    assert!(read(&mut m, c, 2).is_err());
    assert!(!m.referenced(c, Vpn(2)));
    assert!(!m.take_referenced(c, Vpn(2)), "no mapping, no bit");
    read(&mut m, c, 1).unwrap();
    assert!(
        m.referenced(c, Vpn(1)),
        "the walk of an allowed access sets it"
    );
    // A context that is not current has no TLB: every access walks.
    let other = m.ctx_create();
    m.map(other, Vpn(1), FrameNo(2), Prot::READ);
    read(&mut m, other, 1).unwrap();
    assert!(m.referenced(other, Vpn(1)));
}

fn map_and_remap_enter_referenced_clear<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(3), FrameNo(1), Prot::RW);
    read(&mut m, c, 3).unwrap();
    assert!(m.referenced(c, Vpn(3)));
    // A new mapping at the same vpn is a new page: nobody has used it.
    m.map(c, Vpn(3), FrameNo(2), Prot::RW);
    assert!(!m.referenced(c, Vpn(3)), "remap enters the bit clear");
    // And the stale TLB entry is gone, so the next access walks.
    assert_eq!(read(&mut m, c, 3), Ok(PhysAddr(2 * page(&m))));
    assert!(m.referenced(c, Vpn(3)));
}

fn protect_keeps_referenced<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(0), FrameNo(0), Prot::RW);
    m.map(c, Vpn(1), FrameNo(1), Prot::RW);
    read(&mut m, c, 0).unwrap();
    assert!(m.protect(c, Vpn(0), Prot::READ));
    assert!(m.protect(c, Vpn(1), Prot::READ));
    assert!(m.referenced(c, Vpn(0)), "protect keeps a set bit");
    assert!(!m.referenced(c, Vpn(1)), "and a clear one");
}

fn unmap_and_destroy_drop_referenced<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(4), FrameNo(4), Prot::READ);
    read(&mut m, c, 4).unwrap();
    m.unmap(c, Vpn(4));
    assert!(!m.referenced(c, Vpn(4)), "the bit goes with the mapping");
    assert!(!m.take_referenced(c, Vpn(4)));
    m.map(c, Vpn(4), FrameNo(5), Prot::READ);
    assert!(!m.referenced(c, Vpn(4)), "a later mapping starts clear");
    read(&mut m, c, 4).unwrap();
    m.ctx_destroy(c);
    let d = m.ctx_create();
    m.map(d, Vpn(4), FrameNo(4), Prot::READ);
    assert!(!m.referenced(d, Vpn(4)), "nothing survives ctx_destroy");
}

fn take_referenced_forces_the_next_walk<M: Mmu>(mk_on: &impl Fn(Arc<CostModel>) -> M) {
    let model = Arc::new(CostModel::counting());
    let mut m = mk_on(model.clone());
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(2), FrameNo(2), Prot::RW);
    read(&mut m, c, 2).unwrap();
    assert_eq!(model.count(OpKind::TlbMiss), 1);
    assert!(m.take_referenced(c, Vpn(2)), "test...");
    assert!(!m.referenced(c, Vpn(2)), "...and clear");
    assert!(!m.take_referenced(c, Vpn(2)), "taken once");
    // The TLB entry went with the bit: the next access walks, pays for
    // the miss and sets the bit again.
    read(&mut m, c, 2).unwrap();
    assert_eq!(model.count(OpKind::TlbMiss), 2);
    assert!(m.referenced(c, Vpn(2)));
    // `referenced` itself is a side-effect-free read.
    read(&mut m, c, 2).unwrap();
    assert_eq!(model.count(OpKind::TlbMiss), 2);
}

fn tlb_hit_sets_nothing<M: Mmu>(mk_on: &impl Fn(Arc<CostModel>) -> M) {
    let model = Arc::new(CostModel::counting());
    let mut m = mk_on(model.clone());
    let c = m.ctx_create();
    m.switch(c);
    m.map(c, Vpn(6), FrameNo(6), Prot::RW);
    // Only a walk that sets the bit loads the TLB, so a hit has nothing
    // left to set and costs nothing: a thousand of them are one miss.
    for _ in 0..1000 {
        read(&mut m, c, 6).unwrap();
    }
    assert_eq!(model.count(OpKind::TlbMiss), 1);
    assert!(m.referenced(c, Vpn(6)));
    // A faulting walk loads no entry either: were the refused write
    // cached, the read after it would hit with the bit still clear.
    m.map(c, Vpn(7), FrameNo(7), Prot::READ);
    let va = VirtAddr(7 * page(&m));
    assert!(m.translate(c, va, Access::Write, false).is_err());
    assert!(!m.referenced(c, Vpn(7)));
    read(&mut m, c, 7).unwrap();
    assert!(m.referenced(c, Vpn(7)), "the read walked");
}

fn mapped_in_lists_a_range_in_vpn_order<M: Mmu>(mk: &impl Fn() -> M) {
    let mut m = mk();
    let c = m.ctx_create();
    let other = m.ctx_create();
    let all = |m: &M, c| m.mapped_in(c, Vpn(0), Vpn(u64::MAX));
    assert!(all(&m, c).is_empty(), "an empty context maps nothing");
    // Mapped out of order, across a level-2 table boundary (1023/1024).
    for (v, f) in [(1024, 4), (3, 1), (1023, 3), (5, 2)] {
        m.map(c, Vpn(v), FrameNo(f), Prot::RW);
    }
    m.map(other, Vpn(4), FrameNo(9), Prot::RW);
    let entry = |v: u64, f: u32| (Vpn(v), FrameNo(f));
    let every = vec![entry(3, 1), entry(5, 2), entry(1023, 3), entry(1024, 4)];
    assert_eq!(all(&m, c), every, "in vpn order, other contexts excluded");
    // Bounds are inclusive, and a range narrower than the table (which
    // a hash table probes) finds what a wider one (scanned) finds.
    assert_eq!(m.mapped_in(c, Vpn(3), Vpn(5)), every[..2]);
    assert!(m.mapped_in(c, Vpn(4), Vpn(4)).is_empty());
    assert_eq!(m.mapped_in(c, Vpn(1023), Vpn(1024)), every[2..]);
    assert_eq!(m.mapped_in(c, Vpn(6), Vpn(1 << 20)), every[2..]);
    assert!(
        m.mapped_in(c, Vpn(1024), Vpn(1023)).is_empty(),
        "empty range"
    );
    // A range far beyond any table's reach is no panic.
    assert_eq!(m.mapped_in(c, Vpn(1024), Vpn(1 << 40)), every[3..]);
    assert!(m.mapped_in(c, Vpn(1 << 40), Vpn((1 << 40) + 8)).is_empty());
    // An entry goes with its mapping.
    m.unmap(c, Vpn(1023));
    assert_eq!(m.mapped_in(c, Vpn(1000), Vpn(2000)), [entry(1024, 4)]);
    assert_eq!(all(&m, other), [entry(4, 9)]);
}
