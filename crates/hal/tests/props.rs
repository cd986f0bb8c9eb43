//! Property-based tests of the HAL building blocks: the generational
//! arena against a reference map, page geometry laws, protection
//! algebra, MMU map/unmap sequences against a model, and the frame pool
//! against a bitmap.

use chorus_hal::{
    Access, Arena, CostModel, FrameNo, Mmu, PageGeometry, PhysicalMemory, Prot, SoftMmu,
    TwoLevelMmu, VirtAddr, Vpn,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum ArenaOp {
    Insert(u32),
    Remove(usize),
    Get(usize),
}

proptest! {
    /// The arena behaves like a map with stable handles: live handles
    /// resolve to their value, removed handles never resolve again (even
    /// after slot reuse), and `len` tracks the live count.
    #[test]
    fn arena_matches_reference_model(ops in proptest::collection::vec(
        prop_oneof![
            3 => any::<u32>().prop_map(ArenaOp::Insert),
            2 => (0..64usize).prop_map(ArenaOp::Remove),
            2 => (0..64usize).prop_map(ArenaOp::Get),
        ],
        1..200,
    )) {
        let mut arena = Arena::new();
        let mut live: Vec<(chorus_hal::Id<u32>, u32)> = Vec::new();
        let mut dead: Vec<chorus_hal::Id<u32>> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Insert(v) => {
                    let id = arena.insert(v);
                    prop_assert_eq!(arena.get(id), Some(&v));
                    live.push((id, v));
                }
                ArenaOp::Remove(i) => {
                    if live.is_empty() { continue; }
                    let (id, v) = live.swap_remove(i % live.len());
                    prop_assert_eq!(arena.remove(id), Some(v));
                    dead.push(id);
                }
                ArenaOp::Get(i) => {
                    if !live.is_empty() {
                        let (id, v) = live[i % live.len()];
                        prop_assert_eq!(arena.get(id), Some(&v));
                    }
                    if !dead.is_empty() {
                        let id = dead[i % dead.len()];
                        prop_assert_eq!(arena.get(id), None);
                        prop_assert!(!arena.contains(id));
                    }
                }
            }
            prop_assert_eq!(arena.len(), live.len());
        }
        // Every live id still resolves; every dead id still misses.
        for (id, v) in &live {
            prop_assert_eq!(arena.get(*id), Some(v));
        }
        for id in &dead {
            prop_assert_eq!(arena.get(*id), None);
        }
        // Iteration yields exactly the live set.
        let mut from_iter: Vec<u32> = arena.iter().map(|(_, &v)| v).collect();
        let mut expected: Vec<u32> = live.iter().map(|&(_, v)| v).collect();
        from_iter.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(from_iter, expected);
    }

    /// Page geometry laws hold for every power-of-two page size.
    #[test]
    fn geometry_laws(shift in 4u32..20, va in any::<u32>()) {
        let ps = 1u64 << shift;
        let g = PageGeometry::new(ps);
        let va = VirtAddr(va as u64);
        // Decomposition is exact.
        prop_assert_eq!(g.base(g.vpn(va)).0 + g.page_offset(va), va.0);
        // Rounding laws.
        prop_assert!(g.round_down(va.0) <= va.0);
        prop_assert!(g.round_up(va.0) >= va.0);
        prop_assert!(g.round_up(va.0) - g.round_down(va.0) <= ps);
        prop_assert!(g.is_aligned(g.round_down(va.0)));
        prop_assert!(g.is_aligned(g.round_up(va.0)));
        // pages_for covers the bytes.
        prop_assert!(g.pages_for(va.0) * ps >= va.0);
        prop_assert!(va.0 == 0 || (g.pages_for(va.0) - 1) * ps < va.0);
    }

    /// Protection algebra: set laws via contains/union/intersect/remove.
    #[test]
    fn prot_algebra(a in 0u8..16, b in 0u8..16) {
        fn mk(bits: u8) -> Prot {
            let mut p = Prot::NONE;
            if bits & 1 != 0 { p = p.union(Prot::READ); }
            if bits & 2 != 0 { p = p.union(Prot::WRITE); }
            if bits & 4 != 0 { p = p.union(Prot::EXECUTE); }
            if bits & 8 != 0 { p = p.union(Prot::SYSTEM); }
            p
        }
        let (pa, pb) = (mk(a), mk(b));
        prop_assert!(pa.union(pb).contains(pa));
        prop_assert!(pa.union(pb).contains(pb));
        prop_assert!(pa.contains(pa.intersect(pb)));
        prop_assert_eq!(pa.remove(pb).intersect(pb), Prot::NONE);
        prop_assert_eq!(pa.union(pb), pb.union(pa));
        prop_assert_eq!(pa.intersect(pb), pb.intersect(pa));
        // allows() is monotone in the protection.
        for access in [Access::Read, Access::Write, Access::Execute] {
            if pa.allows(access, false) {
                prop_assert!(pa.union(pb).allows(access, false) || pb.contains(Prot::SYSTEM));
            }
        }
    }
}

#[derive(Clone, Debug)]
enum MmuOp {
    Map {
        vpn: u16,
        frame: u16,
        writable: bool,
    },
    Unmap {
        vpn: u16,
    },
    Protect {
        vpn: u16,
        writable: bool,
    },
    Translate {
        vpn: u16,
        write: bool,
    },
}

fn mmu_op() -> impl Strategy<Value = MmuOp> {
    prop_oneof![
        3 => (0..512u16, any::<u16>(), any::<bool>())
            .prop_map(|(vpn, frame, writable)| MmuOp::Map { vpn, frame, writable }),
        2 => (0..512u16).prop_map(|vpn| MmuOp::Unmap { vpn }),
        2 => (0..512u16, any::<bool>()).prop_map(|(vpn, writable)| MmuOp::Protect { vpn, writable }),
        3 => (0..512u16, any::<bool>()).prop_map(|(vpn, write)| MmuOp::Translate { vpn, write }),
    ]
}

fn run_mmu_model<M: Mmu>(mut mmu: M, ops: &[MmuOp]) -> Result<(), TestCaseError> {
    let g = mmu.geometry();
    let ctx = mmu.ctx_create();
    mmu.switch(ctx);
    let mut model: HashMap<u16, (u16, bool)> = HashMap::new();
    for op in ops {
        match *op {
            MmuOp::Map {
                vpn,
                frame,
                writable,
            } => {
                let prot = if writable { Prot::RW } else { Prot::READ };
                mmu.map(ctx, Vpn(vpn as u64), FrameNo(frame as u32), prot);
                model.insert(vpn, (frame, writable));
            }
            MmuOp::Unmap { vpn } => {
                let got = mmu.unmap(ctx, Vpn(vpn as u64));
                let expect = model.remove(&vpn).map(|(f, _)| FrameNo(f as u32));
                prop_assert_eq!(got, expect);
            }
            MmuOp::Protect { vpn, writable } => {
                let prot = if writable { Prot::RW } else { Prot::READ };
                let got = mmu.protect(ctx, Vpn(vpn as u64), prot);
                let expect = model.contains_key(&vpn);
                prop_assert_eq!(got, expect);
                if let Some(e) = model.get_mut(&vpn) {
                    e.1 = writable;
                }
            }
            MmuOp::Translate { vpn, write } => {
                let va = VirtAddr(vpn as u64 * g.page_size() + 7);
                let access = if write { Access::Write } else { Access::Read };
                let got = mmu.translate(ctx, va, access, false);
                match model.get(&vpn) {
                    None => prop_assert!(got.is_err()),
                    Some(&(frame, writable)) => {
                        if write && !writable {
                            prop_assert!(got.is_err());
                        } else {
                            prop_assert_eq!(got.unwrap().0, frame as u64 * g.page_size() + 7);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(mmu.mapped_count(ctx), model.len());
    }
    Ok(())
}

proptest! {
    /// Both MMU back-ends agree with a reference translation model under
    /// random map/unmap/protect/translate sequences (and therefore with
    /// each other).
    #[test]
    fn mmus_match_reference_model(ops in proptest::collection::vec(mmu_op(), 1..150)) {
        let g = PageGeometry::new(4096);
        run_mmu_model(SoftMmu::new(g, Arc::new(CostModel::counting())), &ops)?;
        run_mmu_model(TwoLevelMmu::new(g, Arc::new(CostModel::counting())), &ops)?;
    }
}

#[derive(Clone, Debug)]
enum PoolOp {
    Alloc,
    Release { idx: usize },
}

proptest! {
    /// The frame pool against a bitmap under random alloc/release
    /// sequences: every allocation is the lowest free frame, no frame is
    /// handed out twice, and live + free always covers the pool exactly.
    #[test]
    fn pool_matches_bitmap_model(
        pool_frames in 1u32..=64,
        ops in proptest::collection::vec(
            prop_oneof![
                3 => Just(PoolOp::Alloc),
                2 => (0..64usize).prop_map(|idx| PoolOp::Release { idx }),
            ],
            1..200,
        ),
    ) {
        let mut phys = PhysicalMemory::new(
            PageGeometry::new(16),
            pool_frames,
            Arc::new(CostModel::counting()),
        );
        let mut bitmap = vec![false; pool_frames as usize];
        let mut live: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                PoolOp::Alloc => {
                    let lowest = bitmap.iter().position(|&used| !used).map(|n| n as u32);
                    prop_assert_eq!(phys.alloc().map(|f| f.0), lowest);
                    if let Some(n) = lowest {
                        bitmap[n as usize] = true;
                        live.push(n);
                    }
                }
                PoolOp::Release { idx } => {
                    if !live.is_empty() {
                        let n = live.swap_remove(idx % live.len());
                        phys.release(FrameNo(n));
                        bitmap[n as usize] = false;
                    }
                }
            }
            prop_assert_eq!(live.len() as u32 + phys.free_frames(), pool_frames);
            for (n, &used) in bitmap.iter().enumerate() {
                prop_assert_eq!(phys.is_allocated(FrameNo(n as u32)), used);
            }
        }
    }
}
