//! What a fault leaves in the MMU (DESIGN.md §5): a read fault in a
//! read-only region also maps the resident run after the faulting page,
//! and a write fault on a page already mapped at that address changes
//! the entry's protection in place. Every test runs on both MMUs with
//! the invariant checker on.

mod common;

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CacheId, CtxId, Gmi, Prot, VirtAddr};
use chorus_hal::OpKind;
use chorus_pvm::trace::TraceEvent;
use chorus_pvm::{MmuChoice, Pvm, PvmOptions, TraceConfig};
use common::{pattern, read, setup_with, write, PS};
use std::sync::Arc;

const MMUS: [MmuChoice; 2] = [MmuChoice::Soft, MmuChoice::TwoLevel];
/// Where the file's region starts.
const BASE: u64 = 0x10_0000;
/// Where anonymous memory starts.
const ANON: u64 = 0x40_0000;
/// Pages of the read-only region; a fault maps at most 8 of them.
const PAGES: u64 = 12;
const WINDOW: u64 = 8;

fn page_bytes(page: u64) -> Vec<u8> {
    pattern(0x70 ^ (page as u8).wrapping_mul(29), PS as usize)
}

/// A PVM of `frames` frames on `mmu`, tracing evictions.
fn world(
    frames: u32,
    mmu: MmuChoice,
    tweak: impl FnOnce(&mut PvmOptions),
) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    setup_with(frames, |o| {
        o.mmu = mmu;
        o.config.trace = TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        };
        tweak(o);
    })
}

/// A cache over a `pages`-page file whose pages `resident` are read in
/// through the cache (resident, mapped nowhere).
fn file(
    pvm: &Pvm,
    mgr: &MemSegmentManager,
    pages: u64,
    resident: impl IntoIterator<Item = u64>,
) -> CacheId {
    let data: Vec<u8> = (0..pages).flat_map(page_bytes).collect();
    let cache = pvm.cache_create(Some(mgr.create_segment(&data))).unwrap();
    for p in resident {
        let mut buf = vec![0u8; PS as usize];
        pvm.cache_read(cache, p * PS, &mut buf).unwrap();
        assert_eq!(buf, page_bytes(p));
    }
    cache
}

/// A fresh context mapping the first `pages` pages of `cache` at `BASE`.
fn map(pvm: &Pvm, cache: CacheId, pages: u64, prot: Prot) -> CtxId {
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(BASE), pages * PS, prot, cache, 0)
        .unwrap();
    ctx
}

/// Reads file page `page` in `ctx` and checks its bytes.
fn touch(pvm: &Pvm, ctx: CtxId, page: u64) {
    assert_eq!(
        read(pvm, ctx, BASE + page * PS, PS as usize),
        page_bytes(page)
    );
}

/// (faults entered, pages mapped, pages unmapped, entries re-protected)
/// since the PVM was built.
fn mmu_ops(pvm: &Pvm) -> [u64; 4] {
    let m = pvm.cost_model();
    [
        OpKind::FaultEntry,
        OpKind::MapPage,
        OpKind::UnmapPage,
        OpKind::ProtectPage,
    ]
    .map(|k| m.count(k))
}

/// `mmu_ops` after minus before.
fn delta(after: [u64; 4], before: [u64; 4]) -> [u64; 4] {
    [0, 1, 2, 3].map(|i| after[i] - before[i])
}

/// The pages of `of` evicted since the last call, in order.
fn evicted(pvm: &Pvm, of: CacheId) -> Vec<u64> {
    pvm.tracer()
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            // No cache is destroyed here: generation 0 throughout.
            TraceEvent::Eviction { cache, offset } if CacheId::pack(cache, 0) == of => {
                Some(offset / PS)
            }
            _ => None,
        })
        .collect()
}

#[test]
fn a_write_after_a_read_reprotects_the_entry_in_place() {
    for mmu in MMUS {
        let (pvm, _) = world(16, mmu, |_| {});
        let ctx = pvm.context_create().unwrap();
        let cache = pvm.cache_create(None).unwrap();
        pvm.region_create(ctx, VirtAddr(ANON), 2 * PS, Prot::RW, cache, 0)
            .unwrap();
        // The read maps the own (zero-filled, clean) page read-only.
        assert_eq!(read(&pvm, ctx, ANON, 4), [0; 4]);
        let before = mmu_ops(&pvm);
        let data = pattern(0x5a, PS as usize);
        write(&pvm, ctx, ANON, &data);
        // One fault, one re-protection, no unmap and no map.
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 0, 0, 1], "{mmu:?}");
        assert_eq!(read(&pvm, ctx, ANON, PS as usize), data, "{mmu:?}");
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 0, 0, 1], "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn a_read_fault_maps_the_resident_run_after_it() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |_| {});
        let cache = file(&pvm, &mgr, PAGES, 0..PAGES);
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let k = 2;
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, k);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, WINDOW, 0, 0], "{mmu:?}");
        for p in k + 1..k + WINDOW {
            touch(&pvm, ctx, p);
        }
        assert_eq!(delta(mmu_ops(&pvm), before), [1, WINDOW, 0, 0], "{mmu:?}");
        // The page after the window faults and maps the rest.
        touch(&pvm, ctx, k + WINDOW);
        assert_eq!(
            delta(mmu_ops(&pvm), before),
            [2, PAGES - k, 0, 0],
            "{mmu:?}"
        );
        pvm.check_invariants();
    }
}

#[test]
fn the_run_stops_at_the_region_end() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |_| {});
        // The cache holds 16 resident pages; the region maps 12.
        let cache = file(&pvm, &mgr, 16, 0..16);
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 9);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 3, 0, 0], "{mmu:?}");
        touch(&pvm, ctx, 11);
        assert_eq!(delta(mmu_ops(&pvm), before)[0], 1, "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn the_run_stops_at_a_page_not_resident() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |_| {});
        let cache = file(&pvm, &mgr, PAGES, (0..PAGES).filter(|&p| p != 5));
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 2);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 3, 0, 0], "{mmu:?}");
        touch(&pvm, ctx, 4);
        assert_eq!(delta(mmu_ops(&pvm), before)[0], 1, "{mmu:?}");
        // Page 5 is pulled by its own fault, which maps 6..=11 after it.
        touch(&pvm, ctx, 5);
        assert_eq!(delta(mmu_ops(&pvm), before), [2, 10, 0, 0], "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn the_run_stops_at_a_page_already_mapped() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |_| {});
        let cache = file(&pvm, &mgr, PAGES, 0..PAGES);
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 5);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 7, 0, 0], "{mmu:?}");
        // Pages 2..=4, then page 5's entry stands: no unmap, no remap.
        touch(&pvm, ctx, 2);
        assert_eq!(delta(mmu_ops(&pvm), before), [2, 10, 0, 0], "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn the_run_stops_at_unread_readahead() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |o| o.config.pull_cluster_pages = WINDOW);
        let cache = file(&pvm, &mgr, PAGES, []);
        // A read in another context pulls pages 0..8, and 1..8 land as
        // the window's unread tail. Pages 1 and 2 are then read.
        let other = map(&pvm, cache, PAGES, Prot::READ);
        touch(&pvm, other, 0);
        pvm.drain_upcalls();
        assert_eq!(pvm.stats().readahead_pages, WINDOW - 1, "{mmu:?}");
        for p in 1..=2 {
            pvm.cache_read(cache, p * PS, &mut [0u8]).unwrap();
        }
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 0);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, 3, 0, 0], "{mmu:?}");
        touch(&pvm, ctx, 3);
        assert_eq!(delta(mmu_ops(&pvm), before)[0], 2, "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn a_read_write_region_gets_no_run() {
    for mmu in MMUS {
        let (pvm, mgr) = world(64, mmu, |_| {});
        let cache = file(&pvm, &mgr, PAGES, 0..PAGES);
        let ctx = map(&pvm, cache, PAGES, Prot::RW);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 2);
        touch(&pvm, ctx, 3);
        assert_eq!(delta(mmu_ops(&pvm), before), [2, 2, 0, 0], "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn a_mapped_run_is_unreferenced_until_read_and_evicts_cleanly() {
    for mmu in MMUS {
        // Twelve file pages and one anonymous page fill the pool.
        let (pvm, mgr) = world(PAGES as u32 + 1, mmu, |_| {});
        let cache = file(&pvm, &mgr, PAGES, 0..PAGES);
        let anon = pvm.context_create().unwrap();
        let heap = pvm.cache_create(None).unwrap();
        pvm.region_create(anon, VirtAddr(ANON), 4 * PS, Prot::RW, heap, 0)
            .unwrap();
        let fresh = |page: u64| assert_eq!(read(&pvm, anon, ANON + page * PS, 1), [0]);
        fresh(0);
        evicted(&pvm, cache);
        // The next frame takes a full sweep: the hand clears every
        // page, then takes the first, file page 0.
        fresh(1);
        assert_eq!(evicted(&pvm, cache), [0], "{mmu:?}");

        // A fault at page 1 maps 1..=8; page 3 is then read.
        let ctx = map(&pvm, cache, PAGES, Prot::READ);
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 1);
        touch(&pvm, ctx, 3);
        assert_eq!(delta(mmu_ops(&pvm), before), [1, WINDOW, 0, 0], "{mmu:?}");
        // The hand gives the faulted page 1 a second chance and takes
        // page 2, mapped but never read; then it passes page 3, read
        // through its entry, and takes page 4.
        fresh(2);
        assert_eq!(evicted(&pvm, cache), [2], "{mmu:?}");
        fresh(3);
        assert_eq!(evicted(&pvm, cache), [4], "{mmu:?}");
        // The evicted page's entry went with it: a reread faults and
        // pulls the right bytes.
        let before = mmu_ops(&pvm);
        touch(&pvm, ctx, 2);
        assert_eq!(delta(mmu_ops(&pvm), before)[0], 1, "{mmu:?}");
        pvm.check_invariants();
    }
}
