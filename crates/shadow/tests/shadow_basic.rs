//! Behaviour of the Mach-style shadow-object baseline: correct COW
//! semantics, chain growth, and chain collapse (§4.2.5).

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{CopyMode, Gmi, GmiError, Prot, VirtAddr};
use chorus_hal::{CostParams, PageGeometry};
use chorus_shadow::{ShadowOptions, ShadowVm};
use std::sync::Arc;

const PS: u64 = 256;

fn setup(frames: u32) -> (Arc<ShadowVm>, Arc<MemSegmentManager>) {
    setup_opt(frames, true)
}

fn setup_opt(frames: u32, collapse: bool) -> (Arc<ShadowVm>, Arc<MemSegmentManager>) {
    let mgr = Arc::new(MemSegmentManager::new());
    let vm = ShadowVm::new(
        ShadowOptions {
            geometry: PageGeometry::new(PS),
            frames,
            cost: CostParams::zero(),
            collapse_chains: collapse,
        },
        mgr.clone(),
    );
    (Arc::new(vm), mgr)
}

fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn zero_fill_and_roundtrip_through_mapping() {
    let (vm, _) = setup(32);
    let ctx = vm.context_create().unwrap();
    let cache = vm.cache_create(None).unwrap();
    vm.region_create(ctx, VirtAddr(0x1000), 4 * PS, Prot::RW, cache, 0)
        .unwrap();
    let mut buf = vec![1u8; 32];
    vm.vm_read(ctx, VirtAddr(0x1000), &mut buf).unwrap();
    assert_eq!(buf, vec![0u8; 32]);
    let data = pattern(9, (2 * PS) as usize);
    vm.vm_write(ctx, VirtAddr(0x1000 + 10), &data).unwrap();
    let mut got = vec![0u8; data.len()];
    vm.vm_read(ctx, VirtAddr(0x1000 + 10), &mut got).unwrap();
    assert_eq!(got, data);
}

#[test]
fn copy_creates_two_shadows_and_isolates() {
    let (vm, _) = setup(64);
    let src = vm.cache_create(None).unwrap();
    vm.cache_write(src, 0, &pattern(0x10, (4 * PS) as usize))
        .unwrap();
    let dst = vm.cache_create(None).unwrap();
    let objs_before = vm.object_count();
    vm.cache_copy(src, 0, dst, 0, 4 * PS).unwrap();
    // "two new memory objects, the shadow objects, are created".
    assert_eq!(vm.object_count(), objs_before + 2);
    assert_eq!(vm.stats().shadows_created, 2);
    // COW isolation both ways.
    vm.cache_write(src, 0, b"SRC").unwrap();
    vm.cache_write(dst, PS, b"DST").unwrap();
    let mut b = vec![0u8; 3];
    vm.cache_read(dst, 0, &mut b).unwrap();
    assert_eq!(b, pattern(0x10, 3));
    vm.cache_read(src, PS, &mut b).unwrap();
    assert_eq!(
        b,
        pattern(0x10, (4 * PS) as usize)[PS as usize..PS as usize + 3]
    );
}

#[test]
fn repeated_copies_grow_chains() {
    let (vm, _) = setup(128);
    let src = vm.cache_create(None).unwrap();
    vm.cache_write(src, 0, &pattern(1, (2 * PS) as usize))
        .unwrap();
    for i in 0..5 {
        let d = vm.cache_create(None).unwrap();
        vm.cache_copy(src, 0, d, 0, 2 * PS).unwrap();
        // Touch the source so the next copy freezes new pages.
        vm.cache_write(src, 0, &[i as u8]).unwrap();
    }
    // The source side accumulates a shadow chain (§4.2.5 problem 1).
    assert!(
        vm.chain_depth(src, 0) >= 5,
        "depth = {}",
        vm.chain_depth(src, 0)
    );
}

#[test]
fn child_exit_collapses_chain() {
    let (vm, _) = setup(128);
    let src = vm.cache_create(None).unwrap();
    vm.cache_write(src, 0, &pattern(1, (2 * PS) as usize))
        .unwrap();
    // Fork-and-exit loop: each child copy is destroyed again (the shell
    // scenario). With GC the source chain must stay bounded.
    for i in 0..8 {
        let d = vm.cache_create(None).unwrap();
        vm.cache_copy(src, 0, d, 0, 2 * PS).unwrap();
        vm.cache_write(src, 0, &[0x40 + i as u8]).unwrap();
        vm.cache_destroy(d).unwrap();
    }
    assert!(vm.stats().collapses > 0, "GC must run: {:?}", vm.stats());
    assert!(
        vm.chain_depth(src, 0) <= 2,
        "collapsed chain expected, depth = {}",
        vm.chain_depth(src, 0)
    );
    let mut b = vec![0u8; 1];
    vm.cache_read(src, 0, &mut b).unwrap();
    assert_eq!(b[0], 0x47);
}

#[test]
fn without_gc_chains_grow_unboundedly() {
    let (vm, _) = setup_opt(256, false);
    let src = vm.cache_create(None).unwrap();
    vm.cache_write(src, 0, &pattern(1, PS as usize)).unwrap();
    for i in 0..8 {
        let d = vm.cache_create(None).unwrap();
        vm.cache_copy(src, 0, d, 0, PS).unwrap();
        vm.cache_write(src, 0, &[i]).unwrap();
        vm.cache_destroy(d).unwrap();
    }
    assert_eq!(vm.stats().collapses, 0);
    assert!(
        vm.chain_depth(src, 0) >= 8,
        "depth = {}",
        vm.chain_depth(src, 0)
    );
}

#[test]
fn copy_of_copy_preserves_snapshots() {
    let (vm, _) = setup(64);
    let a = vm.cache_create(None).unwrap();
    vm.cache_write(a, 0, &pattern(0xA0, (2 * PS) as usize))
        .unwrap();
    let b = vm.cache_create(None).unwrap();
    vm.cache_copy(a, 0, b, 0, 2 * PS).unwrap();
    vm.cache_write(a, 0, &pattern(0xB0, PS as usize)).unwrap();
    let c = vm.cache_create(None).unwrap();
    vm.cache_copy(b, 0, c, 0, 2 * PS).unwrap();
    vm.cache_write(b, PS, b"bb").unwrap();
    // c sees b's snapshot (= a's original).
    let mut buf = vec![0u8; PS as usize];
    vm.cache_read(c, 0, &mut buf).unwrap();
    assert_eq!(buf, pattern(0xA0, PS as usize));
    vm.cache_read(c, PS, &mut buf).unwrap();
    assert_eq!(buf, pattern(0xA0, (2 * PS) as usize)[PS as usize..]);
    // a sees only its own change.
    vm.cache_read(a, 0, &mut buf).unwrap();
    assert_eq!(buf, pattern(0xB0, PS as usize));
}

#[test]
fn segment_backed_pull_and_sync() {
    let (vm, mgr) = setup(32);
    let content = pattern(0x33, (2 * PS) as usize);
    let seg = mgr.create_segment(&content);
    let cache = vm.cache_create(Some(seg)).unwrap();
    let mut buf = vec![0u8; 8];
    vm.cache_read(cache, PS, &mut buf).unwrap();
    assert_eq!(buf, content[PS as usize..PS as usize + 8]);
    assert!(vm.stats().pull_ins >= 1);
    vm.cache_write(cache, 0, b"dirty").unwrap();
    vm.cache_sync(cache, 0, 2 * PS).unwrap();
    assert_eq!(&mgr.segment_data(seg)[..5], b"dirty");
}

#[test]
fn flush_pages_out_shadow_objects_to_their_own_segments() {
    let (vm, mgr) = setup(32);
    let cache = vm.cache_create(None).unwrap();
    vm.cache_write(cache, 0, &pattern(0x21, PS as usize))
        .unwrap();
    vm.cache_flush(cache, 0, PS).unwrap();
    // The anonymous object got its own swap segment lazily.
    assert!(mgr
        .take_log()
        .iter()
        .any(|u| matches!(u, chorus_gmi::testing::Upcall::SegmentCreate { .. })));
    assert_eq!(vm.cache_resident_pages(cache).unwrap(), 0);
    let mut buf = vec![0u8; PS as usize];
    vm.cache_read(cache, 0, &mut buf).unwrap();
    assert_eq!(buf, pattern(0x21, PS as usize));
}

#[test]
fn fork_write_fault_through_mapping() {
    // The Unix fork analogue through mapped regions.
    let (vm, _) = setup(64);
    let parent_cache = vm.cache_create(None).unwrap();
    let parent = vm.context_create().unwrap();
    vm.region_create(parent, VirtAddr(0), 2 * PS, Prot::RW, parent_cache, 0)
        .unwrap();
    vm.vm_write(parent, VirtAddr(0), &pattern(0x11, (2 * PS) as usize))
        .unwrap();

    let child_cache = vm.cache_create(None).unwrap();
    vm.cache_copy(parent_cache, 0, child_cache, 0, 2 * PS)
        .unwrap();
    let child = vm.context_create().unwrap();
    vm.region_create(child, VirtAddr(0), 2 * PS, Prot::RW, child_cache, 0)
        .unwrap();

    // Child reads parent data, then both diverge.
    let mut buf = vec![0u8; 4];
    vm.vm_read(child, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf, pattern(0x11, 4));
    vm.vm_write(parent, VirtAddr(0), b"PPPP").unwrap();
    vm.vm_write(child, VirtAddr(4), b"CCCC").unwrap();
    vm.vm_read(child, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf, pattern(0x11, 4), "child keeps the snapshot");
    vm.vm_read(parent, VirtAddr(0), &mut buf).unwrap();
    assert_eq!(buf, b"PPPP");
    vm.vm_read(parent, VirtAddr(4), &mut buf).unwrap();
    assert_eq!(
        buf,
        pattern(0x11, 8)[4..8],
        "parent unaffected by child write"
    );
}

#[test]
fn out_of_memory_reported_without_replacement() {
    let (vm, _) = setup(2);
    let cache = vm.cache_create(None).unwrap();
    vm.cache_write(cache, 0, &[1]).unwrap();
    vm.cache_write(cache, PS, &[2]).unwrap();
    let err = vm.cache_write(cache, 2 * PS, &[3]).unwrap_err();
    assert_eq!(err, GmiError::OutOfMemory);
}

#[test]
fn coherence_control_is_unsupported() {
    let (vm, _) = setup(8);
    let cache = vm.cache_create(None).unwrap();
    assert!(matches!(
        vm.cache_set_protection(cache, 0, PS, Prot::READ),
        Err(GmiError::Unsupported(_))
    ));
}

#[test]
fn deferred_modes_all_map_to_shadows() {
    let (vm, _) = setup(64);
    let src = vm.cache_create(None).unwrap();
    vm.cache_write(src, 0, &pattern(3, PS as usize)).unwrap();
    for mode in [
        CopyMode::HistoryCow,
        CopyMode::HistoryCor,
        CopyMode::PerPage,
        CopyMode::Auto,
    ] {
        let before = vm.stats().shadows_created;
        let d = vm.cache_create(None).unwrap();
        vm.cache_copy_with(src, 0, d, 0, PS, mode).unwrap();
        assert_eq!(vm.stats().shadows_created, before + 2, "{mode:?}");
        vm.cache_destroy(d).unwrap();
    }
}

#[test]
fn lock_in_memory_materializes_and_pins() {
    let (vm, _) = setup(8);
    let ctx = vm.context_create().unwrap();
    let cache = vm.cache_create(None).unwrap();
    let r = vm
        .region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    vm.region_lock_in_memory(r).unwrap();
    assert_eq!(vm.region_status(r).unwrap().resident_pages, 2);
    assert!(matches!(vm.region_destroy(r), Err(GmiError::Locked)));
    vm.region_unlock(r).unwrap();
    vm.region_destroy(r).unwrap();
}
