//! Basic address-space and demand-paging behaviour (Table 2 + §4.1).

mod common;

use chorus_gmi::{Gmi, GmiError, Prot, VirtAddr};
use common::*;

#[test]
fn zero_fill_read_write_roundtrip() {
    let (pvm, _) = setup(32);
    let (ctx, _r, _c) = anon_region(&pvm, 4);
    // Fresh anonymous memory reads as zeroes.
    assert_eq!(read(&pvm, ctx, 0x1_0000, 16), vec![0u8; 16]);
    // Round-trip a pattern crossing page boundaries.
    let data = pattern(7, (2 * PS + 32) as usize);
    write(&pvm, ctx, 0x1_0000 + PS / 2, &data);
    assert_eq!(read(&pvm, ctx, 0x1_0000 + PS / 2, data.len()), data);
    let stats = pvm.stats();
    assert!(
        stats.zero_fills >= 3,
        "demand-zero fills expected, got {stats:?}"
    );
}

#[test]
fn unmapped_access_is_segmentation_fault() {
    let (pvm, _) = setup(8);
    let ctx = pvm.context_create().unwrap();
    let mut buf = [0u8; 4];
    let err = pvm.vm_read(ctx, VirtAddr(0xDEAD000), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::SegmentationFault { .. }), "{err}");
}

#[test]
fn write_to_read_only_region_is_protection_violation() {
    let (pvm, _) = setup(8);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let _r = pvm
        .region_create(ctx, VirtAddr(0x2000), PS, Prot::READ, cache, 0)
        .unwrap();
    assert_eq!(read(&pvm, ctx, 0x2000, 4), vec![0; 4]);
    let err = pvm.vm_write(ctx, VirtAddr(0x2000), b"x").unwrap_err();
    assert!(matches!(err, GmiError::ProtectionViolation { .. }), "{err}");
}

#[test]
fn region_overlap_rejected() {
    let (pvm, _) = setup(8);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x1000), 4 * PS, Prot::RW, cache, 0)
        .unwrap();
    for addr in [0x1000u64, 0x1000 + PS, 0x1000 + 3 * PS, 0x1000 - PS] {
        let err = pvm
            .region_create(ctx, VirtAddr(addr), 2 * PS, Prot::RW, cache, 0)
            .unwrap_err();
        assert!(
            matches!(err, GmiError::RegionOverlap { .. }),
            "addr {addr:#x}: {err}"
        );
    }
    // Adjacent regions are fine.
    pvm.region_create(ctx, VirtAddr(0x1000 + 4 * PS), PS, Prot::RW, cache, 4 * PS)
        .unwrap();
    pvm.region_create(
        ctx,
        VirtAddr(0x1000 - 2 * PS),
        2 * PS,
        Prot::RW,
        cache,
        8 * PS,
    )
    .unwrap();
}

#[test]
fn unaligned_region_arguments_rejected() {
    let (pvm, _) = setup(8);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    assert!(matches!(
        pvm.region_create(ctx, VirtAddr(12), PS, Prot::RW, cache, 0),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        pvm.region_create(ctx, VirtAddr(0), PS + 1, Prot::RW, cache, 0),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 3),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        pvm.region_create(ctx, VirtAddr(0), 0, Prot::RW, cache, 0),
        Err(GmiError::InvalidArgument(_))
    ));
}

#[test]
fn region_list_sorted_and_status_accurate() {
    let (pvm, _) = setup(16);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    // Create out of order.
    pvm.region_create(ctx, VirtAddr(8 * PS), PS, Prot::READ, cache, 0)
        .unwrap();
    pvm.region_create(ctx, VirtAddr(2 * PS), 2 * PS, Prot::RW, cache, PS)
        .unwrap();
    pvm.region_create(ctx, VirtAddr(5 * PS), PS, Prot::RX, cache, 4 * PS)
        .unwrap();
    let list = pvm.region_list(ctx).unwrap();
    let addrs: Vec<u64> = list.iter().map(|(_, s)| s.addr.0).collect();
    assert_eq!(addrs, vec![2 * PS, 5 * PS, 8 * PS]);
    let (_, s) = &list[0];
    assert_eq!(s.size, 2 * PS);
    assert_eq!(s.prot, Prot::RW);
    assert_eq!(s.offset, PS);
    assert_eq!(s.resident_pages, 0);
}

#[test]
fn find_region_resolves_addresses() {
    let (pvm, _) = setup(8);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let r = pvm
        .region_create(ctx, VirtAddr(4 * PS), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    assert_eq!(pvm.find_region(ctx, VirtAddr(4 * PS)).unwrap(), r);
    assert_eq!(pvm.find_region(ctx, VirtAddr(6 * PS - 1)).unwrap(), r);
    assert!(pvm.find_region(ctx, VirtAddr(6 * PS)).is_err());
    assert!(pvm.find_region(ctx, VirtAddr(0)).is_err());
}

#[test]
fn region_split_preserves_contents_and_windows() {
    let (pvm, _) = setup(16);
    let (ctx, region, _cache) = anon_region(&pvm, 4);
    let data = pattern(3, (4 * PS) as usize);
    write(&pvm, ctx, 0x1_0000, &data);
    let upper = pvm.region_split(region, 2 * PS).unwrap();
    let su = pvm.region_status(upper).unwrap();
    assert_eq!(su.addr, VirtAddr(0x1_0000 + 2 * PS));
    assert_eq!(su.size, 2 * PS);
    assert_eq!(su.offset, 2 * PS);
    let sl = pvm.region_status(region).unwrap();
    assert_eq!(sl.size, 2 * PS);
    // Contents unchanged after the split.
    assert_eq!(read(&pvm, ctx, 0x1_0000, data.len()), data);
    // Split at 0 or at/past the end is invalid.
    assert!(pvm.region_split(region, 0).is_err());
    assert!(pvm.region_split(region, 2 * PS).is_err());
}

#[test]
fn split_then_set_protection_on_half() {
    let (pvm, _) = setup(16);
    let (ctx, region, _cache) = anon_region(&pvm, 4);
    write(&pvm, ctx, 0x1_0000, &pattern(9, (4 * PS) as usize));
    let upper = pvm.region_split(region, 2 * PS).unwrap();
    pvm.region_set_protection(upper, Prot::READ).unwrap();
    // Lower half still writable.
    write(&pvm, ctx, 0x1_0000, b"ok");
    // Upper half now read-only.
    let err = pvm
        .vm_write(ctx, VirtAddr(0x1_0000 + 2 * PS), b"no")
        .unwrap_err();
    assert!(matches!(err, GmiError::ProtectionViolation { .. }));
    // Reads still fine.
    let _ = read(&pvm, ctx, 0x1_0000 + 2 * PS, 8);
    // Re-enable writes.
    pvm.region_set_protection(upper, Prot::RW).unwrap();
    write(&pvm, ctx, 0x1_0000 + 2 * PS, b"yes");
}

#[test]
fn region_destroy_unmaps_and_rejects_further_access() {
    let (pvm, _) = setup(16);
    let (ctx, region, cache) = anon_region(&pvm, 2);
    write(&pvm, ctx, 0x1_0000, b"hello");
    pvm.region_destroy(region).unwrap();
    let mut buf = [0u8; 4];
    assert!(pvm.vm_read(ctx, VirtAddr(0x1_0000), &mut buf).is_err());
    // Cache data survives region destruction (caches outlive mappings).
    assert_eq!(pvm.read_logical(cache, 0, 5).unwrap(), b"hello");
    // Remapping sees the same data.
    let r2 = pvm
        .region_create(ctx, VirtAddr(0x9_0000), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    assert_eq!(read(&pvm, ctx, 0x9_0000, 5), b"hello");
    pvm.region_destroy(r2).unwrap();
}

#[test]
fn context_destroy_releases_everything() {
    let (pvm, _) = setup(16);
    let (ctx, _r, cache) = anon_region(&pvm, 4);
    write(&pvm, ctx, 0x1_0000, &pattern(1, (3 * PS) as usize));
    pvm.context_destroy(ctx).unwrap();
    assert!(
        pvm.context_destroy(ctx).is_err(),
        "double destroy must fail"
    );
    // The cache itself still holds the pages until destroyed.
    assert!(pvm.cache_resident_pages(cache).unwrap() >= 3);
    pvm.cache_destroy(cache).unwrap();
    assert_eq!(pvm.resident_page_count(), 0);
    assert_eq!(pvm.free_frames(), 16);
}

#[test]
fn shared_mapping_between_contexts_sees_writes() {
    let (pvm, _) = setup(16);
    let cache = pvm.cache_create(None).unwrap();
    let a = pvm.context_create().unwrap();
    let b = pvm.context_create().unwrap();
    pvm.region_create(a, VirtAddr(0x1000), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    pvm.region_create(b, VirtAddr(0x8000), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, a, 0x1000 + 5, b"shared");
    assert_eq!(read(&pvm, b, 0x8000 + 5, 6), b"shared");
    // And the reverse direction.
    write(&pvm, b, 0x8000 + 100, b"back");
    assert_eq!(read(&pvm, a, 0x1000 + 100, 4), b"back");
}

#[test]
fn window_region_maps_segment_offset() {
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&pattern(0x40, (4 * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    // Map only pages 2..4 of the segment.
    pvm.region_create(ctx, VirtAddr(0x4000), 2 * PS, Prot::RW, cache, 2 * PS)
        .unwrap();
    let expected =
        pattern(0x40, (4 * PS) as usize)[(2 * PS) as usize..(2 * PS) as usize + 8].to_vec();
    assert_eq!(read(&pvm, ctx, 0x4000, 8), expected);
}

#[test]
fn mapped_file_pull_in_on_demand() {
    let (pvm, mgr) = setup(16);
    let content = pattern(0xA0, (3 * PS) as usize);
    let seg = mgr.create_segment(&content);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 3 * PS, Prot::RW, cache, 0)
        .unwrap();
    mgr.take_log();
    // Touch only the middle page: exactly one pull.
    let got = read(&pvm, ctx, PS + 3, 10);
    assert_eq!(got, content[(PS + 3) as usize..(PS + 13) as usize]);
    let log = mgr.take_log();
    assert_eq!(log.len(), 1, "only the touched page is pulled: {log:?}");
    assert_eq!(pvm.stats().pull_ins, 1);
}

#[test]
fn dirty_data_synced_back_to_segment() {
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&vec![0u8; (2 * PS) as usize]);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 10, b"persist-me");
    pvm.cache_sync(cache, 0, 2 * PS).unwrap();
    let data = mgr.segment_data(seg);
    assert_eq!(&data[10..20], b"persist-me");
    // Sync keeps the page resident; flush drops it.
    assert_eq!(pvm.cache_resident_pages(cache).unwrap(), 1);
    pvm.cache_flush(cache, 0, 2 * PS).unwrap();
    assert_eq!(pvm.cache_resident_pages(cache).unwrap(), 0);
    // Data still readable (pulled back in).
    assert_eq!(read(&pvm, ctx, 10, 10), b"persist-me");
}

#[test]
fn context_switch_tracks_current() {
    let (pvm, _) = setup(8);
    let a = pvm.context_create().unwrap();
    let b = pvm.context_create().unwrap();
    pvm.context_switch(a).unwrap();
    pvm.context_switch(b).unwrap();
    pvm.context_destroy(a).unwrap();
    assert!(pvm.context_switch(a).is_err());
    pvm.context_switch(b).unwrap();
}

#[test]
fn dead_handles_error_cleanly() {
    let (pvm, _) = setup(8);
    let (ctx, region, cache) = anon_region(&pvm, 1);
    pvm.region_destroy(region).unwrap();
    assert!(matches!(
        pvm.region_status(region),
        Err(GmiError::NoSuchRegion(_))
    ));
    assert!(matches!(
        pvm.region_destroy(region),
        Err(GmiError::NoSuchRegion(_))
    ));
    pvm.cache_destroy(cache).unwrap();
    assert!(matches!(
        pvm.cache_resident_pages(cache),
        Err(GmiError::NoSuchCache(_))
    ));
    pvm.context_destroy(ctx).unwrap();
    assert!(matches!(
        pvm.region_list(ctx),
        Err(GmiError::NoSuchContext(_))
    ));
}

#[test]
fn destroying_mapped_cache_is_rejected() {
    let (pvm, _) = setup(8);
    let (_ctx, _region, cache) = anon_region(&pvm, 1);
    assert!(matches!(
        pvm.cache_destroy(cache),
        Err(GmiError::InvalidArgument(_))
    ));
}

#[test]
fn lock_in_memory_pins_pages() {
    let (pvm, _) = setup(8);
    let (ctx, region, _cache) = anon_region(&pvm, 2);
    pvm.region_lock_in_memory(region).unwrap();
    // All pages materialized.
    assert_eq!(pvm.region_status(region).unwrap().resident_pages, 2);
    assert!(pvm.region_status(region).unwrap().locked);
    // Locked regions refuse destruction until unlocked.
    assert!(matches!(pvm.region_destroy(region), Err(GmiError::Locked)));
    pvm.region_unlock(region).unwrap();
    pvm.region_destroy(region).unwrap();
    let _ = ctx;
}

#[test]
fn both_mmu_backends_agree() {
    for mmu in [chorus_pvm::MmuChoice::Soft, chorus_pvm::MmuChoice::TwoLevel] {
        let (pvm, _) = setup_with(16, |o| o.mmu = mmu);
        let (ctx, _r, _c) = anon_region(&pvm, 4);
        let data = pattern(0x11, (3 * PS) as usize);
        write(&pvm, ctx, 0x1_0000 + 17, &data);
        assert_eq!(
            read(&pvm, ctx, 0x1_0000 + 17, data.len()),
            data,
            "mmu {mmu:?}"
        );
    }
}

/// `handle_fault` on a mapping that already allows the access changes
/// nothing: no frame is allocated, freed, zeroed or copied (so the page
/// keeps its frame), the bytes stand, and the fault is counted once.
#[test]
fn fault_on_an_already_valid_mapping_is_an_idempotent_success() {
    use chorus_gmi::Access;
    for mmu in [chorus_pvm::MmuChoice::Soft, chorus_pvm::MmuChoice::TwoLevel] {
        let (pvm, _) = setup_with(16, |o| o.mmu = mmu);
        // A read-only mapping of a page with known bytes, and a
        // writable mapping of an anonymous page, both already entered.
        let ctx = pvm.context_create().unwrap();
        let ro_cache = pvm.cache_create(None).unwrap();
        let ro_data = pattern(0x51, PS as usize);
        pvm.write_logical(ro_cache, 0, &ro_data).unwrap();
        pvm.region_create(ctx, VirtAddr(0x4_0000), PS, Prot::READ, ro_cache, 0)
            .unwrap();
        assert_eq!(read(&pvm, ctx, 0x4_0000, PS as usize), ro_data);
        let rw_cache = pvm.cache_create(None).unwrap();
        pvm.region_create(ctx, VirtAddr(0x8_0000), PS, Prot::RW, rw_cache, 0)
            .unwrap();
        let rw_data = pattern(0x62, PS as usize);
        write(&pvm, ctx, 0x8_0000, &rw_data);

        for (va, access, cache, want) in [
            (0x4_0000, Access::Read, ro_cache, &ro_data),
            (0x8_0000, Access::Write, rw_cache, &rw_data),
        ] {
            let observe = || {
                (
                    pvm.mem_stats(),
                    pvm.resident_page_count(),
                    pvm.free_frames(),
                    pvm.dump_caches().cache(cache).unwrap().slots.clone(),
                )
            };
            let (faults, before) = (pvm.stats().faults, observe());
            pvm.handle_fault(ctx, VirtAddr(va), access)
                .unwrap_or_else(|e| panic!("{mmu:?} {access:?}: {e}"));
            assert_eq!(pvm.stats().faults, faults + 1, "{mmu:?} {access:?}");
            assert_eq!(
                observe(),
                before,
                "{mmu:?} {access:?}: frame pool, residency or slot state moved"
            );
            assert_eq!(
                &read(&pvm, ctx, va, PS as usize),
                want,
                "{mmu:?} {access:?}"
            );
            pvm.check_invariants();
        }
    }
}
