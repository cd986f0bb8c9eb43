//! Cache-management edge cases (Table 4): flush/sync over stubs and
//! locks, invalidate with history descendants, protection interplay.

mod common;

use chorus_gmi::testing::Upcall;
use chorus_gmi::{CacheId, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, VirtAddr};
use chorus_nucleus::{Capability, Mapper, MemMapper, NucleusSegmentManager, PortName};
use chorus_pvm::{Pvm, PvmConfig, PvmOptions, SlotDump};
use common::*;
use std::sync::Arc;

#[test]
fn sync_skips_clean_and_stubbed_ranges() {
    let (pvm, mgr) = setup(32);
    let seg = mgr.create_segment(&pattern(1, (4 * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    // Pull two pages, dirty one.
    assert_eq!(pvm.read_logical(cache, 0, 4).unwrap(), pattern(1, 4));
    pvm.write_logical(cache, PS, b"dirty").unwrap();
    mgr.take_log();
    pvm.cache_sync(cache, 0, 4 * PS).unwrap();
    let pushes = mgr
        .take_log()
        .iter()
        .filter(|u| matches!(u, Upcall::PushOut { .. }))
        .count();
    assert_eq!(pushes, 1, "only the dirty page is pushed");
    // Second sync: nothing dirty.
    pvm.cache_sync(cache, 0, 4 * PS).unwrap();
    assert!(mgr
        .take_log()
        .iter()
        .all(|u| !matches!(u, Upcall::PushOut { .. })));
}

#[test]
fn flush_refuses_locked_pages() {
    let (pvm, _) = setup(16);
    let cache = pvm.cache_create(None).unwrap();
    pvm.write_logical(cache, 0, b"pinned").unwrap();
    pvm.cache_lock_in_memory(cache, 0, PS).unwrap();
    assert!(matches!(
        pvm.cache_flush(cache, 0, PS),
        Err(GmiError::Locked)
    ));
    pvm.cache_unlock(cache, 0, PS).unwrap();
    pvm.cache_flush(cache, 0, PS).unwrap();
    // Data survives the flush through the lazily-bound swap segment.
    assert_eq!(pvm.read_logical(cache, 0, 6).unwrap(), b"pinned");
}

#[test]
fn invalidate_preserves_history_descendants() {
    let (pvm, mgr) = setup(32);
    let seg = mgr.create_segment(&pattern(0x42, (2 * PS) as usize));
    let file = pvm.cache_create(Some(seg)).unwrap();
    // Materialize + snapshot.
    assert_eq!(pvm.read_logical(file, 0, 4).unwrap(), pattern(0x42, 4));
    let snap = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(file, 0, snap, 0, 2 * PS, CopyMode::HistoryCow)
        .unwrap();
    // Someone else rewrites the segment and we invalidate our replica.
    let writer = pvm.cache_create(Some(seg)).unwrap();
    pvm.write_logical(writer, 0, &pattern(0x99, (2 * PS) as usize))
        .unwrap();
    pvm.cache_sync(writer, 0, 2 * PS).unwrap();
    pvm.cache_invalidate(file, 0, 2 * PS).unwrap();
    // The file now reads fresh data; the snapshot keeps its history.
    assert_eq!(pvm.read_logical(file, 0, 4).unwrap(), pattern(0x99, 4));
    assert_eq!(pvm.read_logical(snap, 0, 4).unwrap(), pattern(0x42, 4));
}

#[test]
fn set_protection_grant_restores_writes_without_upcall() {
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&pattern(0, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 0, b"a");
    pvm.cache_set_protection(cache, 0, PS, Prot::READ).unwrap();
    // Re-grant locally: no getWriteAccess upcall needed.
    pvm.cache_set_protection(cache, 0, PS, Prot::RW).unwrap();
    mgr.take_log();
    write(&pvm, ctx, 0, b"b");
    assert!(
        mgr.take_log()
            .iter()
            .all(|u| !matches!(u, Upcall::GetWriteAccess { .. })),
        "grant must clear the coherence constraint"
    );
}

#[test]
fn region_lock_materializes_cow_copies_for_stability() {
    // lockInMemory on a region mapping a COW copy must materialize
    // private pages: later source writes cannot shoot down the pinned
    // mappings ("the underlying hardware MMU maps are guaranteed to
    // remain fixed").
    let (pvm, _) = setup(32);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x31, (2 * PS) as usize))
        .unwrap();
    let cpy = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, cpy, 0, 2 * PS, CopyMode::HistoryCow)
        .unwrap();
    let ctx = pvm.context_create().unwrap();
    let r = pvm
        .region_create(ctx, VirtAddr(0x1000), 2 * PS, Prot::READ, cpy, 0)
        .unwrap();
    pvm.region_lock_in_memory(r).unwrap();
    assert_eq!(
        pvm.region_status(r).unwrap().resident_pages,
        2,
        "private pages pinned"
    );
    // Source writes do not disturb the locked region.
    pvm.write_logical(src, 0, &pattern(0xEE, (2 * PS) as usize))
        .unwrap();
    assert_eq!(read(&pvm, ctx, 0x1000, 8), pattern(0x31, 8));
    pvm.region_unlock(r).unwrap();
}

#[test]
fn cache_lock_over_a_deferred_copy_counts_its_copies() {
    // lockInMemory gives each page an own copy the way a fault or a
    // write does, and counts it the same: a copied page is a
    // copy-on-write copy, an untouched one a zero fill, left clean as a
    // read fault leaves it (it needs no write-back until written).
    let (pvm, _) = setup(32);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x31, (2 * PS) as usize))
        .unwrap();
    let cpy = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, cpy, 0, 2 * PS, CopyMode::HistoryCow)
        .unwrap();
    let per_page = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, per_page, 0, 2 * PS, CopyMode::PerPage)
        .unwrap();
    let before = pvm.stats();
    pvm.cache_lock_in_memory(cpy, 0, 3 * PS).unwrap();
    pvm.cache_lock_in_memory(per_page, 0, 2 * PS).unwrap();
    let after = pvm.stats();
    assert_eq!(after.cow_copies - before.cow_copies, 4, "{after:?}");
    assert_eq!(after.zero_fills - before.zero_fills, 1, "{after:?}");
    let dump = pvm.dump_caches();
    let slots = &dump.cache(cpy).unwrap().slots;
    assert_eq!(
        slots.iter().map(|&(o, s)| (o / PS, s)).collect::<Vec<_>>(),
        [0, 1]
            .map(|p| (
                p,
                SlotDump::Page {
                    writable: true,
                    dirty: true
                }
            ))
            .into_iter()
            .chain([(
                2,
                SlotDump::Page {
                    writable: true,
                    dirty: false
                }
            )])
            .collect::<Vec<_>>()
    );
    // Pinned copies keep the copied value however the source changes.
    pvm.write_logical(src, 0, &pattern(0xEE, (2 * PS) as usize))
        .unwrap();
    for cache in [cpy, per_page] {
        assert_eq!(
            pvm.read_logical(cache, 0, (2 * PS) as usize).unwrap(),
            pattern(0x31, (2 * PS) as usize)
        );
    }
    pvm.cache_unlock(cpy, 0, 3 * PS).unwrap();
    pvm.cache_unlock(per_page, 0, 2 * PS).unwrap();
    pvm.check_invariants();
}

#[test]
fn a_refused_discard_of_pinned_memory_changes_nothing() {
    // A destroy, an overwrite or an invalidation that would take a
    // pinned page is refused before it discards anything.
    let (pvm, _) = setup(32);
    let src = pvm.cache_create(None).unwrap();
    let dst = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x11, (3 * PS) as usize))
        .unwrap();
    pvm.write_logical(dst, 0, &pattern(0x22, (3 * PS) as usize))
        .unwrap();
    pvm.cache_lock_in_memory(dst, 2 * PS, PS).unwrap();
    let locked = |r: chorus_gmi::Result<()>| assert!(matches!(r, Err(GmiError::Locked)), "{r:?}");
    locked(pvm.cache_copy_with(src, 0, dst, 0, 3 * PS, CopyMode::HistoryCow));
    locked(pvm.cache_copy_with(src, 0, dst, 0, 3 * PS, CopyMode::PerPage));
    locked(pvm.cache_move(src, 0, dst, 0, 3 * PS));
    locked(pvm.cache_invalidate(dst, 0, 3 * PS));
    locked(pvm.cache_destroy(dst));
    assert_eq!(
        pvm.read_logical(dst, 0, (3 * PS) as usize).unwrap(),
        pattern(0x22, (3 * PS) as usize)
    );
    pvm.cache_unlock(dst, 2 * PS, PS).unwrap();
    pvm.cache_destroy(dst).unwrap();
    pvm.check_invariants();
}

#[test]
fn context_destroy_force_unlocks() {
    let (pvm, _) = setup(16);
    let (ctx, region, cache) = anon_region(&pvm, 2);
    pvm.region_lock_in_memory(region).unwrap();
    // Context destruction must release the pins so the cache can die.
    pvm.context_destroy(ctx).unwrap();
    pvm.cache_destroy(cache).unwrap();
    assert_eq!(pvm.resident_page_count(), 0);
}

#[test]
fn flush_whole_cache_then_destroy_writes_back_once() {
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&vec![0u8; (2 * PS) as usize]);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.write_logical(cache, 0, b"AA").unwrap();
    pvm.write_logical(cache, PS, b"BB").unwrap();
    pvm.cache_destroy(cache).unwrap();
    let data = mgr.segment_data(seg);
    assert_eq!(&data[..2], b"AA");
    assert_eq!(&data[PS as usize..PS as usize + 2], b"BB");
}

#[test]
fn move_unaligned_falls_back_to_eager() {
    let (pvm, _) = setup(32);
    let src = pvm.cache_create(None).unwrap();
    let data = pattern(0x77, (2 * PS) as usize);
    pvm.write_logical(src, 0, &data).unwrap();
    let dst = pvm.cache_create(None).unwrap();
    pvm.cache_move(src, 3, dst, 9, PS + 11).unwrap();
    assert_eq!(
        pvm.read_logical(dst, 9, (PS + 11) as usize).unwrap(),
        data[3..3 + (PS + 11) as usize]
    );
    assert_eq!(
        pvm.stats().moved_frames,
        0,
        "unaligned move cannot steal frames"
    );
}

#[test]
fn vm_access_across_region_boundary_fails_cleanly() {
    let (pvm, _) = setup(16);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    // A write crossing into unmapped space must fail...
    let err = pvm
        .vm_write(ctx, VirtAddr(PS - 4), &pattern(1, 16))
        .unwrap_err();
    assert!(matches!(err, GmiError::SegmentationFault { .. }));
    // ...and the in-region prefix was transferred before the fault
    // (faithful to a real partial access).
    assert_eq!(read(&pvm, ctx, PS - 4, 4), pattern(1, 4));
}

#[test]
fn adjacent_regions_of_one_cache_see_one_another() {
    let (pvm, _) = setup(16);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    // Two adjacent windows onto overlapping segment ranges.
    pvm.region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    pvm.region_create(ctx, VirtAddr(4 * PS), 2 * PS, Prot::RW, cache, PS)
        .unwrap();
    write(&pvm, ctx, PS + 7, b"overlap");
    // The second region maps segment offset PS at its base.
    assert_eq!(read(&pvm, ctx, 4 * PS + 7, 7), b"overlap");
}

/// A PVM of the default (Sun-3) geometry over the Nucleus segment
/// manager and a `MemMapper`, which stores pages of that size, so pulled
/// and pushed pages change hands by reference; a four-page file, mapped
/// read-write at `FILE_VA` and read in whole.
struct SharedStack {
    pvm: Arc<Pvm>,
    files: Arc<MemMapper>,
    cap: Capability,
    cache: CacheId,
    ctx: CtxId,
}

const FILE_VA: u64 = 0x10_0000;
/// The page size of the shared stack.
const SPS: u64 = PageGeometry::SUN3_PAGE_SIZE;

fn shared_stack() -> SharedStack {
    let seg_mgr = Arc::new(NucleusSegmentManager::new());
    let files = Arc::new(MemMapper::new(PortName(1)));
    seg_mgr.register_mapper(PortName(1), files.clone());
    let options = PvmOptions {
        frames: 32,
        config: PvmConfig::builder()
            .paging(|p| p.check_invariants(true))
            .build()
            .expect("valid config"),
        ..PvmOptions::default()
    };
    let pvm = Arc::new(Pvm::new(options, seg_mgr.clone()));
    let cap = files.create_segment(&pattern(1, (4 * SPS) as usize));
    let cache = pvm.cache_create(Some(seg_mgr.segment_for(cap))).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(FILE_VA), 4 * SPS, Prot::RW, cache, 0)
        .unwrap();
    assert_eq!(
        read(&pvm, ctx, FILE_VA, (4 * SPS) as usize),
        pattern(1, (4 * SPS) as usize)
    );
    pvm.drain_upcalls();
    SharedStack {
        pvm,
        files,
        cap,
        cache,
        ctx,
    }
}

#[test]
fn a_mapped_write_to_a_pulled_page_reaches_the_segment_only_at_sync() {
    let s = shared_stack();
    let before = s.pvm.mem_stats().shared_copies;
    write(&s.pvm, s.ctx, FILE_VA + SPS + 3, b"mapped");
    assert_eq!(
        s.pvm.mem_stats().shared_copies,
        before + 1,
        "the frame held the mapper's page"
    );
    assert_eq!(s.files.segment_data(s.cap), pattern(1, (4 * SPS) as usize));
    s.pvm.cache_sync(s.cache, 0, 4 * SPS).unwrap();
    let mut want = pattern(1, (4 * SPS) as usize);
    want[(SPS + 3) as usize..(SPS + 9) as usize].copy_from_slice(b"mapped");
    assert_eq!(s.files.segment_data(s.cap), want);
}

#[test]
fn a_mapped_write_after_a_sync_leaves_the_segment_at_the_synced_bytes() {
    let s = shared_stack();
    write(&s.pvm, s.ctx, FILE_VA + 2 * SPS, b"synced");
    s.pvm.cache_sync(s.cache, 0, 4 * SPS).unwrap();
    let synced = s.files.segment_data(s.cap);
    // The push handed the frame's page to the segment: this write
    // copies it first.
    let before = s.pvm.mem_stats().shared_copies;
    write(&s.pvm, s.ctx, FILE_VA + 2 * SPS, b"later!");
    assert_eq!(s.pvm.mem_stats().shared_copies, before + 1);
    assert_eq!(s.files.segment_data(s.cap), synced);
    assert_eq!(
        &synced[(2 * SPS) as usize..(2 * SPS + 6) as usize],
        b"synced"
    );
    assert_eq!(read(&s.pvm, s.ctx, FILE_VA + 2 * SPS, 6), b"later!");
}

#[test]
fn a_mapper_write_to_the_segment_leaves_a_resident_frame_alone() {
    let s = shared_stack();
    s.files.write(s.cap, SPS - 2, b"segment!").unwrap();
    assert_eq!(s.pvm.cache_resident_pages(s.cache).unwrap(), 4);
    assert_eq!(
        read(&s.pvm, s.ctx, FILE_VA, (4 * SPS) as usize),
        pattern(1, (4 * SPS) as usize)
    );
    assert_eq!(&s.files.read(s.cap, SPS - 2, 8).unwrap(), b"segment!");
}
