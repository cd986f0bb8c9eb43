//! A conformance suite for GMI implementations.
//!
//! The paper's premise is that the GMI is implementable by very
//! different memory managers (demand-paged, minimal real-time,
//! simulator — §5.2) without the kernel above noticing. This module
//! makes that contract executable: any [`Gmi`] implementation can be
//! held to the core semantics by calling [`run`] from a test, the same
//! way the `chorus-hal` MMU back-ends share a conformance suite.
//!
//! The suite intentionally avoids implementation-specific observables
//! (deferral, residency counts, upcall patterns) and checks only what
//! every conforming manager must do: data transparency of mapped and
//! explicit access, copy snapshot semantics, region algebra, protection
//! enforcement, segment write-back, and error discipline.

use crate::error::GmiError;
use crate::ids::CacheId;
use crate::testing::MemSegmentManager;
use crate::traits::Gmi;
use crate::types::CopyMode;
use chorus_hal::{Prot, VirtAddr};
use std::sync::Arc;

/// A fresh world for one conformance check.
pub struct Fixture<G: Gmi> {
    /// The manager under test.
    pub gmi: Arc<G>,
    /// The segment manager it was built over.
    pub mgr: Arc<MemSegmentManager>,
}

/// Runs the whole suite; `mk` builds a fresh manager with at least 64
/// frames over the provided [`MemSegmentManager`].
///
/// # Panics
///
/// Panics (via assertions) on any contract violation.
pub fn run<G: Gmi>(mk: impl Fn() -> Fixture<G>) {
    mapped_and_explicit_access_agree(&mk);
    zero_fill_semantics(&mk);
    copy_is_a_snapshot(&mk);
    move_delivers_and_source_is_droppable(&mk);
    region_algebra(&mk);
    protection_enforced(&mk);
    segment_write_back(&mk);
    error_discipline(&mk);
    copy_modes_all_preserve_semantics(&mk);
}

fn ps<G: Gmi>(f: &Fixture<G>) -> u64 {
    f.gmi.geometry().page_size()
}

fn pattern(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

fn read_cache<G: Gmi>(f: &Fixture<G>, c: CacheId, off: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    f.gmi.cache_read(c, off, &mut buf).expect("cache_read");
    buf
}

fn mapped_and_explicit_access_agree<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let ctx = f.gmi.context_create().unwrap();
    let cache = f.gmi.cache_create(None).unwrap();
    f.gmi
        .region_create(ctx, VirtAddr(0x10000), 4 * page, Prot::RW, cache, 0)
        .unwrap();
    // Write through the mapping; read through the cache (§3.2's unified
    // cache: no dual caching).
    let data = pattern(0x5A, (2 * page + 17) as usize);
    f.gmi.vm_write(ctx, VirtAddr(0x10000 + 5), &data).unwrap();
    assert_eq!(read_cache(&f, cache, 5, data.len()), data);
    // Write through the cache; read through the mapping.
    f.gmi.cache_write(cache, page, b"explicit").unwrap();
    let mut buf = vec![0u8; 8];
    f.gmi
        .vm_read(ctx, VirtAddr(0x10000 + page), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"explicit");
}

fn zero_fill_semantics<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let ctx = f.gmi.context_create().unwrap();
    let cache = f.gmi.cache_create(None).unwrap();
    f.gmi
        .region_create(ctx, VirtAddr(0), 2 * page, Prot::RW, cache, 0)
        .unwrap();
    let mut buf = vec![0xFFu8; 64];
    f.gmi.vm_read(ctx, VirtAddr(page - 32), &mut buf).unwrap();
    assert_eq!(buf, vec![0u8; 64], "anonymous memory reads as zeroes");
}

fn copy_is_a_snapshot<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let src = f.gmi.cache_create(None).unwrap();
    let snapshot = pattern(0x21, (3 * page) as usize);
    f.gmi.cache_write(src, 0, &snapshot).unwrap();
    let dst = f.gmi.cache_create(None).unwrap();
    f.gmi.cache_copy(src, 0, dst, 0, 3 * page).unwrap();
    // Source mutation after the copy is invisible in the destination...
    f.gmi.cache_write(src, page, &pattern(0x99, 64)).unwrap();
    assert_eq!(read_cache(&f, dst, 0, snapshot.len()), snapshot);
    // ...and destination mutation is invisible in the source.
    f.gmi.cache_write(dst, 0, b"DST").unwrap();
    assert_eq!(read_cache(&f, src, 0, 3), snapshot[..3]);
    // Destroying either side leaves the other intact.
    f.gmi.cache_destroy(src).unwrap();
    let mut expect = snapshot.clone();
    expect[..3].copy_from_slice(b"DST");
    assert_eq!(read_cache(&f, dst, 0, expect.len()), expect);
    f.gmi.cache_destroy(dst).unwrap();
}

fn move_delivers_and_source_is_droppable<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let src = f.gmi.cache_create(None).unwrap();
    let msg = pattern(0x7E, (2 * page) as usize);
    f.gmi.cache_write(src, 0, &msg).unwrap();
    let dst = f.gmi.cache_create(None).unwrap();
    f.gmi.cache_move(src, 0, dst, 0, 2 * page).unwrap();
    assert_eq!(read_cache(&f, dst, 0, msg.len()), msg);
    // The source's content is undefined but the cache must still be
    // destroyable, and the destination survives that.
    f.gmi.cache_destroy(src).unwrap();
    assert_eq!(read_cache(&f, dst, 0, msg.len()), msg);
}

fn region_algebra<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let ctx = f.gmi.context_create().unwrap();
    let cache = f.gmi.cache_create(None).unwrap();
    let r = f
        .gmi
        .region_create(ctx, VirtAddr(4 * page), 4 * page, Prot::RW, cache, 0)
        .unwrap();
    // Overlap rejected.
    assert!(matches!(
        f.gmi
            .region_create(ctx, VirtAddr(6 * page), 4 * page, Prot::RW, cache, 0),
        Err(GmiError::RegionOverlap { .. })
    ));
    // Split keeps contents and windows.
    f.gmi
        .vm_write(ctx, VirtAddr(4 * page), &pattern(1, (4 * page) as usize))
        .unwrap();
    let upper = f.gmi.region_split(r, 2 * page).unwrap();
    let su = f.gmi.region_status(upper).unwrap();
    assert_eq!(su.addr, VirtAddr(6 * page));
    assert_eq!(su.offset, 2 * page);
    let mut buf = vec![0u8; (4 * page) as usize];
    f.gmi.vm_read(ctx, VirtAddr(4 * page), &mut buf).unwrap();
    assert_eq!(buf, pattern(1, (4 * page) as usize));
    // find_region resolves within both halves, list is sorted.
    assert_eq!(f.gmi.find_region(ctx, VirtAddr(4 * page)).unwrap(), r);
    assert_eq!(f.gmi.find_region(ctx, VirtAddr(7 * page)).unwrap(), upper);
    let list = f.gmi.region_list(ctx).unwrap();
    assert_eq!(list.len(), 2);
    assert!(list[0].1.addr < list[1].1.addr);
    // Destroy forgets the mapping but not the cache data.
    f.gmi.region_destroy(upper).unwrap();
    assert!(f.gmi.find_region(ctx, VirtAddr(7 * page)).is_err());
    assert_eq!(
        read_cache(&f, cache, 2 * page, 8),
        pattern(1, (4 * page) as usize)[2 * page as usize..2 * page as usize + 8]
    );
}

fn protection_enforced<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let ctx = f.gmi.context_create().unwrap();
    let cache = f.gmi.cache_create(None).unwrap();
    let r = f
        .gmi
        .region_create(ctx, VirtAddr(0), page, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    f.gmi.vm_read(ctx, VirtAddr(0), &mut buf).unwrap();
    assert!(matches!(
        f.gmi.vm_write(ctx, VirtAddr(0), b"x"),
        Err(GmiError::ProtectionViolation { .. })
    ));
    // Upgrade and retry.
    f.gmi.region_set_protection(r, Prot::RW).unwrap();
    f.gmi.vm_write(ctx, VirtAddr(0), b"x").unwrap();
    // Unmapped access is a segmentation fault.
    assert!(matches!(
        f.gmi.vm_read(ctx, VirtAddr(0x9999 * page), &mut buf),
        Err(GmiError::SegmentationFault { .. })
    ));
}

fn segment_write_back<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let content = pattern(0x42, (2 * page) as usize);
    let seg = f.mgr.create_segment(&content);
    let cache = f.gmi.cache_create(Some(seg)).unwrap();
    // Pull on demand.
    assert_eq!(
        read_cache(&f, cache, page, 16),
        content[page as usize..page as usize + 16]
    );
    // Dirty + sync reaches the mapper.
    f.gmi.cache_write(cache, 0, b"written-back").unwrap();
    f.gmi.cache_sync(cache, 0, 2 * page).unwrap();
    assert_eq!(&f.mgr.segment_data(seg)[..12], b"written-back");
}

fn error_discipline<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let ctx = f.gmi.context_create().unwrap();
    let cache = f.gmi.cache_create(None).unwrap();
    // Unaligned arguments are rejected, not mangled.
    assert!(matches!(
        f.gmi
            .region_create(ctx, VirtAddr(3), page, Prot::RW, cache, 0),
        Err(GmiError::Unaligned { .. })
    ));
    assert!(matches!(
        f.gmi.region_create(ctx, VirtAddr(0), 0, Prot::RW, cache, 0),
        Err(GmiError::InvalidArgument(_))
    ));
    // Dead handles keep failing deterministically.
    let r = f
        .gmi
        .region_create(ctx, VirtAddr(0), page, Prot::RW, cache, 0)
        .unwrap();
    f.gmi.region_destroy(r).unwrap();
    assert!(matches!(
        f.gmi.region_destroy(r),
        Err(GmiError::NoSuchRegion(_))
    ));
    // Mapped caches refuse destruction.
    let r = f
        .gmi
        .region_create(ctx, VirtAddr(0), page, Prot::RW, cache, 0)
        .unwrap();
    assert!(f.gmi.cache_destroy(cache).is_err());
    f.gmi.region_destroy(r).unwrap();
    f.gmi.cache_destroy(cache).unwrap();
}

fn copy_modes_all_preserve_semantics<G: Gmi>(mk: &impl Fn() -> Fixture<G>) {
    let f = mk();
    let page = ps(&f);
    let src = f.gmi.cache_create(None).unwrap();
    let data = pattern(9, (2 * page) as usize);
    f.gmi.cache_write(src, 0, &data).unwrap();
    for mode in [
        CopyMode::Auto,
        CopyMode::HistoryCow,
        CopyMode::HistoryCor,
        CopyMode::PerPage,
        CopyMode::Eager,
    ] {
        let dst = f.gmi.cache_create(None).unwrap();
        f.gmi
            .cache_copy_with(src, 0, dst, 0, 2 * page, mode)
            .unwrap();
        assert_eq!(read_cache(&f, dst, 0, data.len()), data, "{mode:?}");
        f.gmi.cache_write(dst, 0, &[0xEE]).unwrap();
        assert_eq!(read_cache(&f, src, 0, 1), data[..1], "{mode:?} isolation");
        f.gmi.cache_destroy(dst).unwrap();
    }
}
