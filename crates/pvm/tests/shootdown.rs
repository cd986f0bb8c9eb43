//! Regression: two contexts share one copy cache; one reads (mapping an
//! ancestor page read-only through the cache), the other materializes
//! the cache's own page. The reader's stale mapping must be shot down
//! so it re-faults onto the cache's own page and observes later writes.

mod common;

use chorus_gmi::{CacheId, CopyMode, Gmi, Prot, VirtAddr};
use chorus_pvm::Pvm;
use common::*;

#[test]
fn reader_mapping_follows_cow_materialization() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x10, (2 * PS) as usize))
        .unwrap();
    let cpy = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, cpy, 0, 2 * PS, CopyMode::HistoryCow)
        .unwrap();

    // Two contexts map the SAME copy cache.
    let reader = pvm.context_create().unwrap();
    let writer = pvm.context_create().unwrap();
    pvm.region_create(reader, VirtAddr(0x1000), 2 * PS, Prot::RW, cpy, 0)
        .unwrap();
    pvm.region_create(writer, VirtAddr(0x8000), 2 * PS, Prot::RW, cpy, 0)
        .unwrap();

    // Reader maps the ancestor's page read-only through cpy.
    assert_eq!(read(&pvm, reader, 0x1000, 8), pattern(0x10, 8));
    // Writer materializes cpy's own page and modifies it.
    write(&pvm, writer, 0x8000, b"NEWDATA!");
    // The reader shares the SAME cache: it must see the write.
    assert_eq!(read(&pvm, reader, 0x1000, 8), b"NEWDATA!");
    // And the source is untouched.
    assert_eq!(pvm.read_logical(src, 0, 8).unwrap(), pattern(0x10, 8));
}

#[test]
fn reader_mapping_follows_per_page_stub_materialization() {
    let (pvm, _) = setup(64);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x33, PS as usize))
        .unwrap();
    let cpy = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, cpy, 0, PS, CopyMode::PerPage)
        .unwrap();

    let reader = pvm.context_create().unwrap();
    let writer = pvm.context_create().unwrap();
    pvm.region_create(reader, VirtAddr(0x1000), PS, Prot::RW, cpy, 0)
        .unwrap();
    pvm.region_create(writer, VirtAddr(0x8000), PS, Prot::RW, cpy, 0)
        .unwrap();

    // Reader maps the stub source read-only through cpy.
    assert_eq!(read(&pvm, reader, 0x1000, 4), pattern(0x33, 4));
    // Writer's fault replaces the stub with cpy's own page.
    write(&pvm, writer, 0x8000, b"COW!");
    assert_eq!(read(&pvm, reader, 0x1000, 4), b"COW!");
    assert_eq!(pvm.read_logical(src, 0, 4).unwrap(), pattern(0x33, 4));
}

/// The Nucleus IPC receive path: a message lands in the receiver's
/// cache as per-page stubs, the receiver reads it (mapping the sender's
/// page read-only through its stub) and never writes. Then `replace`
/// drops the stubs and returns what the range holds after it: the
/// reader must see that, not the first message through a stale
/// mapping.
fn reader_mapping_goes_with_its_stub(replace: impl FnOnce(&Pvm, CacheId) -> Vec<u8>) {
    let (pvm, _) = setup(64);
    let first = pvm.cache_create(None).unwrap();
    pvm.write_logical(first, 0, &pattern(0x51, (2 * PS) as usize))
        .unwrap();
    let inbox = pvm.cache_create(None).unwrap();
    let reader = pvm.context_create().unwrap();
    pvm.region_create(reader, VirtAddr(0x1000), 2 * PS, Prot::RW, inbox, 0)
        .unwrap();

    pvm.cache_copy_with(first, 0, inbox, 0, 2 * PS, CopyMode::PerPage)
        .unwrap();
    let len = (2 * PS) as usize;
    assert_eq!(read(&pvm, reader, 0x1000, len), pattern(0x51, len));
    let want = replace(&pvm, inbox);
    assert_eq!(pvm.read_logical(inbox, 0, len).unwrap(), want);
    assert_eq!(
        read(&pvm, reader, 0x1000, len),
        want,
        "the reader still sees the first message through a stale mapping"
    );
    pvm.check_invariants();
}

#[test]
fn reader_mapping_does_not_outlive_an_overwritten_per_page_stub() {
    // The next message is copied over the same range.
    reader_mapping_goes_with_its_stub(|pvm, inbox| {
        let second = pvm.cache_create(None).unwrap();
        pvm.write_logical(second, 0, &pattern(0x52, (2 * PS) as usize))
            .unwrap();
        pvm.cache_copy_with(second, 0, inbox, 0, 2 * PS, CopyMode::PerPage)
            .unwrap();
        pattern(0x52, (2 * PS) as usize)
    });
}

#[test]
fn reader_mapping_does_not_outlive_an_invalidated_per_page_stub() {
    // The receiver's cache is invalidated instead: the range reads zero.
    reader_mapping_goes_with_its_stub(|pvm, inbox| {
        pvm.cache_invalidate(inbox, 0, 2 * PS).unwrap();
        vec![0; (2 * PS) as usize]
    });
}
