//! Paging behaviour: pull-in/push-out upcalls, page replacement under
//! memory pressure, synchronization page stubs under concurrency, fault
//! injection, and memory pinning (§4.1.2, §3.3.3, §5.1.2).

mod common;

use chorus_gmi::testing::{MemSegmentManager, Upcall};
use chorus_gmi::{
    CacheId, CacheIo, Gmi, GmiError, Prot, PullRequest, PushRequest, SegmentId, SegmentManagerV2,
    VirtAddr,
};
use chorus_hal::PageGeometry;
use chorus_pvm::{Pvm, PvmOptions};
use common::*;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

#[test]
fn eviction_under_pressure_round_trips_through_swap() {
    // 8 frames, a working set of 24 pages: the clock algorithm must
    // evict, temporary caches must get swap segments lazily, and all
    // data must survive.
    let (pvm, mgr) = setup(8);
    let (ctx, _r, _c) = anon_region(&pvm, 24);
    let data = pattern(0x5A, (24 * PS) as usize);
    for page in 0..24u64 {
        write(
            &pvm,
            ctx,
            0x1_0000 + page * PS,
            &data[(page * PS) as usize..((page + 1) * PS) as usize],
        );
    }
    assert!(
        pvm.stats().evictions > 0,
        "pressure must evict: {:?}",
        pvm.stats()
    );
    // The temporary cache received a swap segment on first push-out.
    assert!(
        mgr.take_log()
            .iter()
            .any(|u| matches!(u, Upcall::SegmentCreate { .. })),
        "lazy swap binding expected"
    );
    // Everything reads back correctly (pulling evicted pages back in).
    for page in (0..24u64).rev() {
        let got = read(&pvm, ctx, 0x1_0000 + page * PS, PS as usize);
        assert_eq!(
            got,
            data[(page * PS) as usize..((page + 1) * PS) as usize],
            "page {page}"
        );
    }
}

#[test]
fn clean_pages_evict_without_pushout() {
    let (pvm, mgr) = setup(4);
    let content = pattern(0x30, (8 * PS) as usize);
    let seg = mgr.create_segment(&content);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 8 * PS, Prot::READ, cache, 0)
        .unwrap();
    // Read all pages: only 4 frames, so clean eviction must occur.
    for page in 0..8u64 {
        let _ = read(&pvm, ctx, page * PS, 4);
    }
    let log = mgr.take_log();
    assert!(
        !log.iter().any(|u| matches!(u, Upcall::PushOut { .. })),
        "clean pages must not be pushed out: {log:?}"
    );
    assert!(pvm.stats().evictions >= 4);
    // Re-reads are still correct.
    for page in 0..8u64 {
        assert_eq!(
            read(&pvm, ctx, page * PS, 4),
            content[(page * PS) as usize..(page * PS) as usize + 4]
        );
    }
}

/// Exhaustion ends where the paper ends it: with every frame pinned
/// by `lockInMemory` regions of two contexts, a third context's fault
/// returns `OutOfMemory`, and nothing is killed, unlocked or lost.
#[test]
fn exhaustion_by_locked_regions_is_out_of_memory_and_kills_nothing() {
    let (pvm, _) = setup(8);
    let locked = |base: u64, pages: u64, tag: u8| {
        let ctx = pvm.context_create().unwrap();
        let cache = pvm.cache_create(None).unwrap();
        let region = pvm
            .region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
            .unwrap();
        write(&pvm, ctx, base, &pattern(tag, (pages * PS) as usize));
        pvm.region_lock_in_memory(region).unwrap();
        (ctx, region)
    };
    let (big, r_big) = locked(0x10_0000, 6, 0xA1);
    let (small, r_small) = locked(0x20_0000, 2, 0xB2);
    assert_eq!(pvm.free_frames(), 0, "setup must exhaust the pool");

    let (third, _r, _c) = anon_region(&pvm, 1);
    let err = pvm.vm_write(third, VirtAddr(0x1_0000), b"x").unwrap_err();
    assert_eq!(err, GmiError::OutOfMemory);

    for (ctx, region, base, pages, tag) in [
        (big, r_big, 0x10_0000, 6, 0xA1),
        (small, r_small, 0x20_0000, 2, 0xB2),
    ] {
        let st = pvm.region_status(region).unwrap();
        assert!(st.locked);
        assert_eq!(st.resident_pages, pages);
        assert_eq!(
            read(&pvm, ctx, base, (pages * PS) as usize),
            pattern(tag, (pages * PS) as usize)
        );
    }
    pvm.check_invariants();
}

#[test]
fn locked_pages_are_never_evicted() {
    let (pvm, _) = setup(4);
    let ctx = pvm.context_create().unwrap();
    let pinned = pvm.cache_create(None).unwrap();
    let r = pvm
        .region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, pinned, 0)
        .unwrap();
    write(&pvm, ctx, 0, &pattern(0xEE, (2 * PS) as usize));
    pvm.region_lock_in_memory(r).unwrap();
    // Now thrash with another region; only 2 frames remain.
    let other = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(0x10_0000), 8 * PS, Prot::RW, other, 0)
        .unwrap();
    for page in 0..8u64 {
        write(&pvm, ctx, 0x10_0000 + page * PS, &[page as u8]);
    }
    // The pinned pages never left memory.
    assert_eq!(pvm.region_status(r).unwrap().resident_pages, 2);
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0xEE, 4));
    // After unlocking, they become evictable again.
    pvm.region_unlock(r).unwrap();
    for page in 0..8u64 {
        write(&pvm, ctx, 0x10_0000 + page * PS, &[page as u8]);
    }
    assert!(pvm.stats().evictions > 0);
}

#[test]
fn transient_pull_failure_is_healed_by_retry() {
    // With the default retry policy a single injected transient mapper
    // failure is invisible to the faulter: the PVM retries the pullIn
    // and delivers the correct bytes.
    let (pvm, mgr) = setup(8);
    let seg = mgr.create_segment(&pattern(0x10, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    mgr.fail_next_pull();
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x10, 4));
    assert!(pvm.stats().mapper_retries >= 1, "{:?}", pvm.stats());
}

#[test]
fn pull_failure_propagates_and_recovers() {
    // Without retries the transient failure propagates to the faulter,
    // and the cleaned-up stub lets the next access recover.
    let (pvm, mgr) = setup_with(8, |o| {
        o.config.retry = chorus_gmi::RetryPolicy::no_retry();
    });
    let seg = mgr.create_segment(&pattern(0x10, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    mgr.fail_next_pull();
    let mut buf = [0u8; 4];
    let err = pvm.vm_read(ctx, VirtAddr(0), &mut buf).unwrap_err();
    assert!(matches!(err, GmiError::SegmentIo { .. }), "{err}");
    // The stub must have been cleaned up: the next access succeeds.
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x10, 4));
    assert_eq!(pvm.stats().mapper_retries, 0);
}

#[test]
fn concurrent_faulters_block_on_sync_stub_and_pull_once() {
    // Two threads fault the same non-resident page of a slow mapper;
    // the synchronization page stub must make the second thread wait and
    // only ONE pullIn may reach the mapper.
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&pattern(0x77, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    mgr.set_latency(Some(Duration::from_millis(100)));
    mgr.take_log();

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let pvm = Arc::clone(&pvm);
            std::thread::spawn(move || {
                let mut buf = [0u8; 8];
                pvm.vm_read(ctx, VirtAddr(16), &mut buf).unwrap();
                buf
            })
        })
        .collect();
    for t in threads {
        assert_eq!(
            t.join().unwrap().to_vec(),
            pattern(0x77, PS as usize)[16..24]
        );
    }
    let pulls = mgr
        .take_log()
        .iter()
        .filter(|u| matches!(u, Upcall::PullIn { .. }))
        .count();
    assert_eq!(
        pulls, 1,
        "the sync stub must coalesce concurrent faults into one pull"
    );
    assert!(
        pvm.stats().stub_waits > 0,
        "the losers must have slept on the sync stub"
    );
}

#[test]
fn concurrent_writers_to_distinct_pages_proceed_in_parallel() {
    let (pvm, _) = setup(64);
    let (ctx, _r, _c) = anon_region(&pvm, 16);
    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let pvm = Arc::clone(&pvm);
            std::thread::spawn(move || {
                for rep in 0..20u8 {
                    let data = pattern(i as u8 ^ rep, 64);
                    pvm.vm_write(ctx, VirtAddr(0x1_0000 + i * 2 * PS), &data)
                        .unwrap();
                    let mut buf = vec![0u8; 64];
                    pvm.vm_read(ctx, VirtAddr(0x1_0000 + i * 2 * PS), &mut buf)
                        .unwrap();
                    assert_eq!(buf, data);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    pvm.check_invariants();
}

#[test]
fn write_access_upcall_on_coherence_revocation() {
    // A segment manager revokes write access (setProtection read-only);
    // the next write must raise a getWriteAccess upcall (Table 3) and
    // proceed once granted.
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&pattern(0, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 0, b"first");
    // Revoke.
    pvm.cache_set_protection(cache, 0, PS, Prot::READ).unwrap();
    mgr.take_log();
    // Reads stay local.
    assert_eq!(read(&pvm, ctx, 0, 5), b"first");
    assert!(mgr.take_log().is_empty());
    // Write triggers the upcall.
    write(&pvm, ctx, 0, b"again");
    let log = mgr.take_log();
    assert!(
        log.iter()
            .any(|u| matches!(u, Upcall::GetWriteAccess { .. })),
        "expected getWriteAccess: {log:?}"
    );
    assert_eq!(pvm.stats().write_access_upcalls, 1);
    assert_eq!(read(&pvm, ctx, 0, 5), b"again");
    // Denied write access surfaces as an error.
    pvm.cache_set_protection(cache, 0, PS, Prot::READ).unwrap();
    mgr.set_deny_write_access(true);
    let err = pvm.vm_write(ctx, VirtAddr(0), b"no").unwrap_err();
    assert!(matches!(err, GmiError::SegmentIo { .. }));
}

/// A mapper that protects what it has just filled, as a DSM site does
/// with a read copy: the next local write upcalls `getWriteAccess`.
struct ReadOnlyFills {
    inner: Arc<MemSegmentManager>,
    pvm: OnceLock<Weak<Pvm>>,
}

impl SegmentManagerV2 for ReadOnlyFills {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> chorus_gmi::Result<()> {
        self.inner.submit_pull(io, req)?;
        let pvm = self.pvm.get().and_then(Weak::upgrade).expect("attached");
        pvm.cache_set_protection(req.cache, req.offset, req.size, Prot::READ)
    }
    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> chorus_gmi::Result<()> {
        self.inner.submit_push(io, req)
    }
    fn acquire_write_access(
        &self,
        segment: SegmentId,
        offset: u64,
        size: u64,
    ) -> chorus_gmi::Result<()> {
        self.inner.acquire_write_access(segment, offset, size)
    }
    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        self.inner.create_segment_v2(cache)
    }
}

/// A blocked action that fails while its fault's pull is in flight — a
/// write to a page not yet resident, whose `getWriteAccess` after the
/// read-only fill is denied — returns with the lock held and closes the
/// faulter's mailbox there: nobody is left waiting, the demand page is
/// unpinned and still readable.
#[test]
fn a_failed_action_after_a_demand_pull_leaves_no_faulter_waiting() {
    let mgr = Arc::new(MemSegmentManager::new());
    let fills = Arc::new(ReadOnlyFills {
        inner: mgr.clone(),
        pvm: OnceLock::new(),
    });
    let options = PvmOptions {
        geometry: PageGeometry::new(PS),
        frames: 4,
        ..PvmOptions::default()
    };
    let pvm = Arc::new(Pvm::new(options, fills.clone()));
    fills.pvm.set(Arc::downgrade(&pvm)).unwrap();
    let seg = mgr.create_segment(&pattern(0x30, (2 * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    mgr.set_deny_write_access(true);
    let err = pvm.vm_write(ctx, VirtAddr(0), b"no").unwrap_err();
    assert!(matches!(err, GmiError::SegmentIo { .. }));
    let log = mgr.take_log();
    assert!(
        matches!(
            log[..],
            [Upcall::PullIn { .. }, Upcall::GetWriteAccess { .. }]
        ),
        "{log:?}"
    );
    assert_eq!(pvm.waiting_faulters(), 0);
    pvm.check_invariants();
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x30, 4));
    pvm.cache_invalidate(cache, 0, PS).unwrap();
    assert_eq!(pvm.resident_page_count(), 0, "the demand page was unpinned");
}

#[test]
fn invalidate_discards_local_replica() {
    let (pvm, mgr) = setup(16);
    let seg = mgr.create_segment(&pattern(0x42, PS as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PS, Prot::RW, cache, 0)
        .unwrap();
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x42, 4));
    // Someone else updates the segment behind our back...
    let new_seg_data = pattern(0x99, PS as usize);
    {
        // Simulate a remote writer by replacing the segment contents.
        let s2 = mgr.create_segment(&new_seg_data);
        let _ = s2; // (The MemSegmentManager has no in-place replace;
                    // write through a second cache instead.)
    }
    let writer = pvm.cache_create(Some(seg)).unwrap();
    pvm.write_logical(writer, 0, &new_seg_data).unwrap();
    pvm.cache_sync(writer, 0, PS).unwrap();
    // Without invalidation we would still read the stale replica.
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x42, 4));
    pvm.cache_invalidate(cache, 0, PS).unwrap();
    assert_eq!(
        read(&pvm, ctx, 0, 4),
        pattern(0x99, 4),
        "fresh data pulled after invalidate"
    );
}

#[test]
fn cache_level_lock_pulls_and_pins() {
    let (pvm, mgr) = setup(4);
    let seg = mgr.create_segment(&pattern(0x13, (2 * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.cache_lock_in_memory(cache, 0, 2 * PS).unwrap();
    assert_eq!(pvm.cache_resident_pages(cache).unwrap(), 2);
    // Thrash the remaining 2 frames.
    let other = pvm.cache_create(None).unwrap();
    pvm.write_logical(other, 0, &pattern(1, (6 * PS) as usize))
        .unwrap();
    assert_eq!(
        pvm.cache_resident_pages(cache).unwrap(),
        2,
        "pinned pages stayed"
    );
    pvm.cache_unlock(cache, 0, 2 * PS).unwrap();
    pvm.write_logical(other, 6 * PS, &pattern(2, (2 * PS) as usize))
        .unwrap();
}

#[test]
fn nested_region_locks_unlock_independently() {
    // Regression (DESIGN.md §6, fixed): two regions over the same cache
    // pages each hold their own pin; unlocking one must not release the
    // other's.
    let (pvm, _) = setup(4);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let a = pvm
        .region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    let b = pvm
        .region_create(ctx, VirtAddr(0x8_0000), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 0, &pattern(0xC4, (2 * PS) as usize));
    pvm.region_lock_in_memory(a).unwrap();
    pvm.region_lock_in_memory(b).unwrap();
    // First unlock: region b's pins must keep the pages resident.
    pvm.region_unlock(a).unwrap();
    let noise = pvm.cache_create(None).unwrap();
    pvm.write_logical(noise, 0, &pattern(1, (6 * PS) as usize))
        .unwrap();
    assert_eq!(
        pvm.cache_resident_pages(cache).unwrap(),
        2,
        "unlocking region a released region b's pins"
    );
    assert_eq!(read(&pvm, ctx, 0x8_0000, 4), pattern(0xC4, 4));
    // Second unlock: now the pages are evictable.
    pvm.region_unlock(b).unwrap();
    pvm.write_logical(noise, 0, &pattern(2, (6 * PS) as usize))
        .unwrap();
    assert!(pvm.cache_resident_pages(cache).unwrap() < 2);
    pvm.check_invariants();
}

#[test]
fn region_split_partitions_the_pins() {
    // Splitting a locked region must hand each half exactly its own
    // pins, so the halves unlock independently.
    let (pvm, _) = setup(6);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let r = pvm
        .region_create(ctx, VirtAddr(0), 4 * PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 0, &pattern(0xD8, (4 * PS) as usize));
    pvm.region_lock_in_memory(r).unwrap();
    let upper = pvm.region_split(r, 2 * PS).unwrap();
    // Unlock the lower half; the upper half's pages stay pinned.
    pvm.region_unlock(r).unwrap();
    let noise = pvm.cache_create(None).unwrap();
    pvm.write_logical(noise, 0, &pattern(1, (8 * PS) as usize))
        .unwrap();
    assert_eq!(pvm.region_status(upper).unwrap().resident_pages, 2);
    assert_eq!(
        read(&pvm, ctx, 2 * PS, 4),
        pattern(0xD8, (2 * PS) as usize + 4)[(2 * PS) as usize..].to_vec()
    );
    pvm.region_unlock(upper).unwrap();
    pvm.write_logical(noise, 0, &pattern(2, (8 * PS) as usize))
        .unwrap();
    assert!(pvm.region_status(upper).unwrap().resident_pages < 2);
    pvm.check_invariants();
}

#[test]
fn cache_and_region_locks_are_independent() {
    // A cache-level pin and a region-level pin on the same pages are
    // separate references; dropping the region lock leaves the cache
    // lock in force.
    let (pvm, _) = setup(4);
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    let r = pvm
        .region_create(ctx, VirtAddr(0), 2 * PS, Prot::RW, cache, 0)
        .unwrap();
    write(&pvm, ctx, 0, &pattern(0xA7, (2 * PS) as usize));
    pvm.region_lock_in_memory(r).unwrap();
    pvm.cache_lock_in_memory(cache, 0, 2 * PS).unwrap();
    pvm.region_unlock(r).unwrap();
    let noise = pvm.cache_create(None).unwrap();
    pvm.write_logical(noise, 0, &pattern(1, (6 * PS) as usize))
        .unwrap();
    assert_eq!(
        pvm.cache_resident_pages(cache).unwrap(),
        2,
        "region unlock released the cache-level pins"
    );
    pvm.cache_unlock(cache, 0, 2 * PS).unwrap();
    pvm.write_logical(noise, 0, &pattern(2, (6 * PS) as usize))
        .unwrap();
    assert!(pvm.cache_resident_pages(cache).unwrap() < 2);
    pvm.check_invariants();
}

#[test]
fn history_pages_survive_eviction_through_swap() {
    // Originals pushed into a history object must survive even when the
    // history pages themselves get evicted (they go to a lazily-created
    // swap segment via segmentCreate).
    let (pvm, mgr) = setup(6);
    let src = pvm.cache_create(None).unwrap();
    pvm.write_logical(src, 0, &pattern(0x21, (2 * PS) as usize))
        .unwrap();
    let cpy = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, cpy, 0, 2 * PS, chorus_gmi::CopyMode::HistoryCow)
        .unwrap();
    // Force originals into the history (cpy).
    pvm.write_logical(src, 0, &pattern(0xF1, (2 * PS) as usize))
        .unwrap();
    // Thrash to evict the history pages.
    let noise = pvm.cache_create(None).unwrap();
    pvm.write_logical(noise, 0, &pattern(9, (5 * PS) as usize))
        .unwrap();
    assert!(pvm.stats().evictions > 0);
    assert!(
        mgr.take_log()
            .iter()
            .any(|u| matches!(u, Upcall::SegmentCreate { .. })),
        "history cache needed a swap segment"
    );
    // The copy still reads its snapshot.
    assert_eq!(
        pvm.read_logical(cpy, 0, (2 * PS) as usize).unwrap(),
        pattern(0x21, (2 * PS) as usize)
    );
    assert_eq!(pvm.read_logical(src, 0, 4).unwrap(), pattern(0xF1, 4));
}

#[test]
fn evicted_stub_source_repoints_to_location() {
    // §4.3: "if the latter is in real memory, the stub contains a pointer
    // to the source page descriptor; otherwise, it contains a pointer to
    // the source local-cache descriptor and its offset".
    let (pvm, mgr) = setup(6);
    let seg = mgr.create_segment(&pattern(0x31, PS as usize));
    let src = pvm.cache_create(Some(seg)).unwrap();
    // Make the source page resident and stub it to a destination.
    assert_eq!(pvm.read_logical(src, 0, 2).unwrap(), pattern(0x31, 2));
    let dst = pvm.cache_create(None).unwrap();
    pvm.cache_copy_with(src, 0, dst, 0, PS, chorus_gmi::CopyMode::PerPage)
        .unwrap();
    // Evict the source page by thrashing.
    let noise = pvm.cache_create(None).unwrap();
    pvm.write_logical(noise, 0, &pattern(9, (6 * PS) as usize))
        .unwrap();
    // The stub must still resolve (back through the segment).
    assert_eq!(
        pvm.read_logical(dst, 0, PS as usize).unwrap(),
        pattern(0x31, PS as usize)
    );
}

#[test]
fn pull_clustering_reads_ahead() {
    // §3.3.3: "The MM may unilaterally decide to cache a fragment of
    // data." With clustering, a sequential scan of a swapped-out file
    // needs far fewer pullIn upcalls.
    for (cluster, max_pulls) in [(1u64, 8usize), (4, 2), (8, 1)] {
        let (pvm, mgr) = setup_with(16, |o| o.config.pull_cluster_pages = cluster);
        let content = pattern(0x64, (8 * PS) as usize);
        let seg = mgr.create_segment(&content);
        let cache = pvm.cache_create(Some(seg)).unwrap();
        let ctx = pvm.context_create().unwrap();
        pvm.region_create(ctx, VirtAddr(0), 8 * PS, Prot::READ, cache, 0)
            .unwrap();
        mgr.take_log();
        for page in 0..8u64 {
            let got = read(&pvm, ctx, page * PS, 4);
            assert_eq!(got, content[(page * PS) as usize..(page * PS) as usize + 4]);
        }
        let pulls = mgr
            .take_log()
            .iter()
            .filter(|u| matches!(u, Upcall::PullIn { .. }))
            .count();
        assert!(
            pulls <= max_pulls,
            "cluster={cluster}: {pulls} pulls, expected <= {max_pulls}"
        );
    }
}

#[test]
fn clustering_does_not_overshoot_unowned_pages() {
    // Read-ahead must stop at the first offset the cache does not own:
    // pages past a hole resolve through parents/zero, not the segment.
    let (pvm, mgr) = setup_with(32, |o| o.config.pull_cluster_pages = 8);
    let seg = mgr.create_segment(&pattern(0x11, (2 * PS) as usize));
    let cache = pvm.cache_create(Some(seg)).unwrap();
    // A fully-backed cache owns everything; sparse reads cluster across
    // the whole requested run but never fault.
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 4 * PS, Prot::RW, cache, 0)
        .unwrap();
    assert_eq!(read(&pvm, ctx, 0, 4), pattern(0x11, 4));
    // The cluster pulled data for pages 0..4 in one upcall; page 3 is
    // beyond the segment's written extent and reads as zeros (sparse).
    assert_eq!(read(&pvm, ctx, 3 * PS, 4), vec![0u8; 4]);
    let pulls = mgr
        .take_log()
        .iter()
        .filter(|u| matches!(u, Upcall::PullIn { .. }))
        .count();
    assert_eq!(pulls, 1, "one clustered pull serves the whole region");
}

#[test]
fn fill_up_pads_short_chunks_and_charges_like_bzero_plus_copy() {
    use chorus_gmi::CacheIo;
    use chorus_hal::{CostParams, OpKind};
    let (pvm, mgr) = setup_with(8, |o| o.cost = CostParams::sun3());
    // Leave junk in every frame, so a tail that is not cleared shows.
    let junk = pvm.cache_create(None).unwrap();
    pvm.write_logical(junk, 0, &vec![0xFF; (8 * PS) as usize])
        .unwrap();
    pvm.cache_destroy(junk).unwrap();
    assert_eq!(pvm.free_frames(), 8);

    let cache = pvm.cache_create(Some(mgr.create_segment(&[]))).unwrap();
    let model = pvm.cost_model();
    let deliver = |offset: u64, data: &[u8]| {
        let before = (
            pvm.mem_stats().zeroed,
            model.count(OpKind::BzeroPage),
            model.now().nanos(),
        );
        pvm.fill_up(cache, offset, data).unwrap();
        (
            pvm.mem_stats().zeroed - before.0,
            model.count(OpKind::BzeroPage) - before.1,
            model.now().nanos() - before.2,
        )
    };
    let full = deliver(0, &pattern(3, PS as usize));
    let short = deliver(PS, &pattern(9, 5));
    // What `phys.zero` + `phys.write` charged per landed page before the
    // tail-only clear: one counted bzero, and (sun3 costs, measured on
    // that path) 906 us of simulated time for an unsolicited one-page
    // delivery.
    assert_eq!(full, (1, 1, 906_000));
    assert_eq!(short, full, "a short chunk costs what a full page does");
    assert_eq!(
        pvm.read_logical(cache, 0, PS as usize).unwrap(),
        pattern(3, PS as usize)
    );
    let mut padded = pattern(9, 5);
    padded.resize(PS as usize, 0);
    assert_eq!(pvm.read_logical(cache, PS, PS as usize).unwrap(), padded);
}
