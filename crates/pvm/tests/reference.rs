//! The use signal replacement reads: the hardware referenced bit of
//! each mapping (set by the table walk of an allowed access, taken by
//! the clock hand) or the software half the PVM sets when it maps or
//! consumes a page itself, plus drop-behind for the windows a stream
//! has left. Everything runs on `PvmConfig::default()` with the
//! invariant checker and the tracer on.

mod common;

use chorus_gmi::testing::{MemSegmentManager, Upcall};
use chorus_gmi::{
    CacheId, CacheIo, CtxId, Gmi, Prot, PullRequest, PushRequest, Result, RetryPolicy, SegmentId,
    SegmentManagerV2, VirtAddr,
};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::trace::TraceEvent;
use chorus_pvm::{MmuChoice, Pvm, PvmConfig, PvmOptions, TraceConfig};
use common::{pattern, read, setup_with, write, PS};
use std::sync::{Arc, Mutex};

fn traced(o: &mut PvmOptions) {
    o.config.trace = TraceConfig {
        enabled: true,
        ..TraceConfig::default()
    };
}

fn world(frames: u32) -> (Arc<Pvm>, Arc<MemSegmentManager>) {
    setup_with(frames, traced)
}

fn page_bytes(tag: u8, page: u64) -> Vec<u8> {
    pattern(tag ^ (page as u8).wrapping_mul(29), PS as usize)
}

/// Maps a read-only file of `pages` pages at `base` of `ctx`. The
/// segment's length is unknown to the PVM, so it is pulled a page at a
/// time (no stream, no tail): what a test wants of a hot set.
fn map_file(
    pvm: &Pvm,
    mgr: &MemSegmentManager,
    ctx: CtxId,
    tag: u8,
    pages: u64,
    base: u64,
) -> (CacheId, SegmentId) {
    let data: Vec<u8> = (0..pages).flat_map(|p| page_bytes(tag, p)).collect();
    let seg = mgr.create_segment(&data);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::READ, cache, 0)
        .unwrap();
    (cache, seg)
}

/// Maps `pages` pages of anonymous memory at `base` of `ctx`, writes
/// every page and flushes the lot: all of it is on swap, none resident,
/// and sequential reads ramp a stream (a temporary cache owns exactly
/// the offsets it wrote).
fn map_swapped(pvm: &Pvm, ctx: CtxId, tag: u8, pages: u64, base: u64) -> CacheId {
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..pages {
        write(pvm, ctx, base + p * PS, &page_bytes(tag, p));
    }
    pvm.cache_flush(cache, 0, pages * PS).unwrap();
    cache
}

/// Maps untouched anonymous memory at `base`: every first read of a
/// page allocates one (zero-filled) frame and nothing else.
fn map_fresh(pvm: &Pvm, ctx: CtxId, pages: u64, base: u64) {
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
}

fn read_page(pvm: &Pvm, ctx: CtxId, base: u64, page: u64) -> Vec<u8> {
    read(pvm, ctx, base + page * PS, PS as usize)
}

/// Drains the trace: the (cache, page) of every eviction since the last
/// drain, in order.
fn evictions(pvm: &Pvm) -> Vec<(CacheId, u64)> {
    pvm.tracer()
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            // Tests here never destroy a cache: generation 0 throughout.
            TraceEvent::Eviction { cache, offset } => Some((CacheId::pack(cache, 0), offset / PS)),
            _ => None,
        })
        .collect()
}

/// The `(first page, pages)` of every `pullIn` logged since the last
/// call, for `segment` if given.
fn pulls(mgr: &MemSegmentManager, of: Option<SegmentId>) -> Vec<(u64, u64)> {
    mgr.take_log()
        .iter()
        .filter_map(|u| match *u {
            Upcall::PullIn {
                segment,
                offset,
                size,
            } if of.is_none_or(|s| s == segment) => Some((offset / PS, size / PS)),
            _ => None,
        })
        .collect()
}

// ----- the hardware half ---------------------------------------------------

const HOT: u64 = 0x10_0000;
const SCAN: u64 = 0x20_0000;
const FRESH: u64 = 0x30_0000;

#[test]
fn a_hot_set_touched_between_the_steps_of_a_scan_is_not_pulled_again() {
    // With a current context the hot pages sit in the TLB between the
    // hand's visits and only the first access after each visit walks;
    // without one every access does. The clock must see both.
    for (scheduled, mmu) in [
        (true, MmuChoice::Soft),
        (false, MmuChoice::Soft),
        (true, MmuChoice::TwoLevel),
    ] {
        const FRAMES: u64 = 64;
        const HOT_PAGES: u64 = 8;
        let (pvm, mgr) = setup_with(FRAMES as u32, |o| {
            traced(o);
            o.mmu = mmu;
            o.config.check_invariants = false;
        });
        let ctx = pvm.context_create().unwrap();
        let scanned = 3 * FRAMES;
        map_swapped(&pvm, ctx, 0x31, scanned, SCAN);
        let (_, hot_seg) = map_file(&pvm, &mgr, ctx, 0x32, HOT_PAGES, HOT);
        if scheduled {
            pvm.context_switch(ctx).unwrap();
        }
        let mut hot_pulls = Vec::new();
        for pass in 0..3 {
            for p in 0..scanned {
                assert_eq!(read_page(&pvm, ctx, SCAN, p), page_bytes(0x31, p));
                let h = p % HOT_PAGES;
                assert_eq!(read_page(&pvm, ctx, HOT, h), page_bytes(0x32, h));
            }
            let pulled = pulls(&mgr, Some(hot_seg));
            if pass == 0 {
                assert_eq!(pulled.len() as u64, HOT_PAGES, "warm-up pulls each once");
            } else {
                hot_pulls.extend(pulled);
            }
        }
        assert_eq!(
            hot_pulls,
            [],
            "scheduled {scheduled}, {mmu:?}: a page touched every {HOT_PAGES} steps \
             was evicted from a {FRAMES}-frame pool"
        );
        let stats = pvm.stats();
        assert!(stats.evictions >= 2 * scanned, "{stats:?}");
        assert!(stats.ref_second_chances > 0, "{stats:?}");
        assert_eq!(stats.readahead_unused, 0, "{stats:?}");
        pvm.check_invariants();
    }
}

#[test]
fn a_page_mapped_in_two_contexts_is_referenced_through_either() {
    let (pvm, mgr) = world(8);
    let a = pvm.context_create().unwrap();
    let b = pvm.context_create().unwrap();
    map_fresh(&pvm, a, 64, FRESH);
    // The ring: one sacrificial page, the shared page, fillers.
    read_page(&pvm, a, FRESH, 0);
    let (shared, seg) = map_file(&pvm, &mgr, a, 0x41, 1, HOT);
    pvm.region_create(b, VirtAddr(HOT), PS, Prot::READ, shared, 0)
        .unwrap();
    // `a` is scheduled and goes through the TLB; `b` never is, and
    // every access of its walks the table.
    pvm.context_switch(a).unwrap();
    read_page(&pvm, a, HOT, 0);
    read_page(&pvm, b, HOT, 0);
    for p in 1..7 {
        read_page(&pvm, a, FRESH, p);
    }
    assert_eq!(pulls(&mgr, Some(seg)), [(0, 1)]);
    // Three revolutions of the hand, the page touched through one
    // context only between any two evictions.
    for k in 0..24 {
        let through = if k % 2 == 0 { a } else { b };
        assert_eq!(read_page(&pvm, through, HOT, 0), page_bytes(0x41, 0));
        read_page(&pvm, a, FRESH, 7 + k);
    }
    assert_eq!(pvm.stats().evictions, 24);
    assert_eq!(pulls(&mgr, Some(seg)), [], "the shared page was evicted");
    // Left alone, it goes like any other.
    for k in 24..40 {
        read_page(&pvm, a, FRESH, 7 + k);
    }
    assert!(evictions(&pvm).contains(&(shared, 0)));
}

// ----- the software half ---------------------------------------------------

#[test]
fn a_page_kept_alive_only_by_cache_read_survives_the_sweep() {
    let (pvm, mgr) = world(8);
    let ctx = pvm.context_create().unwrap();
    map_fresh(&pvm, ctx, 64, FRESH);
    // The ring: one sacrificial page, the file's page, fillers. Nothing
    // ever maps the file: explicit access is its only use.
    read_page(&pvm, ctx, FRESH, 0);
    let data = page_bytes(0x51, 0);
    let seg = mgr.create_segment(&data);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let mut buf = vec![0u8; PS as usize];
    pvm.cache_read(cache, 0, &mut buf).unwrap();
    for p in 1..7 {
        read_page(&pvm, ctx, FRESH, p);
    }
    assert_eq!(pulls(&mgr, Some(seg)), [(0, 1)]);
    for k in 0..24 {
        pvm.cache_read(cache, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
        read_page(&pvm, ctx, FRESH, 7 + k);
    }
    assert_eq!(pvm.stats().evictions, 24);
    assert_eq!(
        pulls(&mgr, Some(seg)),
        [],
        "cache_read did not count as a use"
    );
    for k in 24..40 {
        read_page(&pvm, ctx, FRESH, 7 + k);
    }
    assert!(evictions(&pvm).contains(&(cache, 0)));
}

/// A segment manager that runs a hook inside its first `pushOut`,
/// after the bytes are safe: the upcall runs with every PVM lock
/// released, so the hook may use the PVM like any other thread.
struct HookedPush {
    inner: Arc<dyn SegmentManagerV2>,
    #[allow(clippy::type_complexity)]
    hook: Mutex<Option<Box<dyn FnOnce(&PushRequest) + Send>>>,
}

impl SegmentManagerV2 for HookedPush {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        self.inner.submit_pull(io, req)
    }
    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        self.inner.submit_push(io, req)?;
        if let Some(hook) = self.hook.lock().unwrap().take() {
            hook(req);
        }
        Ok(())
    }
    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        self.inner.acquire_write_access(segment, offset, size)
    }
    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        self.inner.create_segment_v2(cache)
    }
    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        self.inner.segment_len(segment)
    }
}

#[test]
fn a_page_read_during_its_push_out_is_not_the_cleaned_first_victim() {
    // `the_page_a_push_cleaned_is_the_next_one_evicted` (stream_pulls)
    // with a reader: a pool of dirty pages no two of them adjacent, so
    // the allocation that finds the write-behind queue full launders
    // one page inline and would take that page on its retry.
    let mgr = Arc::new(MemSegmentManager::new());
    let hooked = Arc::new(HookedPush {
        inner: mgr.clone(),
        hook: Mutex::new(None),
    });
    let mut options = PvmOptions {
        geometry: PageGeometry::new(PS),
        frames: 16,
        cost: CostParams::zero(),
        mmu: MmuChoice::Soft,
        config: PvmConfig::builder()
            .paging(|p| p.check_invariants(true))
            .build()
            .unwrap(),
    };
    traced(&mut options);
    let pvm = Arc::new(Pvm::new(options, hooked.clone()));
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(HOT), 128 * PS, Prot::RW, cache, 0)
        .unwrap();
    pvm.context_switch(ctx).unwrap();
    for k in 0..16 {
        write(&pvm, ctx, HOT + 2 * k * PS, &page_bytes(0x61, 2 * k));
    }
    evictions(&pvm);
    let pushed = Arc::new(Mutex::new(None));
    *hooked.hook.lock().unwrap() = Some(Box::new({
        let (pvm, pushed) = (pvm.clone(), pushed.clone());
        move |req: &PushRequest| {
            assert_eq!(req.size, PS, "one page: no neighbour is dirty");
            let page = req.offset / PS;
            // Write-protected while it is cleaned, still readable: no
            // fault, just the table walk that sets the hardware bit.
            assert_eq!(read_page(&pvm, ctx, HOT, page), page_bytes(0x61, page));
            *pushed.lock().unwrap() = Some(page);
        }
    }));
    let before = pvm.stats();
    write(&pvm, ctx, HOT + 32 * PS, &page_bytes(0x61, 32));
    let pushed = pushed.lock().unwrap().expect("the write laundered inline");
    let gone = evictions(&pvm);
    assert_eq!(gone.len(), 1, "{gone:?}");
    assert_ne!(
        gone[0],
        (cache, pushed),
        "evicted the page somebody was reading"
    );
    // It cost the faulter a second push, and the reader's page is still
    // there: reading it again pulls nothing.
    let after = pvm.stats();
    assert_eq!(after.push_out_batches - before.push_out_batches, 2);
    mgr.take_log();
    assert_eq!(read_page(&pvm, ctx, HOT, pushed), page_bytes(0x61, pushed));
    assert_eq!(pulls(&mgr, None), []);
    pvm.check_invariants();
}

// ----- drop-behind ---------------------------------------------------------

#[test]
fn the_window_a_stream_has_left_is_the_next_victim() {
    // 40 frames: the smallest pool whose windows reach a full message.
    let (pvm, mgr) = setup_with(40, |o| {
        traced(o);
        o.config.retry = RetryPolicy::no_retry();
    });
    let ctx = pvm.context_create().unwrap();
    let stream = map_swapped(&pvm, ctx, 0x71, 40, SCAN);
    map_fresh(&pvm, ctx, 64, FRESH);
    // Four bystanders, read once: first in the ring, referenced.
    map_file(&pvm, &mgr, ctx, 0x72, 4, HOT);
    pvm.context_switch(ctx).unwrap();
    for p in 0..4 {
        read_page(&pvm, ctx, HOT, p);
    }
    mgr.take_log();
    for p in 0..7 {
        assert_eq!(read_page(&pvm, ctx, SCAN, p), page_bytes(0x71, p));
    }
    assert_eq!(pulls(&mgr, None), [(0, 1), (1, 2), (3, 4)]);
    // Each continuing miss dropped what was behind it: page 0, then
    // pages 1 and 2. The last window is still the stream's own.
    assert_eq!(pvm.stats().drop_behind_pages, 3);
    // The pull of the next window fails; the miss had continued the
    // stream all the same, and pages 3..=6 were dropped.
    mgr.fail_next_pull();
    let mut buf = [0u8; 8];
    assert!(pvm.vm_read(ctx, VirtAddr(SCAN + 7 * PS), &mut buf).is_err());
    assert_eq!(pvm.stats().drop_behind_pages, 7);
    // Somebody comes back to page 4 (a table walk: the drop took its
    // TLB entry with its bit). The same miss again is the same pull
    // driven again, which must not drop page 4 a second time.
    assert_eq!(read_page(&pvm, ctx, SCAN, 4), page_bytes(0x71, 4));
    assert_eq!(read_page(&pvm, ctx, SCAN, 7), page_bytes(0x71, 7));
    assert_eq!(pulls(&mgr, None), [(7, 8), (7, 8)]);
    assert_eq!(
        pvm.stats().drop_behind_pages,
        7,
        "a re-driven pull drops nothing"
    );
    // 4 bystanders + 15 stream pages resident, 21 frames free. 27
    // fresh pages need six victims: the hand starts at the bystanders,
    // gives each its second chance, and takes what the stream left
    // behind, except the page somebody came back to.
    evictions(&pvm);
    for p in 0..27 {
        read_page(&pvm, ctx, FRESH, p);
    }
    let left = [0, 1, 2, 3, 5, 6].map(|p| (stream, p));
    assert_eq!(evictions(&pvm), left);
    let stats = pvm.stats();
    assert_eq!(stats.ref_second_chances, 5, "four bystanders and page 4");
    assert_eq!(stats.readahead_unused, 0);
    // The bystanders and page 4 are all still there.
    mgr.take_log();
    for p in 0..4 {
        assert_eq!(read_page(&pvm, ctx, HOT, p), page_bytes(0x72, p));
    }
    assert_eq!(read_page(&pvm, ctx, SCAN, 4), page_bytes(0x71, 4));
    assert_eq!(pulls(&mgr, None), []);
    pvm.check_invariants();
}

#[test]
fn small_pools_scan_as_before() {
    // Too small for a window of more than one page: a scan pulls every
    // page once per pass, one at a time, whatever is dropped behind it.
    for frames in [2u32, 4, 8] {
        let (pvm, mgr) = world(frames);
        let ctx = pvm.context_create().unwrap();
        map_swapped(&pvm, ctx, 0x81, 24, SCAN);
        pvm.context_switch(ctx).unwrap();
        mgr.take_log();
        for _pass in 0..2 {
            for p in 0..24 {
                assert_eq!(read_page(&pvm, ctx, SCAN, p), page_bytes(0x81, p));
            }
            let expect: Vec<(u64, u64)> = (0..24).map(|p| (p, 1)).collect();
            assert_eq!(pulls(&mgr, None), expect, "{frames} frames");
        }
        let stats = pvm.stats();
        assert_eq!(stats.readahead_pages, 0, "{frames} frames: {stats:?}");
        assert_eq!(stats.emergency_pageouts, 0, "{frames} frames: {stats:?}");
        pvm.check_invariants();
    }
}
