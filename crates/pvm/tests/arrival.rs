//! Split-phase pulls (DESIGN.md §10): a window is one `pullIn`, its
//! pages arrive one `SegmentIoPage` apart, and nobody — the faulter
//! included — sees a page before its arrival time.
//!
//! The clock tests run on a cost model where only the mapper's service
//! (`IpcOp`, `SegmentIoPage`) and the copy into the frame (`BzeroPage`)
//! cost anything, so every reading is an exact sum of those three.

mod common;

use chorus_gmi::testing::{MemSegmentManager, Upcall};
use chorus_gmi::{
    CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, Prot, PullRequest, PushRequest, Result,
    RetryPolicy, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{CostParams, OpKind};
use chorus_pvm::{MmuChoice, Pvm, PvmOptions};
use common::{pattern, read, setup_with, write, PS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const IPC: u64 = 20_000;
const SEG: u64 = 2_000;
const LAND: u64 = 870;
/// Pages per window: `pull_cluster_pages`, the minimum window.
const WINDOW: u64 = 8;
const FILE_PAGES: u64 = 2 * WINDOW;
const BASE: u64 = 0x10_0000;
const MMUS: [MmuChoice; 2] = [MmuChoice::Soft, MmuChoice::TwoLevel];

fn service_costs() -> CostParams {
    let mut p = CostParams::zero();
    p.set(OpKind::IpcOp, IPC);
    p.set(OpKind::SegmentIoPage, SEG);
    p.set(OpKind::BzeroPage, LAND);
    p
}

fn options(o: &mut PvmOptions, mmu: MmuChoice, cost: CostParams) {
    o.mmu = mmu;
    o.cost = cost;
    o.config.pull_cluster_pages = WINDOW;
}

fn page_bytes(page: u64) -> Vec<u8> {
    pattern(0x40 ^ (page as u8).wrapping_mul(29), PS as usize)
}

/// A 16-page file mapped at `BASE` of a fresh context, nothing resident.
fn map_file(pvm: &Pvm, mgr: &MemSegmentManager) -> (CtxId, CacheId) {
    map_pages(pvm, mgr, FILE_PAGES)
}

fn map_pages(pvm: &Pvm, mgr: &MemSegmentManager, pages: u64) -> (CtxId, CacheId) {
    let data: Vec<u8> = (0..pages).flat_map(page_bytes).collect();
    let cache = pvm.cache_create(Some(mgr.create_segment(&data))).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(BASE), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    (ctx, cache)
}

fn now(pvm: &Pvm) -> u64 {
    pvm.cost_model().now().nanos()
}

/// When page `k` of a window submitted at `t` arrives.
fn arrival(t: u64, k: u64) -> u64 {
    t + IPC + (k + 1) * SEG
}

fn touch(pvm: &Pvm, ctx: CtxId, page: u64) {
    assert_eq!(read(pvm, ctx, BASE + page * PS, 1), page_bytes(page)[..1]);
}

/// The `(first page, pages)` of every `pullIn` the mapper saw.
fn pulls(mgr: &MemSegmentManager) -> Vec<(u64, u64)> {
    mgr.take_log()
        .iter()
        .filter_map(|u| match *u {
            Upcall::PullIn { offset, size, .. } => Some((offset / PS, size / PS)),
            _ => None,
        })
        .collect()
}

#[test]
fn the_faulter_waits_for_its_page_and_a_toucher_for_the_one_it_touches() {
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(64, |o| options(o, mmu, service_costs()));
        let (ctx, _) = map_file(&pvm, &mgr);
        let t = now(&pvm);
        touch(&pvm, ctx, 0);
        // One page's arrival and one page's landing, not eight.
        assert_eq!(now(&pvm), arrival(t, 0) + LAND, "{mmu:?}");
        assert_eq!(pulls(&mgr), [(0, WINDOW)], "one request for the window");
        let stats = pvm.stats();
        assert_eq!((stats.pull_ins, stats.async_inflight_stalls), (1, 1));
        assert_eq!(stats.readahead_pages, 0, "the tail is still in flight");

        // Page 3 right away: its arrival, and no further. Pages 1 and 2
        // have arrived by then and land when somebody wants them.
        touch(&pvm, ctx, 3);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().readahead_pages, 1);
        // An arrived page costs its landing, a landed one nothing more.
        touch(&pvm, ctx, 3);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        touch(&pvm, ctx, 1);
        assert_eq!(now(&pvm), arrival(t, 3) + 2 * LAND, "{mmu:?}");
        touch(&pvm, ctx, 1);
        assert_eq!(now(&pvm), arrival(t, 3) + 2 * LAND, "{mmu:?}");
        assert_eq!(pvm.stats().async_inflight_stalls, 3);

        // The rest of the file: the first window's tail, then one more
        // request, the same two a blocking pull would have made.
        for p in 0..FILE_PAGES {
            touch(&pvm, ctx, p);
        }
        assert_eq!(pulls(&mgr), [(WINDOW, WINDOW)]);
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!((stats.pull_ins, stats.async_submits), (2, 2));
        let model = pvm.cost_model();
        assert_eq!(model.count(OpKind::IpcOp), 2);
        assert_eq!(model.count(OpKind::SegmentIoPage), FILE_PAGES);
        assert_eq!(model.count(OpKind::BzeroPage), FILE_PAGES);
        pvm.check_invariants();
    }
}

#[test]
fn cache_read_and_a_cow_read_through_a_descendant_wait_at_the_same_gate() {
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(64, |o| options(o, mmu, service_costs()));
        let (ctx, cache) = map_file(&pvm, &mgr);
        // A deferred copy of the whole file, made while none of it is
        // resident: reads through it walk up to the source.
        let copy = pvm.cache_create(None).unwrap();
        pvm.cache_copy_with(cache, 0, copy, 0, FILE_PAGES * PS, CopyMode::HistoryCow)
            .unwrap();
        let copy_base = 2 * BASE;
        pvm.region_create(ctx, VirtAddr(copy_base), FILE_PAGES * PS, Prot::RW, copy, 0)
            .unwrap();
        let t = now(&pvm);
        let mut byte = [0u8; 1];
        pvm.cache_read(cache, 0, &mut byte).unwrap();
        assert_eq!(now(&pvm), arrival(t, 0) + LAND, "{mmu:?}");
        pvm.cache_read(cache, 2 * PS, &mut byte).unwrap();
        assert_eq!(byte[0], page_bytes(2)[0]);
        assert_eq!(now(&pvm), arrival(t, 2) + LAND, "{mmu:?}");
        assert_eq!(read(&pvm, ctx, copy_base + 5 * PS, 1), page_bytes(5)[..1]);
        assert_eq!(now(&pvm), arrival(t, 5) + LAND, "{mmu:?}");
        // `copyBack` finds no resident data where a page is in flight.
        let err = pvm.copy_back(cache, 6 * PS, &mut byte).unwrap_err();
        assert!(matches!(err, GmiError::OutOfRange { .. }), "{err}");
        assert_eq!(pulls(&mgr), [(0, WINDOW)]);
        pvm.check_invariants();
    }
}

/// A manager whose mapper can be made to die for good: it then delivers
/// the first `partial` pages of a window and fails the request. It
/// reports its segments `len` bytes long, if that is set (the manager
/// under it reports no lengths, and a fully-backed cache of unknown
/// length has no streams).
struct Dying {
    inner: Arc<dyn SegmentManagerV2>,
    dead: AtomicBool,
    partial: u64,
    len: Option<u64>,
}

impl SegmentManagerV2 for Dying {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        if !self.dead.load(Ordering::SeqCst) {
            return self.inner.submit_pull(io, req);
        }
        let head = PullRequest {
            size: self.partial * PS,
            ..*req
        };
        self.inner.submit_pull(io, &head)?;
        Err(GmiError::SegmentIo {
            segment: req.segment,
            cause: "mapper died".into(),
            transient: false,
        })
    }
    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        self.inner.submit_push(io, req)
    }
    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        self.inner.acquire_write_access(segment, offset, size)
    }
    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        self.inner.create_segment_v2(cache)
    }
    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        self.len.or_else(|| self.inner.segment_len(segment))
    }
}

#[test]
fn teardown_and_failure_with_a_window_in_flight_leave_no_frame_behind() {
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(64, |o| options(o, mmu, service_costs()));
        let (ctx, cache) = map_file(&pvm, &mgr);
        let free = pvm.free_frames();

        // Invalidate waits the window out, then frees what it brought.
        touch(&pvm, ctx, 0);
        assert_eq!(pvm.free_frames(), free - WINDOW as u32, "parked frames");
        pvm.check_invariants();
        pvm.cache_invalidate(cache, 0, FILE_PAGES * PS).unwrap();
        assert_eq!(pvm.free_frames(), free, "{mmu:?}");
        pvm.check_invariants();

        // Destroy gives up the pages that have not arrived; the window
        // stays queued and finds nothing to land.
        touch(&pvm, ctx, WINDOW);
        let region = pvm.find_region(ctx, VirtAddr(BASE)).unwrap();
        pvm.region_destroy(region).unwrap();
        pvm.cache_destroy(cache).unwrap();
        assert_eq!(pvm.free_frames(), free, "{mmu:?}");
        pvm.check_invariants();
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        assert_eq!(pvm.free_frames(), free, "{mmu:?}");
        pvm.check_invariants();

        // A mapper that dies for good mid-window, with a healthy window
        // of the same cache still in flight.
        let mgr = Arc::new(MemSegmentManager::new());
        let dying = Arc::new(Dying {
            inner: mgr.clone(),
            dead: AtomicBool::new(false),
            partial: 3,
            len: None,
        });
        let mut o = PvmOptions {
            geometry: chorus_hal::PageGeometry::new(PS),
            frames: 64,
            ..PvmOptions::default()
        };
        o.config.check_invariants = true;
        options(&mut o, mmu, service_costs());
        let pvm = Pvm::new(o, dying.clone());
        let (ctx, cache) = map_file(&pvm, &mgr);
        let free = pvm.free_frames();
        touch(&pvm, ctx, 0);
        dying.dead.store(true, Ordering::SeqCst);
        let mut byte = [0u8; 1];
        let err = pvm
            .vm_read(ctx, VirtAddr(BASE + WINDOW * PS), &mut byte)
            .unwrap_err();
        assert!(
            !err.is_transient(),
            "the faulter gets its pull's error: {err}"
        );
        let stats = pvm.stats();
        assert_eq!(stats.quarantined_caches, 1);
        // The failed window gave up all of its pages, the three the
        // mapper had delivered included; the healthy one is untouched.
        assert_eq!(pvm.free_frames(), free - WINDOW as u32, "{mmu:?}");
        pvm.check_invariants();
        let err = pvm
            .vm_read(ctx, VirtAddr(BASE + 5 * PS), &mut byte)
            .unwrap_err();
        assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        pvm.check_invariants();
        let region = pvm.find_region(ctx, VirtAddr(BASE)).unwrap();
        pvm.region_destroy(region).unwrap();
        pvm.cache_destroy(cache).unwrap();
        assert_eq!(pvm.free_frames(), free, "{mmu:?}");
        pvm.check_invariants();
    }
}

#[test]
fn a_cancelled_window_gives_up_exactly_the_pages_that_have_not_arrived() {
    for mmu in MMUS {
        // A deadline between the arrivals of pages 1 and 2.
        let deadline = IPC + 2 * SEG + SEG / 2;
        let (pvm, mgr) = setup_with(64, |o| {
            options(o, mmu, service_costs());
            o.config.retry = RetryPolicy {
                deadline_ns: deadline,
                ..RetryPolicy::default()
            };
        });
        let (ctx, cache) = map_file(&pvm, &mgr);
        let free = pvm.free_frames();
        let t = now(&pvm);
        touch(&pvm, ctx, 0);
        // Page 4 is waited for and lands at its arrival, past the
        // deadline; the next driver entry is the watchdog's. Of the
        // window's other pages 1 to 3 have arrived by then and land,
        // 5 to 7 have not: their frames and stubs go.
        touch(&pvm, ctx, 4);
        assert_eq!(now(&pvm), arrival(t, 4) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().watchdog_cancels, 0);
        pvm.cache_read(cache, 0, &mut [0u8; 1]).unwrap();
        let stats = pvm.stats();
        assert_eq!((stats.watchdog_cancels, stats.mapper_timeouts), (1, 1));
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!(pvm.free_frames(), free - 5, "{mmu:?}");
        assert_eq!(now(&pvm), arrival(t, 4) + 4 * LAND, "{mmu:?}");
        pvm.check_invariants();
        for p in 0..5 {
            touch(&pvm, ctx, p);
        }
        assert_eq!(pulls(&mgr), [(0, WINDOW)], "arrived pages stay valid");
        touch(&pvm, ctx, 5);
        assert_eq!(pulls(&mgr), [(5, WINDOW)], "the rest is pulled again");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        // Backwards, so that a pull stops at the resident page after it
        // and beats the deadline (the first one runs past the end of
        // the file and is the third cancel): a fourth cancel in a row
        // would quarantine the cache.
        for p in (0..FILE_PAGES).rev() {
            touch(&pvm, ctx, p);
        }
        assert_eq!(pvm.stats().watchdog_cancels, 3);
        pvm.check_invariants();
    }
}

#[test]
fn the_same_operations_give_the_same_clock_and_counters() {
    // On the paper's costs, with evictions, laundering and a second
    // cache in the mix; everything the run leaves in flight is drained.
    let run = |mmu| {
        let (pvm, mgr) = setup_with(24, |o| options(o, mmu, CostParams::sun3()));
        let (ctx, cache) = map_file(&pvm, &mgr);
        let anon = pvm.cache_create(None).unwrap();
        let anon_base = 4 * BASE;
        pvm.region_create(ctx, VirtAddr(anon_base), 64 * PS, Prot::RW, anon, 0)
            .unwrap();
        let mut x = 12345u64;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (x >> 33) % 64;
            match (x >> 20) % 4 {
                0 => touch(&pvm, ctx, page % FILE_PAGES),
                1 => write(&pvm, ctx, anon_base + page * PS, &page_bytes(page)[..8]),
                2 => drop(read(&pvm, ctx, anon_base + page * PS, 8)),
                _ => {
                    let mut buf = [0u8; 4];
                    pvm.cache_read(cache, (page % FILE_PAGES) * PS, &mut buf)
                        .unwrap();
                }
            }
        }
        pvm.drain_upcalls();
        pvm.check_invariants();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        assert!(stats.pull_ins > 8 && stats.push_outs > 0, "{stats:?}");
        (pvm.cost_model().snapshot(), stats)
    };
    for mmu in MMUS {
        let (first, second) = (run(mmu), run(mmu));
        assert_eq!(first.0.now, second.0.now, "{mmu:?}: clocks diverged");
        assert_eq!(first.0.counts, second.0.counts, "{mmu:?}");
        assert_eq!(first.1, second.1, "{mmu:?}: counters diverged");
    }
}

// ----- reading ahead of the reader (DESIGN.md §13) --------------------------
//
// These run on the shipped `pull_cluster_pages` (1): a stream ramps 1, 2,
// 4, 8 and is read ahead from its first full window on.

/// Pages of the streamed file: the ramp's 7, then 7 full windows.
const STREAM_PAGES: u64 = 7 + 7 * WINDOW;
/// What the reader does with a page before it wants the next one.
const THINK: u64 = 3_000;
/// A miss: the round trip, the page's transfer, its landing.
const MISS: u64 = IPC + SEG + LAND;

/// A 128-frame PVM over a manager that knows how long the streamed
/// file is and whose mapper dies on request.
fn streamed(
    mmu: MmuChoice,
    partial: u64,
    retry: RetryPolicy,
) -> (Pvm, Arc<MemSegmentManager>, Arc<Dying>) {
    let mgr = Arc::new(MemSegmentManager::new());
    let dying = Arc::new(Dying {
        inner: mgr.clone(),
        dead: AtomicBool::new(false),
        partial,
        len: Some(STREAM_PAGES * PS),
    });
    let mut o = PvmOptions {
        geometry: chorus_hal::PageGeometry::new(PS),
        frames: 128,
        mmu,
        cost: service_costs(),
        ..PvmOptions::default()
    };
    o.config.check_invariants = true;
    o.config.retry = retry;
    (Pvm::new(o, dying.clone()), mgr, dying)
}

/// Reads pages `from..to` of the stream in order, thinking after each;
/// returns what each access waited.
fn stream(pvm: &Pvm, ctx: CtxId, pages: core::ops::Range<u64>) -> Vec<u64> {
    let model = pvm.cost_model();
    let waits = pages.map(|p| {
        let t = now(pvm);
        touch(pvm, ctx, p);
        let waited = now(pvm) - t;
        model.advance_ns(THINK);
        waited
    });
    waits.collect()
}

#[test]
fn a_ramped_sequential_reader_never_waits_for_a_round_trip_again() {
    let run = |mmu| {
        let (pvm, mgr, _) = streamed(mmu, 0, RetryPolicy::default());
        let (ctx, _) = map_pages(&pvm, &mgr, STREAM_PAGES);
        let waits = stream(&pvm, ctx, 0..STREAM_PAGES);
        // The ramp's four misses wait for the mapper. A page's transfer
        // takes less than the reader's think time, so every other page
        // has arrived when it is wanted: an access pays for landings
        // (its own page's, and the rest of a window that has arrived
        // whole by then) and nothing else. That includes the head of
        // every window after the ramp, which went out when the window
        // before it was entered, 7 pages earlier.
        for (p, &waited) in waits.iter().enumerate() {
            if [0, 1, 3, 7].contains(&p) {
                assert_eq!(waited, MISS, "{mmu:?}: page {p}");
            } else {
                assert!(waited < IPC && waited % LAND == 0, "{mmu:?}: {p}: {waited}");
            }
        }
        // Every page landed once, and nobody waited for anything else.
        assert_eq!(
            now(&pvm),
            4 * MISS + (STREAM_PAGES - 4) * LAND + STREAM_PAGES * THINK,
            "{mmu:?}"
        );
        let ahead: Vec<_> = (15..STREAM_PAGES).step_by(8).map(|p| (p, WINDOW)).collect();
        assert_eq!(
            pulls(&mgr),
            [vec![(0, 1), (1, 2), (3, 4), (7, 8)], ahead].concat(),
            "{mmu:?}"
        );
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
        // The last window's first page found the file at its end.
        assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (6, 1));
        assert_eq!(stats.readahead_pages, STREAM_PAGES - 4);
        assert_eq!(pvm.waiting_faulters(), 0);
        pvm.check_invariants();
        (pvm.cost_model().snapshot(), stats)
    };
    for mmu in MMUS {
        let (first, second) = (run(mmu), run(mmu));
        assert_eq!(first.0.now, second.0.now, "{mmu:?}: clocks diverged");
        assert_eq!(first.0.counts, second.0.counts, "{mmu:?}");
        assert_eq!(first.1, second.1, "{mmu:?}: counters diverged");
    }
}

#[test]
fn a_failed_ahead_window_fails_nobody() {
    for mmu in MMUS {
        // Transient: the window is given up, and its reader pulls it
        // again when it gets there.
        let (pvm, mgr, _) = streamed(mmu, 0, RetryPolicy::no_retry());
        let (ctx, _) = map_pages(&pvm, &mgr, STREAM_PAGES);
        stream(&pvm, ctx, 0..8);
        let free = pvm.free_frames();
        pulls(&mgr);
        mgr.fail_next_pull();
        let waits = stream(&pvm, ctx, 8..23);
        assert_eq!(pulls(&mgr), [(15, 8), (15, 8), (23, 8)], "{mmu:?}");
        let missed: Vec<_> = waits.iter().map(|&w| w == MISS).collect();
        assert_eq!(missed.iter().filter(|&&m| m).count(), 1, "{waits:?}");
        assert!(missed[15 - 8], "page 15 is a miss again: {waits:?}");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!((stats.ahead_pulls, stats.quarantined_caches), (2, 0));
        assert_eq!(pvm.waiting_faulters(), 0, "no mailbox was ever opened");
        assert_eq!(pvm.free_frames(), free - 16, "{mmu:?}");
        pvm.check_invariants();

        // Permanent: the mapper delivers three pages and dies. The
        // entry that sent the window out is none the wiser; the cache is
        // quarantined when the failure is delivered, as a faulter's
        // pull would have had it.
        let (pvm, mgr, dying) = streamed(mmu, 3, RetryPolicy::no_retry());
        let (ctx, cache) = map_pages(&pvm, &mgr, STREAM_PAGES);
        stream(&pvm, ctx, 0..8);
        let free = pvm.free_frames();
        dying.dead.store(true, Ordering::SeqCst);
        stream(&pvm, ctx, 8..9);
        assert_eq!(pvm.stats().quarantined_caches, 0, "still in flight");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!((stats.ahead_pulls, stats.quarantined_caches), (1, 1));
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!(pvm.waiting_faulters(), 0);
        assert_eq!(pvm.free_frames(), free, "all of the window was given up");
        let err = pvm
            .vm_read(ctx, VirtAddr(BASE + 15 * PS), &mut [0u8; 1])
            .unwrap_err();
        assert!(matches!(err, GmiError::CachePoisoned(_)), "{err}");
        pvm.check_invariants();
        let region = pvm.find_region(ctx, VirtAddr(BASE)).unwrap();
        pvm.region_destroy(region).unwrap();
        pvm.cache_destroy(cache).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
    }
}

#[test]
fn teardown_with_an_ahead_window_in_flight_leaves_no_frame_behind() {
    for mmu in MMUS {
        // A deadline between the arrivals of a window's pages 1 and 2.
        let deadline = IPC + 2 * SEG + SEG / 2;
        let retry = RetryPolicy {
            deadline_ns: deadline,
            ..RetryPolicy::default()
        };
        let (pvm, mgr, _) = streamed(mmu, 0, retry);
        let (ctx, cache) = map_pages(&pvm, &mgr, STREAM_PAGES);
        let model = pvm.cost_model();
        // The ramp, each window given the time to land whole; page 8
        // then sends (15, 8) out with nobody waiting on it.
        let ramp_then_ahead = || {
            for p in 0..8 {
                touch(&pvm, ctx, p);
                model.advance_ns(IPC + WINDOW * SEG);
            }
            touch(&pvm, ctx, 8);
            assert_eq!(pulls(&mgr).last(), Some(&(15, WINDOW)), "{mmu:?}");
        };
        let drained = || {
            pvm.drain_upcalls();
            let stats = pvm.stats();
            assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
            assert_eq!(pvm.waiting_faulters(), 0);
            pvm.check_invariants();
        };
        ramp_then_ahead();
        assert_eq!(pvm.free_frames(), 128 - 15 - WINDOW as u32, "parked frames");

        // The watchdog: at the deadline pages 15 and 16 have arrived and
        // land, the other six are given up.
        model.advance_ns(deadline);
        pvm.cache_read(cache, 0, &mut [0u8; 1]).unwrap();
        assert_eq!(pvm.stats().watchdog_cancels, 1);
        assert_eq!(pvm.free_frames(), 128 - 17, "{mmu:?}");
        drained();

        // Invalidate waits the window out, then frees what it brought.
        pvm.cache_invalidate(cache, 0, STREAM_PAGES * PS).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        ramp_then_ahead();
        pvm.cache_invalidate(cache, 0, STREAM_PAGES * PS).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        drained();

        // Destroy gives up what has not arrived; the window stays queued
        // and finds nothing to land.
        ramp_then_ahead();
        let region = pvm.find_region(ctx, VirtAddr(BASE)).unwrap();
        pvm.region_destroy(region).unwrap();
        pvm.cache_destroy(cache).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        drained();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
    }
}
