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
use chorus_pvm::trace::{TraceEvent, UpcallKind};
use chorus_pvm::{MmuChoice, Pvm, PvmOptions, SlotDump};
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
        // arrive during the wait and land in it, each before the next
        // arrives.
        touch(&pvm, ctx, 3);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().readahead_pages, 3);
        // A landed page costs nothing more, whoever touches it first.
        touch(&pvm, ctx, 3);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        touch(&pvm, ctx, 1);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        touch(&pvm, ctx, 1);
        assert_eq!(now(&pvm), arrival(t, 3) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().async_inflight_stalls, 2);

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

/// Pages landed so far: one `BzeroPage` each.
fn landings(pvm: &Pvm) -> u64 {
    pvm.cost_model().count(OpKind::BzeroPage)
}

/// The offsets, in pages, of `cache`'s synchronization stubs.
fn stubs(pvm: &Pvm, cache: CacheId) -> Vec<u64> {
    let dump = pvm.dump_caches();
    let slots = &dump.cache(cache).unwrap().slots;
    (slots.iter())
        .filter(|(_, slot)| matches!(slot, SlotDump::Sync))
        .map(|&(off, _)| off / PS)
        .collect()
}

#[test]
fn a_wait_lands_the_pages_that_arrive_during_it() {
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(64, |o| options(o, mmu, service_costs()));
        let (a, _) = map_file(&pvm, &mgr);
        let (b, _) = map_file(&pvm, &mgr);
        touch(&pvm, a, 0);
        // Waiting for b's head, the CPU is idle while the tail of a's
        // window arrives, a page every `SEG`: each lands as it arrives.
        let t = now(&pvm);
        touch(&pvm, b, 0);
        assert_eq!(now(&pvm), arrival(t, 0) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().readahead_pages, WINDOW - 1, "{mmu:?}");
        // Waiting for page 4 of its own window, pages 1 to 3 of it land,
        // page 1 first: landed last, it would no longer fit.
        touch(&pvm, b, 4);
        assert_eq!(now(&pvm), arrival(t, 4) + LAND, "{mmu:?}");
        assert_eq!(landings(&pvm), 3 + WINDOW - 1 + 3, "{mmu:?}");
        // Every page landed in a wait is resident: touching it lands
        // nothing and waits for nothing.
        let before = (now(&pvm), pvm.stats().async_inflight_stalls);
        for p in 1..WINDOW {
            touch(&pvm, a, p);
        }
        for p in 1..4 {
            touch(&pvm, b, p);
        }
        let after = (now(&pvm), pvm.stats().async_inflight_stalls);
        assert_eq!(after, before, "{mmu:?}");
        assert_eq!(landings(&pvm), 3 + WINDOW - 1 + 3, "{mmu:?}");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!(landings(&pvm), 2 * WINDOW, "one landing a page");
        pvm.check_invariants();
    }
}

#[test]
fn a_waiter_wakes_at_its_page_s_arrival_and_landing_whatever_lands_before() {
    // Thinking `d` after the head lands, the reader then wants page 4:
    // the pages before it arrive before or during the wait, and only
    // those that can land whole before page 4 arrives land in it. The
    // reader wakes the same time after page 4's arrival whatever landed
    // before: `LAND` on the service costs, and on costs where a landing
    // also does global-map work, what the first `d` reads.
    let mut gmap_costs = service_costs();
    gmap_costs.set(OpKind::GlobalMapOp, 300);
    for (costs, after_arrival) in [(service_costs(), Some(LAND)), (gmap_costs, None)] {
        for mmu in MMUS {
            let mut woke = after_arrival;
            for d in (0..3 * SEG).step_by(250) {
                let (pvm, mgr) = setup_with(64, |o| options(o, mmu, costs.clone()));
                let (ctx, _) = map_file(&pvm, &mgr);
                let t = now(&pvm);
                touch(&pvm, ctx, 0);
                pvm.cost_model().advance_ns(d);
                touch(&pvm, ctx, 4);
                let after = now(&pvm) - arrival(t, 4);
                assert_eq!(after, *woke.get_or_insert(after), "{mmu:?}: d = {d}");
                for p in 1..WINDOW {
                    touch(&pvm, ctx, p);
                }
                pvm.drain_upcalls();
                assert_eq!(landings(&pvm), WINDOW, "{mmu:?}: d = {d}");
                pvm.check_invariants();
            }
        }
    }
}

#[test]
fn a_page_whose_landing_would_overrun_the_wait_stays_a_stub_until_touched() {
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(64, |o| options(o, mmu, service_costs()));
        let (ctx, cache) = map_file(&pvm, &mgr);
        let t = now(&pvm);
        touch(&pvm, ctx, 0);
        // Pages 1 and 2 have arrived when the reader wants page 4, page 3
        // arrives during the wait. Landed in turn from then on, 1 and 2
        // fit, and 3 would end `3 * LAND - SEG - SEG / 4` past page 4's
        // arrival: it is left.
        let think = arrival(t, 3) - SEG / 4 - now(&pvm);
        pvm.cost_model().advance_ns(think);
        touch(&pvm, ctx, 4);
        assert_eq!(now(&pvm), arrival(t, 4) + LAND, "{mmu:?}");
        assert_eq!(stubs(&pvm, cache), [3, 5, 6, 7], "{mmu:?}");
        assert_eq!(landings(&pvm), 4, "{mmu:?}");
        // Its first toucher lands it, and pays for that alone.
        touch(&pvm, ctx, 3);
        assert_eq!(now(&pvm), arrival(t, 4) + 2 * LAND, "{mmu:?}");
        assert_eq!(landings(&pvm), 5, "{mmu:?}");
        assert_eq!(stubs(&pvm, cache), [5, 6, 7], "{mmu:?}");
        for p in 1..3 {
            touch(&pvm, ctx, p);
        }
        assert_eq!(now(&pvm), arrival(t, 4) + 2 * LAND, "{mmu:?}");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
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
        // deadline; pages 1 to 3 arrive during the wait and land in it.
        // The next driver entry is the watchdog's: pages 5 to 7 have not
        // arrived, their frames and stubs go, and nothing is left to
        // land.
        touch(&pvm, ctx, 4);
        assert_eq!(now(&pvm), arrival(t, 4) + LAND, "{mmu:?}");
        assert_eq!(pvm.stats().watchdog_cancels, 0);
        pvm.cache_read(cache, 0, &mut [0u8; 1]).unwrap();
        let stats = pvm.stats();
        assert_eq!((stats.watchdog_cancels, stats.mapper_timeouts), (1, 1));
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!(pvm.free_frames(), free - 5, "{mmu:?}");
        assert_eq!(now(&pvm), arrival(t, 4) + LAND, "{mmu:?}");
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
fn a_fault_that_finds_only_parked_pages_waits_for_their_arrival() {
    // The pool is one window: page 0 locked in memory, the other seven
    // in flight behind it. A parked page is pinned from `fillUp` to its
    // arrival (DESIGN.md §13), so a second cache's fault takes none of
    // them: it waits for the window to land and takes a landed page.
    for mmu in MMUS {
        let (pvm, mgr) = setup_with(WINDOW as u32, |o| options(o, mmu, service_costs()));
        let (ctx, cache) = map_pages(&pvm, &mgr, WINDOW);
        let t = now(&pvm);
        pvm.cache_lock_in_memory(cache, 0, PS).unwrap();
        assert_eq!(pulls(&mgr), [(0, WINDOW)], "{mmu:?}");
        assert_eq!(pvm.free_frames(), 0, "{mmu:?}: the window fills the pool");
        assert_eq!(now(&pvm), arrival(t, 0) + LAND, "{mmu:?}");
        pvm.check_invariants();

        let anon = pvm.cache_create(None).unwrap();
        let anon_base = 2 * BASE;
        pvm.region_create(ctx, VirtAddr(anon_base), PS, Prot::RW, anon, 0)
            .unwrap();
        write(&pvm, ctx, anon_base, &page_bytes(99));
        assert!(
            now(&pvm) > arrival(t, WINDOW - 1),
            "{mmu:?}: the fault took a parked page instead of waiting"
        );
        let stats = pvm.stats();
        assert_eq!(
            stats.readahead_pages,
            WINDOW - 1,
            "{mmu:?}: all landed first"
        );
        assert_eq!((stats.evictions, stats.readahead_unused), (1, 1), "{mmu:?}");
        pvm.check_invariants();

        // Unlocked, the pool can take a window again.
        pvm.cache_unlock(cache, 0, PS).unwrap();
        assert_eq!(read(&pvm, ctx, anon_base, PS as usize), page_bytes(99));
        for p in 0..WINDOW {
            let bytes = read(&pvm, ctx, BASE + p * PS, PS as usize);
            assert_eq!(bytes, page_bytes(p), "{mmu:?}: page {p}");
        }
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
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

// ----- pushes: the same request, waited for ----------------------------------

/// `(completed, pages, sim_ns)` of every `pushOut` submit and completion
/// traced since the last drain, in order.
fn push_requests(pvm: &Pvm) -> Vec<(bool, u64, u64)> {
    let records = pvm.tracer().drain();
    let push = |r: &chorus_pvm::trace::TraceRecord| match r.event {
        TraceEvent::UpcallSubmit {
            kind: UpcallKind::PushOut,
            pages,
            ..
        } => Some((false, pages, r.sim_ns)),
        TraceEvent::UpcallComplete {
            kind: UpcallKind::PushOut,
            pages,
            ..
        } => Some((true, pages, r.sim_ns)),
        _ => None,
    };
    records.iter().filter_map(push).collect()
}

#[test]
fn a_waited_push_is_one_request_that_takes_its_transfer_time() {
    // A demand eviction and a `cache_sync` each push through the
    // completion engine like a laundering push, and settle at once: the
    // clock moves from submit to completion by the transfer, the round
    // trip and `n` pages, and nothing is left in flight.
    let sun3 = CostParams::sun3();
    let service = |n: u64| sun3.get(OpKind::IpcOp) + n * sun3.get(OpKind::SegmentIoPage);
    let traced = |frames, mmu| {
        setup_with(frames, |o| {
            options(o, mmu, CostParams::sun3());
            o.config.trace.enabled = true;
        })
    };
    for mmu in MMUS {
        // Sync: three dirty pages of a file, one batch.
        let (pvm, mgr) = traced(64, mmu);
        let (ctx, cache) = map_file(&pvm, &mgr);
        for p in 0..3 {
            write(&pvm, ctx, BASE + p * PS, &page_bytes(p + 1));
        }
        pvm.drain_upcalls();
        push_requests(&pvm);
        let model = pvm.cost_model();
        let ops = (
            model.count(OpKind::IpcOp),
            model.count(OpKind::SegmentIoPage),
        );
        pvm.cache_sync(cache, 0, FILE_PAGES * PS).unwrap();
        let [(false, 3, submit), (true, 3, done)] = push_requests(&pvm)[..] else {
            panic!("{mmu:?}: one 3-page request");
        };
        assert_eq!(done - submit, service(3), "{mmu:?}");
        let counted = (
            model.count(OpKind::IpcOp),
            model.count(OpKind::SegmentIoPage),
        );
        assert_eq!(counted, (ops.0 + 1, ops.1 + 3), "{mmu:?}");
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        assert_eq!(stats.push_outs, 3);
        pvm.check_invariants();

        // Demand: a pool of four dirty pages, none next to another; the
        // fifth write's sweep sets them aside, comes back round to one
        // and pushes it itself.
        let (pvm, _) = traced(4, mmu);
        let (ctx, _, _) = common::anon_region(&pvm, 16);
        for p in [0, 2, 4, 6] {
            write(&pvm, ctx, 0x1_0000 + p * PS, &page_bytes(p));
        }
        push_requests(&pvm);
        write(&pvm, ctx, 0x1_0000 + 8 * PS, &page_bytes(8));
        let [(false, 1, submit), (true, 1, done)] = push_requests(&pvm)[..] else {
            panic!("{mmu:?}: one 1-page request");
        };
        assert_eq!(done - submit, service(1), "{mmu:?}");
        let stats = pvm.stats();
        assert_eq!((stats.demand_pushes, stats.write_behind_pushes), (1, 0));
        assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
        for p in [0, 2, 4, 6, 8] {
            assert_eq!(
                read(&pvm, ctx, 0x1_0000 + p * PS, PS as usize),
                page_bytes(p)
            );
        }
        pvm.check_invariants();
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
fn the_reader_of_a_window_has_the_next_two_in_flight_and_never_a_third() {
    for mmu in MMUS {
        let (pvm, mgr, _) = streamed(mmu, 0, RetryPolicy::default());
        let (ctx, _) = map_pages(&pvm, &mgr, STREAM_PAGES);
        let mut reach = 0;
        for p in 0..STREAM_PAGES {
            touch(&pvm, ctx, p);
            pvm.cost_model().advance_ns(THINK);
            reach = pulls(&mgr)
                .iter()
                .map(|&(at, n)| at + n)
                .fold(reach, u64::max);
            // From the second first use of the first full window (7..15)
            // on, the window being read ends at `end` and two more are
            // out; the file's end stops them.
            if p >= 9 {
                let end = 7 + (p - 7) / WINDOW * WINDOW + WINDOW;
                let want = (end + 2 * WINDOW).min(STREAM_PAGES);
                assert_eq!(reach, want, "{mmu:?}: page {p}");
            }
        }
        pvm.drain_upcalls();
        let stats = pvm.stats();
        // (15, 8) .. (55, 8) went out ahead; the window due at the
        // file's end was counted skipped once.
        assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (6, 1));
        assert_eq!(stats.readahead_unused, 0);
        pvm.check_invariants();
    }
}

#[test]
fn a_failed_ahead_window_fails_nobody() {
    for mmu in MMUS {
        // Transient: the window is given up while the one after it goes
        // on, and its reader pulls it again when it gets there, as its
        // stream's window.
        let (pvm, mgr, _) = streamed(mmu, 0, RetryPolicy::no_retry());
        let (ctx, _) = map_pages(&pvm, &mgr, STREAM_PAGES);
        stream(&pvm, ctx, 0..8);
        let free = pvm.free_frames();
        pulls(&mgr);
        mgr.fail_next_pull();
        let waits = stream(&pvm, ctx, 8..23);
        // Page 8 sends (15, 8) out, which fails, and page 9 (23, 8); the
        // miss at 15 pulls its window again, and page 16, the first use
        // of it, sends (31, 8).
        let expect = [(15, 8), (23, 8), (15, 8), (31, 8)];
        assert_eq!(pulls(&mgr), expect, "{mmu:?}");
        let missed: Vec<_> = waits.iter().map(|&w| w == MISS).collect();
        assert_eq!(missed.iter().filter(|&&m| m).count(), 1, "{waits:?}");
        assert!(missed[15 - 8], "page 15 is a miss again: {waits:?}");
        pvm.drain_upcalls();
        let stats = pvm.stats();
        assert_eq!(stats.async_deliveries, stats.async_submits);
        assert_eq!((stats.ahead_pulls, stats.quarantined_caches), (3, 0));
        assert_eq!(pvm.waiting_faulters(), 0, "no mailbox was ever opened");
        assert_eq!(pvm.free_frames(), free - 24, "{mmu:?}");
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
        // then sends (15, 8) out with nobody waiting on it, and page 9
        // (for `two`) the window after it.
        let ramp_then_ahead = |two: bool| {
            for p in 0..8 {
                touch(&pvm, ctx, p);
                model.advance_ns(IPC + WINDOW * SEG);
            }
            touch(&pvm, ctx, 8);
            let mut ahead = vec![(15, WINDOW)];
            if two {
                touch(&pvm, ctx, 9);
                ahead.push((23, WINDOW));
            }
            assert!(pulls(&mgr).ends_with(&ahead), "{mmu:?}");
            let parked = 15 + ahead.len() as u32 * WINDOW as u32;
            assert_eq!(pvm.free_frames(), 128 - parked, "parked frames");
        };
        let drained = || {
            pvm.drain_upcalls();
            let stats = pvm.stats();
            assert_eq!(stats.async_deliveries, stats.async_submits, "{stats:?}");
            assert_eq!(pvm.waiting_faulters(), 0);
            pvm.check_invariants();
        };
        ramp_then_ahead(false);

        // The watchdog: at the deadline pages 15 and 16 have arrived and
        // land, the other six are given up.
        model.advance_ns(deadline);
        pvm.cache_read(cache, 0, &mut [0u8; 1]).unwrap();
        assert_eq!(pvm.stats().watchdog_cancels, 1);
        assert_eq!(pvm.free_frames(), 128 - 17, "{mmu:?}");
        drained();

        // Invalidate waits the windows out, then frees what they brought.
        pvm.cache_invalidate(cache, 0, STREAM_PAGES * PS).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        ramp_then_ahead(true);
        pvm.cache_invalidate(cache, 0, STREAM_PAGES * PS).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        drained();

        // Destroy gives up what has not arrived; the windows stay queued
        // and find nothing to land.
        ramp_then_ahead(true);
        let region = pvm.find_region(ctx, VirtAddr(BASE)).unwrap();
        pvm.region_destroy(region).unwrap();
        pvm.cache_destroy(cache).unwrap();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
        drained();
        assert_eq!(pvm.free_frames(), 128, "{mmu:?}");
    }
}
