//! One mapper round trip per operation: the stream table sizes `pullIn`
//! windows, frames for a window are secured before it is issued, dirty
//! victims wait on the write-behind queue for a light driver entry, and
//! pages a push has cleaned are the next ones evicted. Everything here
//! runs on `PvmConfig::default()` (plus the invariant checker).

mod common;

use chorus_gmi::{CacheId, CacheIo, CtxId, Gmi, Prot, RetryPolicy, VirtAddr};
use chorus_hal::{CostParams, OpKind};
use chorus_nucleus::FaultPlan;
use chorus_pvm::trace::{TraceEvent, UpcallKind};
use chorus_pvm::PvmStats;
use common::{stack, stack_costed, FaultStack, Lcg, PS};
use std::sync::{Arc, Barrier};

fn quiet(frames: u32) -> FaultStack {
    stack(frames, FaultPlan::quiet(0), FaultPlan::quiet(0), |_| {})
}

fn page_bytes(tag: u8, page: u64) -> Vec<u8> {
    (0..PS)
        .map(|k| tag ^ (page as u8).wrapping_mul(31) ^ k as u8)
        .collect()
}

fn file_bytes(tag: u8, pages: u64) -> Vec<u8> {
    (0..pages).flat_map(|p| page_bytes(tag, p)).collect()
}

/// Maps a fresh file of `pages` pages at `base`.
fn map_file(s: &FaultStack, tag: u8, pages: u64, base: u64, prot: Prot) -> (CtxId, CacheId) {
    let cap = s.files.create_segment(&file_bytes(tag, pages));
    let cache = s
        .pvm
        .cache_create(Some(s.seg_mgr.segment_for(cap)))
        .unwrap();
    let ctx = s.pvm.context_create().unwrap();
    s.pvm
        .region_create(ctx, VirtAddr(base), pages * PS, prot, cache, 0)
        .unwrap();
    (ctx, cache)
}

/// Maps `pages` pages of anonymous memory at `base`.
fn map_anon(s: &FaultStack, pages: u64, base: u64) -> (CtxId, CacheId) {
    let cache = s.pvm.cache_create(None).unwrap();
    let ctx = s.pvm.context_create().unwrap();
    s.pvm
        .region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    (ctx, cache)
}

fn read_page(s: &FaultStack, ctx: CtxId, base: u64, page: u64) -> Vec<u8> {
    let mut buf = vec![0u8; PS as usize];
    s.pvm
        .vm_read(ctx, VirtAddr(base + page * PS), &mut buf)
        .unwrap();
    buf
}

fn write_page(s: &FaultStack, ctx: CtxId, base: u64, page: u64, data: &[u8]) {
    s.pvm
        .vm_write(ctx, VirtAddr(base + page * PS), data)
        .unwrap();
}

// ----- window bounds -------------------------------------------------------

#[test]
fn a_stream_doubles_its_window_to_one_ipc_message_and_stops_at_segment_end() {
    let s = quiet(64);
    let (ctx, _) = map_file(&s, 0x11, 21, 0, Prot::READ);
    for p in 0..21 {
        assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x11, p), "page {p}");
    }
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [(0, 1), (1, 2), (3, 4), (7, 8), (15, 6)],
        "1, 2, 4, 8, then what is left of the segment"
    );
    let stats = s.pvm.stats();
    assert_eq!((stats.readahead_hits, stats.readahead_ramps), (4, 3));
    assert_eq!(
        stats.readahead_pages,
        21 - 4,
        "the last pull went out ahead of the reader, when page 8 was \
         first used: it had no faulter, so its head is readahead too"
    );
    assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (1, 1));
    assert_eq!(stats.readahead_unused, 0);
}

#[test]
fn a_window_stops_at_a_resident_page_and_the_stream_goes_on_behind_it() {
    let s = quiet(64);
    let (ctx, _) = map_file(&s, 0x12, 32, 0, Prot::READ);
    read_page(&s, ctx, 0, 12);
    for p in 0..32 {
        read_page(&s, ctx, 0, p);
    }
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [
            (12, 1),
            (0, 1),
            (1, 2),
            (3, 4),
            (7, 5),
            (13, 8),
            (21, 8),
            (29, 3)
        ],
        "the run from page 7 is cut at resident page 12; the miss at 13 \
         is still inside the stream's window"
    );
}

// ----- reading ahead of the reader ------------------------------------------

#[test]
fn an_ahead_pull_steps_over_a_resident_page_and_the_stream_goes_on_behind_it() {
    let s = quiet(64);
    let (ctx, _) = map_file(&s, 0x19, 40, 0, Prot::READ);
    read_page(&s, ctx, 0, 16);
    for p in 0..40 {
        assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x19, p), "page {p}");
    }
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [
            (16, 1),
            (0, 1),
            (1, 2),
            (3, 4),
            (7, 8),
            (15, 1),
            (17, 8),
            (25, 8),
            (33, 7)
        ],
        "the window after 7..15 is cut at resident page 16; the one after \
         it starts behind that page, and the rest tile the file"
    );
    let stats = s.pvm.stats();
    // Pages 8, 15, 17 and 25 were each the first readahead page of
    // their window to be used; page 33 found nothing left to pull.
    assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (4, 1));
    assert_eq!(stats.faults, 40, "one fault a page: nobody faulted twice");
    assert_eq!(stats.readahead_unused, 0);
}

#[test]
fn drop_behind_lags_one_window_behind_an_ahead_pull_and_a_miss_catches_up() {
    let s = quiet(128);
    let (ctx, _) = map_file(&s, 0x1a, 64, 0, Prot::READ);
    let dropped = || s.pvm.stats().drop_behind_pages;
    for p in 0..8 {
        read_page(&s, ctx, 0, p);
    }
    assert_eq!(dropped(), 1 + 2 + 4, "the misses at 1, 3 and 7");
    // Pages 8 and 9 send (15, 8) and (23, 8) out: the reader has only
    // just entered 7..15.
    read_page(&s, ctx, 0, 8);
    read_page(&s, ctx, 0, 9);
    assert_eq!(dropped(), 7, "the window being read keeps its reference");
    for p in 10..16 {
        read_page(&s, ctx, 0, p);
    }
    assert_eq!(dropped(), 7 + 8, "page 15 sent (31, 8) out: 7..15 is left");
    for p in 16..24 {
        read_page(&s, ctx, 0, p);
    }
    assert_eq!(dropped(), 15 + 8, "page 23 sent (39, 8) out: 15..23");
    // The reader jumps, still inside the stream's reach: a miss, and
    // the three windows it has not been dropped from go at once.
    read_page(&s, ctx, 0, 48);
    assert_eq!(dropped(), 23 + 24, "23..47, caught up");
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [
            (0, 1),
            (1, 2),
            (3, 4),
            (7, 8),
            (15, 8),
            (23, 8),
            (31, 8),
            (39, 8),
            (48, 8)
        ]
    );
    assert_eq!(s.pvm.stats().ahead_pulls, 4);
}

#[test]
fn two_windows_go_ahead_only_where_three_stay_under_a_quarter_of_the_pool() {
    // The window being read and two ahead are 24 pages: 96 frames is
    // too small a pool for them, and keeps one window ahead.
    for (frames, ahead) in [(64u32, 1u64), (96, 1), (97, 2)] {
        let s = quiet(frames);
        let (ctx, _) = map_file(&s, 0x1f, 63, 0, Prot::READ);
        let mut reach = 0;
        for p in 0..63 {
            assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x1f, p));
            let pulls = s.upcalls(UpcallKind::PullIn);
            reach = pulls.iter().map(|&(at, n)| at + n).fold(reach, u64::max);
            if p >= 9 {
                let end = 7 + (p - 7) / 8 * 8 + 8;
                let want = (end + ahead * 8).min(63);
                assert_eq!(reach, want, "{frames} frames: page {p}");
            }
        }
        let stats = s.pvm.stats();
        assert_eq!((stats.faults, stats.readahead_unused), (63, 0), "{frames}");
    }
}

#[test]
fn a_file_shorter_than_the_ramp_is_never_read_ahead() {
    // `mix-make`'s images: a stream that never reaches the full window
    // issues exactly the pulls it did before there were ahead pulls.
    let s = quiet(64);
    let (ctx, _) = map_file(&s, 0x1b, 7, 0, Prot::READ);
    for p in 0..7 {
        assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x1b, p));
    }
    assert_eq!(s.upcalls(UpcallKind::PullIn), [(0, 1), (1, 2), (3, 4)]);
    let stats = s.pvm.stats();
    assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (0, 0));
}

#[test]
fn a_pool_with_nothing_free_or_clean_gets_no_ahead_window_and_no_push() {
    let s = quiet(40);
    let (ctx, cache) = map_file(&s, 0x1c, 64, 0, Prot::READ);
    for p in 0..8 {
        read_page(&s, ctx, 0, p);
    }
    // Pages 0..15 are resident and get pinned; 25 dirty anonymous pages
    // fill the pool.
    s.pvm.cache_lock_in_memory(cache, 0, 15 * PS).unwrap();
    let base = 0x10_0000;
    let (anon_ctx, _) = map_anon(&s, 25, base);
    for p in 0..25 {
        write_page(&s, anon_ctx, base, p, &page_bytes(0x1d, p));
    }
    assert_eq!(s.pvm.free_frames(), 0);
    s.upcalls(UpcallKind::PullIn);
    // Page 8 is the first readahead page of 7..15 to be used: the next
    // window is due, and every page is either pinned or dirty.
    read_page(&s, ctx, 0, 8);
    let stats = s.pvm.stats();
    assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (0, 1));
    assert_eq!(s.upcalls(UpcallKind::PullIn), []);
    assert_eq!(
        stats.demand_pushes, 0,
        "an ahead pull never waits for a push"
    );
    assert_eq!(s.pvm.resident_page_count(), 40);
    s.pvm.check_invariants();
}

/// Costs under which a window outlives its faulter's wait by far: the
/// round trip is 1 ms, a page's transfer 10 ms, everything else free.
fn slow_pages() -> CostParams {
    let mut p = CostParams::zero();
    p.set(OpKind::IpcOp, 1_000_000);
    p.set(OpKind::SegmentIoPage, 10_000_000);
    p
}

/// When (simulated) each `pullIn` since the last drain was submitted.
fn pull_submits(s: &FaultStack) -> Vec<(u64, u64)> {
    let records = s.pvm.tracer().drain();
    let submit = |r: &chorus_pvm::trace::TraceRecord| match r.event {
        TraceEvent::UpcallSubmit {
            kind: UpcallKind::PullIn,
            offset,
            ..
        } => Some((offset / PS, r.sim_ns)),
        _ => None,
    };
    records.iter().filter_map(submit).collect()
}

#[test]
fn a_mappers_last_slot_is_not_taken_by_an_ahead_pull() {
    let s = stack_costed(
        128,
        slow_pages(),
        FaultPlan::quiet(0),
        FaultPlan::quiet(0),
        |_| {},
    );
    let (ctx, _) = map_file(&s, 0x1e, 192, 0, Prot::READ);
    let now = || s.pvm.cost_model().now().nanos();
    // Three streams ramp to the full window; their last pulls go out
    // 11 ms apart and take 81 ms each, so all three are in flight.
    for p in [0, 1, 3] {
        for stream in [0, 64, 128] {
            read_page(&s, ctx, 0, stream + p);
        }
    }
    s.pvm.drain_upcalls();
    for stream in [0, 64, 128] {
        read_page(&s, ctx, 0, stream + 7);
    }
    assert_eq!(s.pvm.sample_now().inflight_upcalls, 3);
    pull_submits(&s);
    // Pages 8 and 9 arrived long ago; the first use of each makes
    // (15, 8) due, and the one free slot is left alone: no pull, no
    // wait, and one window skipped however many first uses retry it.
    let t = now();
    read_page(&s, ctx, 0, 8);
    read_page(&s, ctx, 0, 9);
    let stats = s.pvm.stats();
    assert_eq!((stats.ahead_pulls, stats.ahead_skipped), (0, 1));
    assert_eq!((now(), pull_submits(&s)), (t, vec![]));
    // So a faulter's pull goes out the instant it misses: nothing was
    // force-delivered to make room for it.
    read_page(&s, ctx, 0, 190);
    assert_eq!(pull_submits(&s), [(190, t)]);
    // The windows land; the stream is still due, and page 10 is the
    // next first use: now there is room.
    s.pvm.drain_upcalls();
    read_page(&s, ctx, 0, 10);
    assert_eq!(s.upcalls(UpcallKind::PullIn), [(15, 8)]);
    assert_eq!(s.pvm.stats().ahead_pulls, 1);
    s.pvm.check_invariants();
}

#[test]
fn a_window_stops_at_unowned_offsets_and_copy_on_write_stubs() {
    let s = quiet(64);
    let base = 0x10_0000;
    let (ctx, cache) = map_anon(&s, 16, base);
    // Pages 0..=3 and 6..=12 are written and flushed to swap; 4 and 5
    // stay unowned (they read as zeroes, and no mapper holds them).
    let owned: Vec<u64> = (0..4).chain(6..13).collect();
    for &p in &owned {
        write_page(&s, ctx, base, p, &page_bytes(0x13, p));
    }
    s.pvm.cache_flush(cache, 0, 16 * PS).unwrap();
    // Page 9 becomes a per-page copy-on-write stub of another cache.
    let (src_ctx, src) = map_anon(&s, 1, 0x20_0000);
    write_page(&s, src_ctx, 0x20_0000, 0, &page_bytes(0x77, 0));
    s.pvm
        .cache_copy_with(src, 0, cache, 9 * PS, PS, chorus_gmi::CopyMode::PerPage)
        .unwrap();
    s.upcalls(UpcallKind::PullIn);
    for p in 0..16 {
        let want = match p {
            9 => page_bytes(0x77, 0),
            p if owned.contains(&p) => page_bytes(0x13, p),
            _ => vec![0u8; PS as usize],
        };
        assert_eq!(read_page(&s, ctx, base, p), want, "page {p}");
    }
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [(0, 1), (1, 2), (3, 1), (6, 3), (10, 3)],
        "no pull covers unowned pages 4 and 5, the stub at 9, or \
         anything past page 12"
    );
}

#[test]
fn a_fully_backed_cache_of_unknown_length_gets_no_tail() {
    // `MemSegmentManager` does not report segment lengths, and a
    // fully-backed cache owns every offset: nothing would bound a window.
    use chorus_gmi::testing::{MemSegmentManager, Upcall};
    let mgr = Arc::new(MemSegmentManager::new());
    let pvm = chorus_pvm::Pvm::new(
        chorus_pvm::PvmOptions {
            geometry: chorus_hal::PageGeometry::new(PS),
            frames: 64,
            ..chorus_pvm::PvmOptions::default()
        },
        mgr.clone(),
    );
    let cache = pvm
        .cache_create(Some(mgr.create_segment(&file_bytes(0x14, 2))))
        .unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), 16 * PS, Prot::READ, cache, 0)
        .unwrap();
    let mut buf = [0u8; 4];
    for p in 0..16 {
        pvm.vm_read(ctx, VirtAddr(p * PS), &mut buf).unwrap();
    }
    let log = mgr.take_log();
    assert_eq!(log.len(), 16);
    assert!(
        log.iter()
            .all(|u| matches!(u, Upcall::PullIn { size, .. } if *size == PS)),
        "{log:?}"
    );
}

#[test]
fn a_window_stays_under_a_quarter_of_the_pool() {
    // Pools of 2, 4 and 8 frames pull page at a time, exactly as before
    // there were streams: a delivery pins its own earlier pages, and a
    // pool that small has none to spare.
    for (frames, widest) in [
        (2u32, 1u64),
        (4, 1),
        (8, 1),
        (12, 2),
        (20, 4),
        (40, 8),
        (64, 8),
    ] {
        let s = quiet(frames);
        let (ctx, _) = map_file(&s, 0x15, 48, 0, Prot::READ);
        for p in 0..48 {
            assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x15, p));
        }
        let pulls = s.upcalls(UpcallKind::PullIn);
        assert_eq!(
            pulls.iter().map(|&(_, n)| n).max(),
            Some(widest),
            "{frames} frames: {pulls:?}"
        );
        assert_eq!(s.pvm.stats().push_outs, 0);
    }
}

#[test]
fn a_pull_that_failed_is_driven_again_on_its_own_stream() {
    let s = stack(64, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.retry = RetryPolicy::no_retry();
    });
    let (ctx, _) = map_file(&s, 0x17, 64, 0, Prot::READ);
    // Three one-page streams fill the table next to the one ramping.
    for p in [40, 50, 60, 0, 1, 3] {
        read_page(&s, ctx, 0, p);
    }
    s.faulty_files.set_plan(FaultPlan::transient(1, 1000));
    let mut buf = [0u8; 8];
    assert!(s.pvm.vm_read(ctx, VirtAddr(7 * PS), &mut buf).is_err());
    s.faulty_files.set_plan(FaultPlan::quiet(0));
    // The same miss again: the same window, and the stream goes on from
    // there instead of starting over in some other stream's place.
    for p in [7, 15, 41, 51, 61] {
        assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x17, p), "page {p}");
    }
    assert_eq!(
        s.upcalls(UpcallKind::PullIn),
        [
            (40, 1),
            (50, 1),
            (60, 1),
            (0, 1),
            (1, 2),
            (3, 4),
            (7, 8),
            (7, 8),
            (15, 8),
            (41, 2),
            (51, 2),
            (61, 2)
        ]
    );
    assert_eq!(s.pvm.stats().readahead_ramps, 6);
}

#[test]
fn a_prefetched_page_read_through_the_cache_is_not_an_unused_one() {
    const PAGES: u64 = 192;
    let s = quiet(64);
    let cap = s.files.create_segment(&file_bytes(0x18, PAGES));
    let cache = s
        .pvm
        .cache_create(Some(s.seg_mgr.segment_for(cap)))
        .unwrap();
    let mut buf = vec![0u8; PS as usize];
    for p in 0..PAGES {
        s.pvm.cache_read(cache, p * PS, &mut buf).unwrap();
        assert_eq!(buf, page_bytes(0x18, p), "page {p}");
    }
    let stats = s.pvm.stats();
    assert!(stats.evictions >= PAGES - 64, "{stats:?}");
    assert!(stats.readahead_pages > PAGES / 2, "{stats:?}");
    assert_eq!(stats.readahead_unused, 0, "every page was read");
}

// ----- the tails -----------------------------------------------------------

/// The scoreboard's paging stream in small, over the region at `base`:
/// even accesses step a page-stride cursor, odd ones jump; one in ten
/// writes. Every access must succeed and every read match `mirror`.
/// Returns what each access cost in simulated nanoseconds.
fn scan(s: &FaultStack, ctx: CtxId, base: u64, mirror: &mut [u8], ops: u64, seed: u64) -> Vec<u64> {
    let pages = mirror.len() as u64 / PS;
    let model = s.pvm.cost_model();
    let mut rng = Lcg(seed);
    let mut costs = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let page = if i.is_multiple_of(2) {
            (i / 2) % pages
        } else {
            rng.next() % pages
        };
        let at = (page * PS + rng.next() % (PS - 8)) as usize;
        let va = VirtAddr(base + at as u64);
        let t0 = model.now().nanos();
        if rng.next().is_multiple_of(10) {
            let value = rng.next().to_le_bytes();
            s.pvm
                .vm_write(ctx, va, &value)
                .unwrap_or_else(|e| panic!("seed {seed} write {i}: {e}"));
            mirror[at..at + 8].copy_from_slice(&value);
        } else {
            let mut got = [0u8; 8];
            s.pvm
                .vm_read(ctx, va, &mut got)
                .unwrap_or_else(|e| panic!("seed {seed} read {i}: {e}"));
            assert_eq!(got, mirror[at..at + 8], "seed {seed} access {i}");
        }
        costs.push(model.now().nanos() - t0);
    }
    costs
}

#[test]
fn no_access_pays_for_more_than_one_mapper_round_trip() {
    const PAGES: u64 = 192;
    let s = stack_costed(
        64,
        CostParams::sun3(),
        FaultPlan::quiet(0),
        FaultPlan::quiet(0),
        |c| c.check_invariants = false,
    );
    let (ctx, cache) = map_file(&s, 0x16, PAGES, 0, Prot::RW);
    let mut mirror = file_bytes(0x16, PAGES);
    let costs = scan(&s, ctx, 0, &mut mirror, 6 * PAGES, 1989);
    let cost = CostParams::sun3();
    let bound = cost.get(OpKind::IpcOp)
        // One IPC message of pages, the widest window a stream pulls.
        + chorus_pvm::PvmConfig::default().push_cluster_pages
            * (cost.get(OpKind::SegmentIoPage) + cost.get(OpKind::BzeroPage))
        + 5_000_000;
    // The first pass fills the pool and meets no light entry worth the
    // name; from the second on the write-behind queue is being drained.
    let (worst_at, worst) = costs
        .iter()
        .copied()
        .enumerate()
        .skip(2 * PAGES as usize)
        .max_by_key(|&(_, c)| c)
        .unwrap();
    assert!(
        worst <= bound,
        "access {worst_at} cost {worst} ns of simulated time, bound {bound}"
    );
    let stats = s.pvm.stats();
    assert!(stats.write_behind_pushes > 0, "{stats:?}");
    assert!(stats.readahead_pages * 2 > stats.pull_ins, "{stats:?}");
    s.pvm.cache_sync(cache, 0, PAGES * PS).unwrap();
    s.pvm.check_invariants();
}

#[test]
fn the_page_a_push_cleaned_is_the_next_one_evicted() {
    // A pool full of dirty pages no two of which are adjacent (so every
    // push is one page), all unreferenced once the first sweep has been
    // round. The first allocation fills the write-behind queue and
    // launders inline; no light entry follows, so every later one
    // launders inline as well. Each must get by on that one push: the
    // retry takes the page just cleaned, not the hand's next (dirty)
    // candidate.
    let s = quiet(16);
    let base = 0x10_0000;
    let (ctx, _) = map_anon(&s, 128, base);
    for k in 0..16 {
        write_page(&s, ctx, base, 2 * k, &page_bytes(0x21, 2 * k));
    }
    s.pvm.tracer().drain();
    for k in 16..40 {
        let before = s.pvm.stats();
        write_page(&s, ctx, base, 2 * k, &page_bytes(0x21, 2 * k));
        let after = s.pvm.stats();
        assert_eq!(
            after.push_out_batches - before.push_out_batches,
            1,
            "page {}: one vm_access, one pushOut",
            2 * k
        );
        let records = s.pvm.tracer().drain();
        let pushed = records.iter().find_map(|r| match r.event {
            TraceEvent::UpcallStart {
                kind: UpcallKind::PushOut,
                offset,
                ..
            } => Some(offset),
            _ => None,
        });
        let evicted: Vec<u64> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Eviction { offset, .. } => Some(offset),
                _ => None,
            })
            .collect();
        assert_eq!(evicted, [pushed.unwrap()], "page {}", 2 * k);
    }
    assert_eq!(s.pvm.stats().demand_pushes, 24);
    for k in 0..40 {
        assert_eq!(read_page(&s, ctx, base, 2 * k), page_bytes(0x21, 2 * k));
    }
}

// ----- the write-behind queue ----------------------------------------------

/// An anonymous region whose 16 even pages fill a 17-frame pool dirty
/// (the odd frame holds `light`'s pinned page), plus one more write: its
/// allocation sets pages 0, 2, .. 14 aside and launders page 16 inline.
struct Queued {
    s: FaultStack,
    ctx: CtxId,
    cache: CacheId,
    /// A pinned resident page of another cache: reading it is a driver
    /// entry that completes at once.
    pinned: CacheId,
}

const QBASE: u64 = 0x10_0000;

fn queued(swap_plan: FaultPlan) -> Queued {
    let s = stack(17, FaultPlan::quiet(0), FaultPlan::quiet(1), |c| {
        c.retry = RetryPolicy::no_retry();
    });
    let pinned = s.pvm.cache_create(None).unwrap();
    s.pvm.cache_write(pinned, 0, b"pinned").unwrap();
    s.pvm.cache_lock_in_memory(pinned, 0, PS).unwrap();
    let (ctx, cache) = map_anon(&s, 128, QBASE);
    for k in 0..17 {
        write_page(&s, ctx, QBASE, 2 * k, &page_bytes(0x31, 2 * k));
    }
    let stats = s.pvm.stats();
    assert_eq!((stats.demand_pushes, stats.write_behind_pushes), (1, 0));
    s.faulty_swap.set_plan(swap_plan);
    s.upcalls(UpcallKind::PushOut);
    Queued {
        s,
        ctx,
        cache,
        pinned,
    }
}

impl Queued {
    /// A light driver entry; returns the pages of the pushes it issued.
    fn light(&self) -> Vec<(u64, u64)> {
        let mut buf = [0u8; 6];
        self.s.pvm.cache_read(self.pinned, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"pinned");
        self.s.upcalls(UpcallKind::PushOut)
    }
}

#[test]
fn a_light_entry_launders_one_queued_run_and_a_stale_key_is_dropped() {
    let q = queued(FaultPlan::quiet(1));
    let (s, pvm) = (&q.s, &q.s.pvm);
    // Submitted on the light entry, collected at the next one: page 0
    // is `cleaning` in between.
    let cleaned = pvm.stats().push_outs;
    assert_eq!(q.light(), [(0, 1)], "oldest first, one run per entry");
    assert_eq!(pvm.stats().push_outs, cleaned, "still in flight");
    assert_eq!(q.light(), [(2, 1)]);
    assert_eq!(pvm.stats().push_outs, cleaned + 1, "page 0 delivered");

    // Freed: the invalidate is itself a light entry; page 4 is gone by
    // the time the queue is looked at, so page 6 goes out.
    pvm.cache_invalidate(q.cache, 4 * PS, PS).unwrap();
    assert_eq!(s.upcalls(UpcallKind::PushOut), [(6, 1)]);

    // Referenced again (mapped through a second context): page 8 is no
    // longer a victim, so it is dropped and page 10 goes out.
    let other = pvm.context_create().unwrap();
    pvm.region_create(other, VirtAddr(0), 64 * PS, Prot::RW, q.cache, 0)
        .unwrap();
    let mut buf = vec![0u8; PS as usize];
    pvm.vm_read(other, VirtAddr(8 * PS), &mut buf).unwrap();
    assert_eq!(buf, page_bytes(0x31, 8));
    assert_eq!(s.upcalls(UpcallKind::PushOut), [(10, 1)]);

    // Pinned: page 12 is dropped, page 14 goes out, the queue is empty.
    pvm.cache_lock_in_memory(q.cache, 12 * PS, PS).unwrap();
    assert_eq!(s.upcalls(UpcallKind::PushOut), [(14, 1)]);
    assert_eq!(q.light(), []);
    pvm.cache_unlock(q.cache, 12 * PS, PS).unwrap();

    let stats = pvm.stats();
    assert_eq!((stats.write_behind_pushes, stats.demand_pushes), (5, 1));
    // Nothing was lost: the dropped pages are still dirty in memory, the
    // pushed ones come back from swap.
    for k in 0..17 {
        let want = if k == 2 {
            vec![0u8; PS as usize]
        } else {
            page_bytes(0x31, 2 * k)
        };
        assert_eq!(read_page(s, q.ctx, QBASE, 2 * k), want, "page {}", 2 * k);
    }
    pvm.check_invariants();
}

#[test]
fn a_light_entry_leaves_a_mappers_last_slot_to_the_next_faulter() {
    // As `queued`, on costs that keep a push in flight for 11 ms.
    let s = stack_costed(
        17,
        slow_pages(),
        FaultPlan::quiet(0),
        FaultPlan::quiet(1),
        |c| c.retry = RetryPolicy::no_retry(),
    );
    let pinned = s.pvm.cache_create(None).unwrap();
    s.pvm.cache_write(pinned, 0, b"pinned").unwrap();
    s.pvm.cache_lock_in_memory(pinned, 0, PS).unwrap();
    let (ctx, _) = map_anon(&s, 128, QBASE);
    for k in 0..17 {
        write_page(&s, ctx, QBASE, 2 * k, &page_bytes(0x32, 2 * k));
    }
    let evicted = s.upcalls(UpcallKind::PushOut);
    assert_eq!(evicted.len(), 1, "laundered inline, then evicted");
    let light = || {
        s.pvm.cache_read(pinned, 0, &mut [0u8; 6]).unwrap();
        s.upcalls(UpcallKind::PushOut)
    };
    let now = || s.pvm.cost_model().now().nanos();
    let t = now();
    assert_eq!([light(), light(), light()], [[(0, 1)], [(2, 1)], [(4, 1)]]);
    assert_eq!(s.pvm.sample_now().inflight_upcalls, 3);
    // The fourth slot is a faulter's: page 6 keeps the head of the
    // queue, and nothing is pushed synchronously either.
    let before = s.pvm.stats();
    assert_eq!([light(), light()], [[], []]);
    let after = s.pvm.stats();
    let unlocked = |stats| PvmStats {
        state_lock_acqs: 0,
        ..stats
    };
    assert_eq!(unlocked(after), unlocked(before), "not a counter moved");
    assert_eq!(now(), t, "no light entry waited for anything");
    // The page that was evicted is pulled back the instant it is
    // missed (the pushes that make room for it come after the submit).
    pull_submits(&s);
    read_page(&s, ctx, QBASE, evicted[0].0);
    assert_eq!(pull_submits(&s), [(evicted[0].0, t)]);
    // Delivered, the pushes give their slots back and page 6 goes out.
    s.pvm.drain_upcalls();
    assert_eq!(light(), [(6, 1)]);
    let stats = s.pvm.stats();
    assert_eq!(stats.write_behind_pushes, 4);
    for k in 0..17 {
        assert_eq!(read_page(&s, ctx, QBASE, 2 * k), page_bytes(0x32, 2 * k));
    }
    s.pvm.check_invariants();
}

#[test]
fn a_failed_write_behind_push_is_swallowed_and_the_page_stays_dirty() {
    let q = queued(FaultPlan::transient(1, 1000));
    let pvm = &q.s.pvm;
    let before = pvm.stats();
    assert_eq!(q.light(), [(0, 1)], "issued; the mapper refuses it");
    // The refusal is collected, and swallowed, at the next entry.
    assert_eq!(q.light(), [(2, 1)]);
    let after = pvm.stats();
    assert_eq!(after.async_deliveries + 1, after.async_submits);
    assert_eq!(after.push_outs, before.push_outs, "nothing was cleaned");
    assert_eq!(after.quarantined_caches, 0);
    q.s.faulty_swap.set_plan(FaultPlan::quiet(1));
    // The page left the queue dirty; pressure finds it again.
    for k in 17..40 {
        write_page(&q.s, q.ctx, QBASE, 2 * k, &page_bytes(0x31, 2 * k));
        q.light();
    }
    for k in 0..40 {
        assert_eq!(
            read_page(&q.s, q.ctx, QBASE, 2 * k),
            page_bytes(0x31, 2 * k)
        );
    }
    pvm.check_invariants();
}

#[test]
fn quarantine_and_destruction_empty_the_queue_without_a_push() {
    // The mapper dies for good under the first write-behind push: the
    // cache is quarantined and its other queued pages are dropped.
    let q = queued(FaultPlan {
        permanent_per_mille: 1000,
        ..FaultPlan::quiet(1)
    });
    assert_eq!(q.light(), [(0, 1)]);
    // The failure is collected at the next entry, and quarantines there.
    assert_eq!(q.s.pvm.stats().quarantined_caches, 0, "still in flight");
    assert_eq!(q.light(), []);
    assert_eq!(q.s.pvm.stats().quarantined_caches, 1);
    for _ in 0..8 {
        assert_eq!(
            q.light(),
            [],
            "a quarantined cache's pages cannot be pushed"
        );
    }
    q.s.pvm.check_invariants();

    // The cache goes away with seven of its pages still queued.
    let q = queued(FaultPlan::quiet(1));
    assert_eq!(q.light(), [(0, 1)]);
    let region = q.s.pvm.find_region(q.ctx, VirtAddr(QBASE)).unwrap();
    q.s.pvm.region_destroy(region).unwrap();
    q.s.pvm.cache_destroy(q.cache).unwrap();
    q.s.upcalls(UpcallKind::PushOut);
    for _ in 0..8 {
        assert_eq!(q.light(), [], "no stale key is laundered");
    }
    assert_eq!(q.s.pvm.stats().write_behind_pushes, 1);
    q.s.pvm.check_invariants();
}

/// Every mapper operation the trace shows since the last drain: each
/// upcall start on a quiet mapper is one.
fn mapper_ops(s: &FaultStack) -> u64 {
    let records = s.pvm.tracer().drain();
    let start =
        |r: &&chorus_pvm::trace::TraceRecord| matches!(r.event, TraceEvent::UpcallStart { .. });
    records.iter().filter(start).count() as u64
}

#[test]
fn a_failed_write_behind_batch_splits_at_once_and_loses_no_page() {
    // As `queued`, with the pages in pairs: the queue holds four of
    // them, so a light entry launders a 2-page batch, and the swap
    // mapper drops exactly that push. The batch is split on the spot:
    // each page goes out again as its own request, and is clean once
    // that one is collected.
    let s = stack(17, FaultPlan::quiet(0), FaultPlan::quiet(1), |_| {});
    let pinned = s.pvm.cache_create(None).unwrap();
    s.pvm.cache_write(pinned, 0, b"pinned").unwrap();
    s.pvm.cache_lock_in_memory(pinned, 0, PS).unwrap();
    let (ctx, _) = map_anon(&s, 128, QBASE);
    let pages: Vec<u64> = (0..9).flat_map(|k| [3 * k, 3 * k + 1]).collect();
    for &p in &pages[..17] {
        write_page(&s, ctx, QBASE, p, &page_bytes(0x35, p));
    }
    let crash = FaultPlan {
        crash_at_op: Some(mapper_ops(&s)),
        ..FaultPlan::quiet(1)
    };
    s.faulty_swap.set_plan(crash);
    let before = s.pvm.stats();
    s.pvm.cache_read(pinned, 0, &mut [0u8; 6]).unwrap();
    assert_eq!(s.upcalls(UpcallKind::PushOut), [(0, 2), (0, 1), (1, 1)]);
    let after = s.pvm.stats();
    assert_eq!(after.write_behind_pushes, before.write_behind_pushes + 1);
    assert_eq!(after.push_batch_splits, before.push_batch_splits + 1);
    // The batch is settled; its pages' own pushes are in flight.
    assert_eq!(after.async_submits, before.async_submits + 3);
    assert_eq!(after.async_deliveries, before.async_deliveries + 1);
    assert_eq!(after.push_outs, before.push_outs);
    s.pvm.drain_upcalls();
    assert_eq!(s.pvm.stats().push_outs, before.push_outs + 2);
    for &p in &pages[..17] {
        assert_eq!(
            read_page(&s, ctx, QBASE, p),
            page_bytes(0x35, p),
            "page {p}"
        );
    }
    s.pvm.check_invariants();
}

#[test]
fn a_sync_against_a_hung_mapper_times_out_and_its_pages_stay_dirty() {
    // The file mapper wedges under a `cache_sync`: the batch and each
    // page it splits into time out under the retry policy's deadline,
    // and the sync fails with the timeout at once, the clock nowhere
    // near the hung-reply horizon (one simulated hour). Nothing was
    // cleaned; once the mapper is back the same sync writes every page.
    let s = quiet(16);
    let (ctx, cache) = map_file(&s, 0x51, 4, 0, Prot::RW);
    for p in 0..4 {
        write_page(&s, ctx, 0, p, &page_bytes(0x52, p));
    }
    s.pvm.drain_upcalls();
    s.faulty_files.set_plan(FaultPlan {
        hang_at_op: Some(0),
        ..FaultPlan::quiet(0)
    });
    let now = || s.pvm.cost_model().now().nanos();
    let (t, before) = (now(), s.pvm.stats());
    let err = s.pvm.cache_sync(cache, 0, 4 * PS).unwrap_err();
    assert!(
        matches!(err, chorus_gmi::GmiError::MapperTimeout { .. }),
        "{err}"
    );
    assert!(now() - t < 1_000_000_000, "waited {} ns", now() - t);
    let after = s.pvm.stats();
    assert_eq!(after.push_outs, before.push_outs, "nothing was cleaned");
    assert!(after.mapper_timeouts > before.mapper_timeouts);
    assert_eq!(after.watchdog_cancels, 0);
    assert_eq!(
        after.async_deliveries, after.async_submits,
        "none in flight"
    );

    s.faulty_files.set_plan(FaultPlan::quiet(0));
    s.pvm.cache_sync(cache, 0, 4 * PS).unwrap();
    assert_eq!(s.pvm.stats().push_outs, before.push_outs + 4);
    s.pvm.cache_invalidate(cache, 0, 4 * PS).unwrap();
    for p in 0..4 {
        assert_eq!(read_page(&s, ctx, 0, p), page_bytes(0x52, p), "page {p}");
    }
    s.pvm.check_invariants();
}

// ----- stale deliveries ----------------------------------------------------

#[test]
fn a_late_duplicate_delivery_does_not_overwrite_a_laundered_write() {
    let s = quiet(16);
    let (ctx, cache) = map_file(&s, 0x41, 4, 0, Prot::RW);
    let old = read_page(&s, ctx, 0, 1);
    let new = page_bytes(0x99, 1);
    write_page(&s, ctx, 0, 1, &new);
    s.pvm.cache_sync(cache, PS, PS).unwrap();
    // The mapper's reply to a pull it served before the write arrives
    // (again): the page is resident and clean, and newer than this.
    s.pvm.fill_up(cache, PS, &old).unwrap();
    assert_eq!(read_page(&s, ctx, 0, 1), new);
    s.pvm.check_invariants();
}

// ----- two threads ---------------------------------------------------------

#[test]
fn two_scanners_share_a_pool_without_an_error_or_a_wrong_byte() {
    const PAGES: u64 = 96;
    const OPS: u64 = 100_000;
    let s = Arc::new(stack(64, FaultPlan::quiet(0), FaultPlan::quiet(0), |c| {
        c.check_invariants = false;
    }));
    let barrier = Arc::new(Barrier::new(2));
    let scanners: Vec<_> = (0..2u64)
        .map(|t| {
            let base = t * 0x100_0000;
            let (ctx, cache) = map_file(&s, 0x50 + t as u8, PAGES, base, Prot::RW);
            let (s, barrier) = (s.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut mirror = file_bytes(0x50 + t as u8, PAGES);
                barrier.wait();
                scan(&s, ctx, base, &mut mirror, OPS, 7 + t);
                (cache, mirror)
            })
        })
        .collect();
    for h in scanners {
        let (cache, mirror) = h.join().unwrap();
        let mut got = vec![0u8; mirror.len()];
        s.pvm.cache_read(cache, 0, &mut got).unwrap();
        assert!(got == mirror, "final contents diverged");
    }
    let stats = s.pvm.stats();
    assert!(stats.evictions > OPS / 4, "the pool never thrashed");
    assert!(stats.readahead_pages > 0 && stats.write_behind_pushes > 0);
    s.pvm.check_invariants();
}
