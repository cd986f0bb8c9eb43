//! Dimensional-telemetry consistency: the gauges must equal the ground
//! truth the HAL and the completion engine report, and every counter
//! that names its cache, context or mapper must have rows that sum to
//! its global cell.

mod common;

use chorus_gmi::testing::MemSegmentManager;
use chorus_gmi::{
    CacheId, CacheIo, Gmi, GmiError, Prot, PullRequest, PushRequest, Result, SegmentId,
    SegmentManagerV2, UpcallRequest, VirtAddr,
};
use chorus_hal::{CostParams, PageGeometry};
use chorus_pvm::telemetry::Dim;
use chorus_pvm::{Counter, Pvm, PvmConfig, PvmOptions, SlotDump};
use common::{pattern, read, setup_with, write, PS};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// A PVM with a real (Sun-3) cost model so the sim-time sampler has a
/// clock to ride.
fn telemetry_pvm(frames: u32) -> Arc<Pvm> {
    let (pvm, _mgr) = setup_with(frames, |o| o.cost = CostParams::sun3());
    pvm
}

/// Touch `pages` pages of a fresh anonymous region; returns the ids.
fn touch_region(pvm: &Pvm, base: u64, pages: u64) -> (chorus_gmi::CtxId, chorus_gmi::CacheId) {
    let ctx = pvm.context_create().unwrap();
    let cache = pvm.cache_create(None).unwrap();
    pvm.region_create(ctx, VirtAddr(base), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    for p in 0..pages {
        write(pvm, ctx, base + p * PS, &pattern(p as u8, 16));
    }
    (ctx, cache)
}

#[test]
fn free_frame_gauge_matches_hal_mem_stats() {
    let frames = 16u32;
    let pvm = telemetry_pvm(frames);
    touch_region(&pvm, 0x1_0000, 6);
    let sample = pvm.sample_now();
    let mem = pvm.mem_stats();
    assert_eq!(
        u64::from(sample.free_frames),
        u64::from(frames) - mem.in_use,
        "free-frame gauge vs hal MemStats"
    );
    assert_eq!(sample.free_frames, pvm.free_frames());
}

/// The in-memory manager, plus what a mapper does wrong: it states its
/// file's length (so the file's cache keeps streams and reads ahead),
/// fails the next `transient` requests with a transient error, and
/// answers every request with a timeout while `hang` is set.
struct Flaky {
    inner: MemSegmentManager,
    file: SegmentId,
    len: u64,
    transient: AtomicU32,
    hang: AtomicBool,
}

impl Flaky {
    fn inject(&self, segment: SegmentId) -> Result<()> {
        if self.hang.load(Ordering::SeqCst) {
            return Err(GmiError::MapperTimeout { segment });
        }
        let take = |n: u32| n.checked_sub(1);
        if self
            .transient
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take)
            .is_ok()
        {
            return Err(GmiError::transient_io(segment, "injected"));
        }
        Ok(())
    }

    /// The last `pushOut` the manager served, as (offset, size).
    fn last_push(&self) -> Option<(u64, u64)> {
        self.inner
            .take_requests()
            .iter()
            .rev()
            .find_map(|r| match r {
                UpcallRequest::Push(p) => Some((p.offset, p.size)),
                UpcallRequest::Pull(_) => None,
            })
    }
}

impl SegmentManagerV2 for Flaky {
    fn submit_pull(&self, io: &dyn CacheIo, req: &PullRequest) -> Result<()> {
        self.inject(req.segment)?;
        self.inner.submit_pull(io, req)
    }
    fn submit_push(&self, io: &dyn CacheIo, req: &PushRequest) -> Result<()> {
        self.inject(req.segment)?;
        self.inner.submit_push(io, req)
    }
    fn acquire_write_access(&self, segment: SegmentId, offset: u64, size: u64) -> Result<()> {
        self.inner.acquire_write_access(segment, offset, size)
    }
    fn create_segment_v2(&self, cache: CacheId) -> SegmentId {
        self.inner.create_segment_v2(cache)
    }
    fn segment_len(&self, segment: SegmentId) -> Option<u64> {
        (segment == self.file).then_some(self.len)
    }
}

/// Every dimension's rows of every counter that declares it, against
/// the global cell. Faults that resolved no region are counted at their
/// context only, so the cache rows of `faults` may fall short by those.
fn assert_rows_sum_to_global(pvm: &Pvm, unresolved_faults: u64) {
    let stats = pvm.stats();
    let telemetry = pvm.telemetry();
    for &c in Counter::ALL {
        for &d in c.dims() {
            let short = if (c, d) == (Counter::Faults, Dim::Cache) {
                unresolved_faults
            } else {
                0
            };
            assert_eq!(
                telemetry.sum(d, c) + short,
                stats.get(c),
                "{} rows of {} vs the global cell",
                d.label(),
                c.label()
            );
        }
    }
}

#[test]
fn per_entity_counters_sum_to_global() {
    const FRAMES: u32 = 32;
    const PAGES: u64 = 96;
    let inner = MemSegmentManager::new();
    let file = inner.create_segment(&pattern(3, (PAGES * PS) as usize));
    let mgr = Arc::new(Flaky {
        inner,
        file,
        len: PAGES * PS,
        transient: AtomicU32::new(0),
        hang: AtomicBool::new(false),
    });
    let pvm = Pvm::new(
        PvmOptions {
            geometry: PageGeometry::new(PS),
            frames: FRAMES,
            cost: CostParams::sun3(),
            config: PvmConfig::builder()
                .paging(|p| p.check_invariants(true))
                .build()
                .expect("valid config"),
            ..PvmOptions::default()
        },
        mgr.clone(),
    );
    let cache = pvm.cache_create(Some(file)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), PAGES * PS, Prot::RW, cache, 0)
        .unwrap();

    // A sequential read three times the pool: pulls widened by the
    // stream, read ahead of the reader, evicted by the clock.
    for p in 0..PAGES {
        read(&pvm, ctx, p * PS, 8);
    }
    // A stream given up: what it read ahead is evicted unread.
    for p in (0..16).chain((48..PAGES).rev()) {
        read(&pvm, ctx, p * PS, 8);
    }
    // A pull that fails twice before the mapper serves it.
    mgr.transient.store(2, Ordering::SeqCst);
    read(&pvm, ctx, 0, 8);
    // A write sweep: dirty victims go to the write-behind queue and,
    // when it is full, are pushed by the allocation that met them.
    for p in 0..PAGES {
        write(&pvm, ctx, p * PS, &[p as u8; 8]);
    }
    // An explicit sync pushes whatever is still dirty.
    pvm.cache_sync(cache, 0, PAGES * PS).unwrap();
    // A hung mapper: the pull is cancelled by the watchdog, the sync
    // push times out.
    mgr.hang.store(true, Ordering::SeqCst);
    let dump = pvm.dump_caches();
    let resident: Vec<u64> = dump
        .cache(cache)
        .unwrap()
        .slots
        .iter()
        .filter(|(_, s)| matches!(s, SlotDump::Page { .. }))
        .map(|&(off, _)| off)
        .collect();
    let absent = (0..PAGES)
        .map(|p| p * PS)
        .find(|off| !resident.contains(off))
        .expect("a page the pool does not hold");
    let err = pvm.vm_read(ctx, VirtAddr(absent), &mut [0u8; 1]);
    assert!(
        matches!(err, Err(GmiError::MapperTimeout { .. })),
        "{err:?}"
    );
    write(&pvm, ctx, resident[0], &[0xEE; 8]);
    let err = pvm.cache_sync(cache, resident[0], PS);
    assert!(
        matches!(err, Err(GmiError::MapperTimeout { .. })),
        "{err:?}"
    );
    mgr.hang.store(false, Ordering::SeqCst);
    // A fault outside every region: counted at its context only.
    assert!(pvm.vm_read(ctx, VirtAddr(1 << 40), &mut [0u8; 1]).is_err());
    let unresolved = 1;
    pvm.drain_upcalls();

    let stats = pvm.stats();
    for &c in Counter::ALL.iter().filter(|c| !c.dims().is_empty()) {
        assert!(stats.get(c) > 0, "the scenario never counted {}", c.label());
    }
    assert_rows_sum_to_global(&pvm, unresolved);

    // A page that dies while its push is out: write-behind sends a run
    // fire-and-collect, and an invalidate frees its pages before the
    // completion delivers. Nothing of that run was pushed out.
    let mut in_flight = None;
    for p in 0..PAGES {
        let before = pvm.stats();
        write(&pvm, ctx, p * PS, &[!(p as u8); 8]);
        let after = pvm.stats();
        let submits = after.async_submits - after.async_deliveries;
        if after.write_behind_pushes > before.write_behind_pushes && submits > 0 {
            in_flight = mgr.last_push();
            break;
        }
    }
    let (offset, size) = in_flight.expect("a write-behind push in flight");
    let before = pvm.stats();
    pvm.cache_invalidate(cache, offset, size).unwrap();
    pvm.drain_upcalls();
    let after = pvm.stats();
    assert_eq!(
        after.push_out_batches,
        before.push_out_batches + 1,
        "the push delivered after its pages died"
    );
    assert_eq!(
        after.push_outs, before.push_outs,
        "a page that died while its push was out is not pushed out"
    );
    assert_rows_sum_to_global(&pvm, unresolved);
    pvm.check_invariants();
}

#[test]
fn inflight_gauge_matches_completion_table() {
    let (pvm, mgr) = setup_with(8, |o| {
        o.cost = CostParams::sun3();
        o.config = PvmConfig::builder()
            .paging(|p| p.check_invariants(true).pull_cluster_pages(4))
            .build()
            .expect("valid config");
    });
    let pages = 24u64;
    let content = pattern(7, (pages * PS) as usize);
    let seg = mgr.create_segment(&content);
    let cache = pvm.cache_create(Some(seg)).unwrap();
    let ctx = pvm.context_create().unwrap();
    pvm.region_create(ctx, VirtAddr(0), pages * PS, Prot::RW, cache, 0)
        .unwrap();
    // Sweep under pressure: pulls and laundering pushes ride the
    // engine. With no watchdog cancels, the in-flight gauge must equal
    // submits minus deliveries at every client-visible instant.
    for p in 0..pages {
        let _ = read(&pvm, ctx, p * PS, 16);
        let s = pvm.stats();
        assert_eq!(
            pvm.sample_now().inflight_upcalls,
            s.async_submits - s.async_deliveries,
            "in-flight gauge vs completion-table population at page {p}"
        );
    }
    pvm.drain_upcalls();
    let s = pvm.stats();
    assert!(s.async_submits > 0, "engine never engaged");
    assert_eq!(s.async_submits, s.async_deliveries, "drained");
    assert_eq!(pvm.sample_now().inflight_upcalls, 0);
}

#[test]
fn sampler_rides_the_simulated_clock() {
    let pvm = telemetry_pvm(64);
    touch_region(&pvm, 0x1_0000, 24);
    let series = pvm.telemetry_series();
    assert!(series.len() > 1, "sampler never fired");
    for w in series.windows(2) {
        assert!(
            w[0].sim_ns < w[1].sim_ns,
            "series must be strictly increasing"
        );
        assert!(
            w[1].sim_ns / 1_000_000 > w[0].sim_ns / 1_000_000,
            "at most one sample per millisecond of simulated time"
        );
    }
}

#[test]
fn pvmtop_ranks_the_hot_cache_first() {
    let pvm = telemetry_pvm(64);
    let (_, hot) = touch_region(&pvm, 0x1_0000, 14);
    let (_, cold) = touch_region(&pvm, 0x80_0000, 2);
    let top = pvm.top();
    let hottest = top.hottest_cache().expect("caches exist");
    assert_eq!(hottest.cache, hot, "hottest cache must rank first");
    assert!(hottest.faults > 0 && hottest.resident_pages > 0);
    let cold_row = top.caches.iter().find(|c| c.cache == cold).unwrap();
    assert!(hottest.faults > cold_row.faults);
    assert!(hottest.dirty_pages >= cold_row.dirty_pages);
    // Anonymous caches have no segment yet, so no mapper rows; the
    // phase table is present and the gauge sample is coherent.
    assert_eq!(top.sample.sim_ns, top.sim_ns);
    assert!(top.sample.gmap_slots > 0);
    assert!(top.state_lock_acqs > 0);
}

#[test]
fn reset_clears_dimensions_and_series() {
    let pvm = telemetry_pvm(32);
    touch_region(&pvm, 0x1_0000, 8);
    assert!(!pvm.telemetry().table(Dim::Cache).is_empty());
    assert!(!pvm.telemetry_series().is_empty());
    pvm.reset_stats();
    assert_eq!(pvm.stats().faults, 0);
    assert!(pvm.telemetry_series().is_empty());
    for &d in Dim::ALL {
        assert!(
            pvm.telemetry().table(d).is_empty(),
            "{d:?} rows after reset"
        );
    }
    // The sampler re-arms from zero: more work records fresh samples.
    touch_region(&pvm, 0x100_0000, 8);
    assert!(!pvm.telemetry_series().is_empty());
}
