//! The public [`Pvm`] type: locking, the blocked-action driver, and the
//! [`Gmi`] trait implementation.
//!
//! Locking discipline: all state lives behind one mutex. Attempts run
//! under the lock and never sleep; when an attempt must wait (a page in
//! transit) or perform an upcall (`pullIn`, `pushOut`, `segmentCreate`,
//! `getWriteAccess`), it returns a [`Blocked`] action which the driver
//! performs with the lock *released*, then retries the attempt. This is
//! exactly the paper's synchronization-page-stub protocol (§4.1.2):
//! concurrent accesses to an in-transit fragment sleep until the transfer
//! completes.

use crate::config::PvmConfig;
use crate::descriptors::Slot;
use crate::domains::DomainLock;
use crate::engine::Parked;
use crate::keys::{cache_key, ctx_key, pub_cache, pub_ctx, pub_region, region_key};
use crate::pvmtop::PvmTop;
use crate::state::{Attempt, Blocked, Outcome, PushOrigin, PvmState};
use crate::stats::{Counter, PvmStats, StatsRegistry};
use crate::telemetry::{DimCounter, Telemetry, TelemetrySample};
use crate::trace::{Phase, Resolution, TraceEvent, Tracer, UpcallKind, UpcallOutcome};
use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, PullRequest,
    PushRequest, RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{CostModel, CostParams, Mmu, PhysicalMemory, SoftMmu, TwoLevelMmu};
use parking_lot::Condvar;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which MMU back-end to instantiate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MmuChoice {
    /// Hash-table page tables (Sun-3-like).
    #[default]
    Soft,
    /// Explicit two-level page tables (PMMU/i386-like).
    TwoLevel,
}

/// Construction options for a [`Pvm`].
#[derive(Clone, Debug)]
pub struct PvmOptions {
    /// Page geometry (defaults to the paper's 8 KB pages).
    pub geometry: PageGeometry,
    /// Number of physical page frames to simulate.
    pub frames: u32,
    /// Per-operation simulated costs.
    pub cost: CostParams,
    /// MMU back-end.
    pub mmu: MmuChoice,
    /// PVM tunables.
    pub config: PvmConfig,
}

impl Default for PvmOptions {
    fn default() -> PvmOptions {
        PvmOptions {
            geometry: PageGeometry::sun3(),
            frames: 1024,
            cost: CostParams::zero(),
            mmu: MmuChoice::Soft,
            config: PvmConfig::default(),
        }
    }
}

/// The Paged Virtual memory Manager.
pub struct Pvm {
    /// The state lock: the PVM's one mutex, in a counting wrapper.
    state: DomainLock<PvmState>,
    stub_cv: Condvar,
    seg_mgr: Arc<dyn SegmentManagerV2>,
    model: Arc<CostModel>,
    /// Page geometry, copied out so `geometry()` never takes the lock.
    geom: PageGeometry,
    /// The counter registry, shared with the state; snapshots never
    /// take the lock.
    stats: Arc<StatsRegistry>,
    /// The event tracer (see [`crate::trace`]), shared with the state.
    trace: Arc<Tracer>,
    /// The dimensional telemetry registry (see [`crate::telemetry`]),
    /// shared with the state; table reads never take the state lock.
    telemetry: Arc<Telemetry>,
    /// Reentrancy guard for the write-behind drain: a laundering push
    /// that re-enters the driver (e.g. a mapper calling back into the
    /// GMI) must not start a second one.
    laundering: AtomicBool,
}

impl Pvm {
    /// Creates a PVM over a segment manager
    /// ([`chorus_gmi::SegmentManagerV2`]), whose upcalls the completion
    /// engine submits and delivers.
    pub fn new(options: PvmOptions, seg_mgr: Arc<dyn SegmentManagerV2>) -> Pvm {
        let model = Arc::new(CostModel::new(options.cost.clone()));
        let geometry = options.geometry;
        let phys = PhysicalMemory::new(geometry, options.frames, model.clone());
        let mmu: Box<dyn Mmu> = match options.mmu {
            MmuChoice::Soft => Box::new(SoftMmu::new(geometry, model.clone())),
            MmuChoice::TwoLevel => Box::new(TwoLevelMmu::new(geometry, model.clone())),
        };
        let state = PvmState::new(geometry, phys, mmu, model.clone(), options.config);
        let stats = state.stats.clone();
        let trace = state.trace.clone();
        let telemetry = state.telemetry.clone();
        Pvm {
            state: DomainLock::new(state, stats.clone()),
            stub_cv: Condvar::new(),
            seg_mgr,
            model,
            geom: geometry,
            stats,
            trace,
            telemetry,
            laundering: AtomicBool::new(false),
        }
    }

    /// The shared cost model (simulated clock + operation counts).
    pub fn cost_model(&self) -> Arc<CostModel> {
        self.model.clone()
    }

    /// Snapshot of the PVM event counters. Every counter lives in one
    /// atomic registry, so this never takes the state lock.
    pub fn stats(&self) -> PvmStats {
        self.stats.snapshot()
    }

    /// The live counter registry shared by every counting site.
    pub fn stats_registry(&self) -> Arc<StatsRegistry> {
        self.stats.clone()
    }

    /// The event tracer (disabled unless `PvmConfig::trace` enables it).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.trace.clone()
    }

    /// The dimensional telemetry registry (inert unless
    /// `PvmConfig::telemetry` enables it). Table reads never take the
    /// state lock.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// Copies out the recorded sim-time gauge series, oldest first
    /// (empty unless `PvmConfig::telemetry` is on).
    pub fn telemetry_series(&self) -> Vec<TelemetrySample> {
        self.state.lock().series.samples()
    }

    /// Takes a gauge sample of the live state right now (not appended
    /// to the series; works with telemetry off).
    pub fn sample_now(&self) -> TelemetrySample {
        self.state.lock().live_sample()
    }

    /// The `pvmtop` introspection snapshot: top caches by fault/dirty
    /// heat, per-mapper health, per-phase latency percentiles, and the
    /// live gauges — one consistent picture under one lock acquisition.
    pub fn top(&self) -> PvmTop {
        crate::pvmtop::snapshot(&self.state.lock())
    }

    /// Resets the PVM event counters, the tracer's rings and
    /// histograms, and the telemetry tables and gauge series (the cost
    /// model has its own reset).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.trace.reset();
        self.telemetry.reset();
        let mut guard = self.state.lock();
        guard.series.clear();
        guard.next_sample_ns = 0;
    }

    /// Number of live cache descriptors (including zombies and working
    /// objects) — used by tests and the ablation benches.
    pub fn cache_count(&self) -> usize {
        self.state.lock().caches.len()
    }

    /// Number of resident pages across all caches.
    pub fn resident_page_count(&self) -> usize {
        self.state.lock().pages.len()
    }

    /// Faulters whose pull is in flight (open `demand_pulls` mailboxes):
    /// 0 whenever no operation is running.
    pub fn waiting_faulters(&self) -> usize {
        self.state.lock().demand_pulls.len()
    }

    /// Number of free physical frames.
    pub fn free_frames(&self) -> u32 {
        self.state.lock().phys.free_frames()
    }

    /// Physical memory statistics.
    pub fn mem_stats(&self) -> chorus_hal::MemStats {
        self.state.lock().phys.stats()
    }

    /// Runs the structural invariant checker (also run automatically when
    /// `PvmConfig::check_invariants` is set).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        self.state.lock().check_invariants();
    }

    // ----- the blocked-action driver ---------------------------------------

    pub(crate) fn state_for_dump(&self) -> parking_lot::MutexGuard<'_, PvmState> {
        self.state.lock()
    }

    pub(crate) fn run_pub<T>(&self, attempt: impl FnMut(&mut PvmState) -> Attempt<T>) -> Result<T> {
        self.run(attempt)
    }

    fn run<T>(&self, attempt: impl FnMut(&mut PvmState) -> Attempt<T>) -> Result<T> {
        let guard = self.state.lock();
        let performed = guard.performed;
        let (mut guard, v) = self.drive(guard, attempt)?;
        // The entry made a full-window stream's next window due: it goes
        // out now, ahead of its reader and with nobody waiting on it (a
        // faulter is not a blocked action: `performed` stays).
        if let Some((cache, slot)) = guard.ahead_due.take() {
            guard = match guard.size_ahead(cache, slot) {
                Some(req) => {
                    guard.stats.bump(Counter::AheadPulls);
                    self.submit_pull(guard, cache, req)
                }
                None => {
                    guard.stats.bump(Counter::AheadSkipped);
                    guard
                }
            };
            guard.check_invariants_if_enabled();
        }
        // A light entry — nothing blocked, neither the attempt nor the
        // entry hooks before it: no upcall and no wait but for a parked
        // page's arrival (a soft fault on a prefetched page, typically)
        // — has room for one mapper round trip: it launders one run off
        // the write-behind queue, so the
        // allocations to come find clean victims and no entry pays for
        // a pull and a push. (Another thread can only move the count
        // while this entry has the lock released, performing.)
        if guard.performed == performed && !guard.write_behind.is_empty() {
            let mut pushed = false;
            guard = self.launder(guard, |s| s.write_behind_attempt(&mut pushed));
            guard.check_invariants_if_enabled();
        }
        drop(guard);
        // Wake anyone whose wait condition we may have satisfied (stub
        // resolution, promotion, cleaning).
        self.stub_cv.notify_all();
        Ok(v)
    }

    /// One driver entry under a state lock the caller already holds:
    /// the entry hooks (completion pump, watchdog, gauge sampler), then
    /// the attempt loop. Returns with the lock held so a caller with
    /// more to do under it (`fillUp` landing several pages) need not
    /// re-acquire; on error the lock is released.
    fn drive<'a, T>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        mut attempt: impl FnMut(&mut PvmState) -> Attempt<T>,
    ) -> Result<(parking_lot::MutexGuard<'a, PvmState>, T)> {
        guard.pump_completions();
        if guard.watchdog_sweep() > 0 {
            // Cancelled pulls cleared their stubs: wake sleepers so
            // they re-fault.
            self.stub_cv.notify_all();
        }
        // The deterministic gauge sampler rides every driver entry:
        // reads the simulated clock, never advances it.
        guard.maybe_sample();
        // The demand page of the window this entry has in flight (see
        // `PvmState::demand_pulls`): pinned from its delivery until the
        // attempt is over, or until the attempt misses again.
        let mut demand = None;
        let result = loop {
            if let Some(e) = demand.and_then(|key| guard.take_demand_error(key)) {
                break Err(e);
            }
            match attempt(&mut guard) {
                Err(e) => break Err(e),
                Ok(Outcome::Done(v)) => break Ok(v),
                Ok(Outcome::Blocked(action)) => {
                    if let Blocked::PullIn { cache, req } = &action {
                        guard.end_demand(demand.replace((*cache, req.offset)));
                        guard.demand_pulls.insert((*cache, req.offset), Ok(None));
                    }
                    match self.perform(guard, action) {
                        Ok(held) => guard = held,
                        Err(e) => {
                            if demand.is_some() {
                                self.state.lock().end_demand(demand);
                            }
                            return Err(e);
                        }
                    }
                }
            }
        };
        guard.end_demand(demand);
        let v = result?;
        if guard.config.check_invariants {
            guard.check_invariants();
        }
        Ok((guard, v))
    }

    /// Runs a laundering step (`write_behind_attempt`) to completion,
    /// performing what it blocks on. Inline and deterministic, never on
    /// a thread of its own; a failure ends the pass and is swallowed:
    /// laundering must never fail the operation that happened to
    /// trigger it (the pages simply stay dirty). Guarded against
    /// reentry: a push whose mapper calls back into the GMI must not
    /// start laundering of its own.
    fn launder<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        mut step: impl FnMut(&mut PvmState) -> Attempt<()>,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        if self.laundering.swap(true, Ordering::Acquire) {
            return guard;
        }
        loop {
            match step(&mut guard) {
                Ok(Outcome::Done(())) => break,
                Ok(Outcome::Blocked(action)) => match self.perform(guard, action) {
                    Ok(g) => guard = g,
                    Err(_) => {
                        guard = self.state.lock();
                        break;
                    }
                },
                Err(_) => break,
            }
        }
        self.laundering.store(false, Ordering::Release);
        guard
    }

    /// Drives one mapper upcall under the retry policy: transient
    /// failures are re-driven up to `max_attempts` times with exponential
    /// backoff charged to the simulated clock, bounded by the per-upcall
    /// deadline (also in simulated time, so injected mapper delays count
    /// against it). Returns the final result and the number of retries
    /// performed. Must be called with the state lock released.
    fn upcall_with_retry(
        &self,
        segment: SegmentId,
        policy: chorus_gmi::RetryPolicy,
        mut upcall: impl FnMut() -> Result<()>,
    ) -> (Result<()>, u64) {
        let start = self.model.now().nanos();
        let past_deadline = |model: &CostModel| {
            policy.deadline_ns > 0
                && model.now().nanos().saturating_sub(start) >= policy.deadline_ns
        };
        let mut retries = 0u64;
        let result = loop {
            match upcall() {
                Ok(()) => break Ok(()),
                Err(e) if e.is_transient() => {
                    if past_deadline(&self.model) {
                        break Err(GmiError::MapperTimeout { segment });
                    }
                    if retries + 1 >= u64::from(policy.attempts()) {
                        break Err(e);
                    }
                    retries += 1;
                    self.model.charge(chorus_hal::OpKind::MapperRetry);
                    self.model.advance_ns(policy.backoff_ns(retries as u32));
                    if past_deadline(&self.model) {
                        break Err(GmiError::MapperTimeout { segment });
                    }
                }
                Err(e) => break Err(e),
            }
        };
        (result, retries)
    }

    // ----- the completion engine ---------------------------------------------

    /// Submits one `pullIn` for a whole window: registers it in the
    /// in-flight table, runs the mapper protocol eagerly with the lock
    /// released (retries and backoff charge the clock as they go; what
    /// `fillUp` delivers is parked), and queues the window, its arrival
    /// times counted from the submit instant. Everything else —
    /// landing, stub clearing, the faulter's error, quarantine — runs
    /// at delivery.
    fn submit_pull<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        cache: crate::keys::CacheKey,
        req: PullRequest,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let pages = req.size / guard.ps();
        let (id, mut rec) = guard.begin_request(
            UpcallKind::PullIn,
            cache,
            req.segment,
            (req.offset, req.size),
            pages,
        );
        let policy = guard.config.retry;
        drop(guard);
        let t0 = self.trace.phase_start();
        let at = (req.segment, req.offset, req.size);
        (rec.result, rec.retries) = self.traced_upcall(UpcallKind::PullIn, at, policy, || {
            self.seg_mgr.submit_pull(self, &req)
        });
        self.trace.phase_end(Phase::PullIn, t0);
        let mut guard = self.state.lock();
        guard.queue_window(id, rec);
        guard
    }

    /// Runs the mapper's side of one upcall under the retry policy,
    /// between its `UpcallStart` and `UpcallEnd` trace events.
    fn traced_upcall(
        &self,
        kind: UpcallKind,
        (segment, offset, size): (SegmentId, u64, u64),
        policy: chorus_gmi::RetryPolicy,
        upcall: impl FnMut() -> Result<()>,
    ) -> (Result<()>, u64) {
        self.trace.event(|| TraceEvent::UpcallStart {
            kind,
            segment: segment.0,
            offset,
            size,
        });
        let (res, retries) = self.upcall_with_retry(segment, policy, upcall);
        self.trace.event(|| TraceEvent::UpcallEnd {
            kind,
            outcome: upcall_outcome(&res),
            retries,
        });
        (res, retries)
    }

    /// Runs the mapper's side of one `pushOut`. A multi-page batch gets
    /// one shot: on any failure the caller falls back to per-page pushes
    /// or leaves the pages dirty, rather than re-driving N-page
    /// transfers against a mapper that already dropped one.
    fn push_protocol(
        &self,
        mut policy: chorus_gmi::RetryPolicy,
        req: &PushRequest,
        pages: usize,
    ) -> (Result<()>, u64) {
        if pages > 1 {
            policy = chorus_gmi::RetryPolicy::no_retry();
        }
        let at = (req.segment, req.offset, req.size);
        self.traced_upcall(UpcallKind::PushOut, at, policy, || {
            self.seg_mgr.submit_push(self, req)
        })
    }

    /// Submits one fire-and-collect laundering push. The pages stay
    /// `cleaning` (write-protected) until the completion delivers, so
    /// the bytes the mapper read at submit time cannot be re-dirtied
    /// under it; on a failed completion they keep their dirty bits and
    /// the next laundering pass re-drives them — no dirty data is lost.
    fn submit_async_push<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        cache: crate::keys::CacheKey,
        req: PushRequest,
        pages: Vec<crate::keys::PageKey>,
    ) -> parking_lot::MutexGuard<'a, PvmState> {
        let n = pages.len() as u64;
        let at = (req.offset, req.size);
        let (id, mut rec) = guard.begin_request(UpcallKind::PushOut, cache, req.segment, at, n);
        let (policy, service) = (guard.config.retry, guard.upcall_service_ns(n));
        drop(guard);
        // A failed batch keeps every page dirty for the next pass.
        (rec.result, rec.retries) = self.push_protocol(policy, &req, pages.len());
        rec.pages = pages;
        let mut guard = self.state.lock();
        guard.stats.add(Counter::MapperRetries, rec.retries);
        guard.dim_mapper(req.segment, DimCounter::Retries, rec.retries);
        // As with pulls: a timed-out push parks at the hung-reply
        // horizon (its pages stay `cleaning` until cancelled or forced,
        // then keep their dirty bits — no modified data is lost).
        let service = match rec.result {
            Err(GmiError::MapperTimeout { .. }) => crate::engine::HUNG_REPLY_NS,
            _ => service,
        };
        let due = guard.model.now().nanos() + service;
        guard.engine.queue.insert(due, id, rec);
        guard
    }

    /// Force-delivers every outstanding completion, advancing the
    /// simulated clock as each transfer lands. Deterministic
    /// `(due, id)` order. Call at the end of a measurement window so
    /// the tables include all in-flight work; a no-op with the engine
    /// idle.
    pub fn drain_upcalls(&self) {
        while self.state.lock().force_delivery(false) {
            self.stub_cv.notify_all();
        }
    }

    /// Performs a blocked action, re-acquiring the lock afterwards.
    fn perform<'a>(
        &'a self,
        mut guard: parking_lot::MutexGuard<'a, PvmState>,
        action: Blocked,
    ) -> Result<parking_lot::MutexGuard<'a, PvmState>> {
        guard.performed += 1;
        match action {
            Blocked::WaitStub(cache, offset) => {
                // The stub most likely hides a page in flight: wait for
                // its arrival on the clock. If not — a page the mapper
                // has not filled, one being cleaned — a completion no
                // other thread will deliver must resolve it: force the
                // earliest one (advancing the clock to its due time)
                // before considering a sleep.
                if guard.await_page(cache, offset) || guard.force_delivery(true) {
                    return Ok(guard);
                }
                // Another thread is mid-submit on the window, or the
                // wait is for a page being cleaned. Bounded wait:
                // progress is re-checked on every wakeup, and the
                // timeout guards against lost notifications.
                let t0 = self.trace.phase_start();
                let span = self.trace.span("stub.sleep");
                let _ = self.stub_cv.wait_for(&mut guard, Duration::from_millis(50));
                drop(span);
                self.trace.phase_end(Phase::StubWait, t0);
                self.trace.event(|| TraceEvent::StubWake);
                Ok(guard)
            }
            Blocked::AwaitCompletion => {
                // Frame allocation is starved but the engine owes work
                // whose delivery can free frames; force it, then retry.
                guard.force_delivery(true);
                Ok(guard)
            }
            Blocked::PullIn { cache, req } => {
                // Over the mapper's cap the faulter waits out the
                // earliest completion first (with every slot held by
                // another thread mid-submit: yields briefly).
                while guard.engine.free_slots(req.segment) == 0 {
                    if !guard.force_delivery(true) {
                        let _ = self.stub_cv.wait_for(&mut guard, Duration::from_millis(5));
                    }
                }
                Ok(self.submit_pull(guard, cache, req))
            }
            Blocked::PushOut {
                cache,
                segment,
                offset,
                size,
                pages,
                origin,
            } => {
                // Nothing waits on a daemon-origin laundering push, so
                // it is fire-and-collect or not at all: the synchronous
                // body below serves `Demand` and `Sync` runs only. The
                // write-behind step checks the slots under the lock
                // hold this runs in; a run that came without them would
                // be given back dirty, not pushed inside an operation
                // that has nothing to wait for.
                let req = PushRequest {
                    cache: pub_cache(cache),
                    segment,
                    offset,
                    size,
                };
                if origin == PushOrigin::Daemon {
                    if guard.engine.free_slots(segment) >= 2 {
                        return Ok(self.submit_async_push(guard, cache, req, pages));
                    }
                    for &p in &pages {
                        guard.finish_clean(p, false);
                    }
                    return Ok(guard);
                }
                let policy = guard.config.retry;
                drop(guard);
                let ps = self.geom.page_size();
                // A demand-origin push is the faulting thread stalling on
                // a dirty eviction — the latency write-behind exists to
                // remove; record it in its own histogram.
                let stall0 = if origin == PushOrigin::Demand {
                    self.trace.phase_start()
                } else {
                    None
                };
                let t0 = self.trace.phase_start();
                let (res, retries) = self.push_protocol(policy, &req, pages.len());
                self.trace.phase_end(Phase::PushOut, t0);
                let mut guard = self.state.lock();
                guard.stats.add(Counter::MapperRetries, retries);
                guard.dim_mapper(segment, DimCounter::Retries, retries);
                if res.is_ok() {
                    // One mapper round trip for the whole run, plus the
                    // per-page transfer — the request-count amortization
                    // that makes clustering pay.
                    guard.charge(chorus_hal::OpKind::IpcOp);
                    guard.charge_n(chorus_hal::OpKind::SegmentIoPage, size / ps);
                    guard.stats.bump(Counter::PushOutBatches);
                    guard.dim_io(cache, segment, DimCounter::PushOuts, pages.len() as u64);
                    for &p in &pages {
                        guard.finish_clean(p, true);
                    }
                    guard.grow_seg_len(cache, offset + size);
                    self.trace.phase_end(Phase::EvictStall, stall0);
                    return Ok(guard);
                }
                let first_err = res.unwrap_err();
                if matches!(first_err, GmiError::MapperTimeout { .. }) {
                    guard.stats.bump(Counter::MapperTimeouts);
                    guard.dim_mapper(segment, DimCounter::Timeouts, 1);
                }
                if pages.len() == 1 {
                    // On failure the page keeps its dirty bit (`success:
                    // false`), so no modified data is lost: a later retry
                    // of the clean can still write it back.
                    guard.finish_clean(pages[0], false);
                    if !first_err.is_transient() {
                        guard.quarantine_cache(cache);
                    }
                    drop(guard);
                    self.stub_cv.notify_all();
                    self.trace.phase_end(Phase::EvictStall, stall0);
                    return Err(first_err);
                }
                // A multi-page batch failed (wholly, or part-way with a
                // truncated reply): split into per-page pushes, each with
                // its own retry budget, so one bad page cannot lose the
                // dirty data of its neighbours. Pages that died while the
                // lock was released (e.g. a concurrent invalidate) have
                // nothing left to write and are skipped.
                guard.stats.bump(Counter::PushBatchSplits);
                drop(guard);
                let mut outcomes: Vec<Option<Result<()>>> = Vec::with_capacity(pages.len());
                let mut retries_total = 0u64;
                let mut dead_mapper = false;
                for (i, &p) in pages.iter().enumerate() {
                    if dead_mapper {
                        outcomes.push(Some(Err(GmiError::SegmentIo {
                            segment,
                            cause: "batched pushOut aborted after permanent mapper failure".into(),
                            transient: true,
                        })));
                        continue;
                    }
                    if !self.state.lock().pages.contains(p) {
                        outcomes.push(None);
                        continue;
                    }
                    let off_i = offset + i as u64 * ps;
                    let (r, rt) = self.upcall_with_retry(segment, policy, || {
                        self.seg_mgr.submit_push(
                            self,
                            &PushRequest {
                                cache: pub_cache(cache),
                                segment,
                                offset: off_i,
                                size: ps,
                            },
                        )
                    });
                    retries_total += rt;
                    if r.as_ref().err().map(|e| !e.is_transient()).unwrap_or(false) {
                        dead_mapper = true;
                    }
                    outcomes.push(Some(r));
                }
                let mut guard = self.state.lock();
                guard.stats.add(Counter::MapperRetries, retries_total);
                guard.dim_mapper(segment, DimCounter::Retries, retries_total);
                let mut err: Option<GmiError> = None;
                let mut quarantine = false;
                for (i, (&p, r)) in pages.iter().zip(outcomes).enumerate() {
                    match r {
                        None => {}
                        Some(Ok(())) => {
                            guard.charge(chorus_hal::OpKind::IpcOp);
                            guard.charge_n(chorus_hal::OpKind::SegmentIoPage, 1);
                            guard.dim_io(cache, segment, DimCounter::PushOuts, 1);
                            guard.finish_clean(p, true);
                            guard.grow_seg_len(cache, offset + (i as u64 + 1) * ps);
                        }
                        Some(Err(e)) => {
                            guard.finish_clean(p, false);
                            if matches!(e, GmiError::MapperTimeout { .. }) {
                                guard.stats.bump(Counter::MapperTimeouts);
                                guard.dim_mapper(segment, DimCounter::Timeouts, 1);
                            }
                            if !e.is_transient() {
                                quarantine = true;
                            }
                            if err.is_none() {
                                err = Some(e);
                            }
                        }
                    }
                }
                if quarantine {
                    guard.quarantine_cache(cache);
                }
                self.trace.phase_end(Phase::EvictStall, stall0);
                match err {
                    None => Ok(guard),
                    Some(e) => {
                        drop(guard);
                        self.stub_cv.notify_all();
                        Err(e)
                    }
                }
            }
            Blocked::VictimAdvice { pages, idents } => {
                guard.stats.bump(Counter::PolicyExternalBatches);
                if pages.is_empty() {
                    guard.approve_external_victims(&[]);
                    return Ok(guard);
                }
                // Candidates are live here: selection returned this
                // action under the lock we still hold. They may die
                // while the advice round trip runs below;
                // `approve_external_victims` re-filters on return.
                let cache = guard.page(pages[0]).cache;
                // Fire-and-collect, like a laundering push: the mapper
                // answers eagerly, the approval bookkeeping waits for
                // the completion's due time. Selection falls back to
                // the internal clock meanwhile, so allocation never
                // stalls on the advisor.
                let n = idents.len() as u64;
                let (id, mut rec) =
                    guard.begin_request(UpcallKind::VictimAdvice, cache, ADVICE_SEGMENT, (0, 0), n);
                let service = guard.upcall_service_ns(n);
                drop(guard);
                let verdicts = self.seg_mgr.advise_victims(&idents);
                rec.pages = approved_victims(&pages, &verdicts);
                let mut guard = self.state.lock();
                let due = guard.model.now().nanos() + service;
                guard.engine.queue.insert(due, id, rec);
                Ok(guard)
            }
            Blocked::NeedSegment { cache } => {
                drop(guard);
                let segment = self.seg_mgr.create_segment_v2(pub_cache(cache));
                let seg_len = self.seg_mgr.segment_len(segment);
                let mut guard = self.state.lock();
                if let Ok(c) = guard.cache_mut(cache) {
                    if c.segment.is_none() {
                        c.segment = Some(segment);
                        c.seg_len = seg_len;
                    }
                }
                Ok(guard)
            }
            Blocked::GetWriteAccess {
                cache: _,
                segment,
                offset,
                size,
                page,
            } => {
                let policy = guard.config.retry;
                drop(guard);
                let t0 = self.trace.phase_start();
                let at = (segment, offset, size);
                let (res, retries) =
                    self.traced_upcall(UpcallKind::GetWriteAccess, at, policy, || {
                        self.seg_mgr.acquire_write_access(segment, offset, size)
                    });
                self.trace.phase_end(Phase::GetWriteAccess, t0);
                let mut guard = self.state.lock();
                // Each retry is its own upcall on the wire.
                guard.stats.add(Counter::WriteAccessUpcalls, 1 + retries);
                guard.stats.add(Counter::MapperRetries, retries);
                guard.dim_mapper(segment, DimCounter::Retries, retries);
                match res {
                    Ok(()) => {
                        if guard.pages.contains(page) {
                            guard.page_mut(page).seg_write_ok = true;
                        }
                        Ok(guard)
                    }
                    Err(e) => {
                        // A write-access denial is a coherence decision,
                        // not a mapper death: no quarantine.
                        if matches!(e, GmiError::MapperTimeout { .. }) {
                            guard.stats.bump(Counter::MapperTimeouts);
                            guard.dim_mapper(segment, DimCounter::Timeouts, 1);
                        }
                        Err(e)
                    }
                }
            }
        }
    }
}

// ----- CacheIo: the non-faulting Table 4 data-transfer downcalls ---------

impl CacheIo for Pvm {
    fn fill_up(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let ps = self.geom.page_size();
        // One state-lock hold per delivery: every page lands through
        // its own driver entry under it, and the lock is only given up
        // where an attempt blocks (a dirty victim to push).
        let mut guard = self.state.lock();
        guard.cache(key)?;
        for (i, chunk) in data.chunks(ps as usize).enumerate() {
            let page_off = offset + i as u64 * ps;
            debug_assert!(
                page_off.is_multiple_of(ps),
                "fillUp chunks must start page-aligned"
            );
            match self.drive(guard, |s| s.fill_up_page_attempt(key, page_off, chunk)) {
                Ok((held, ())) => guard = held,
                Err(e) => {
                    // `drive` gave the lock up on its way out.
                    self.stub_cv.notify_all();
                    return Err(e);
                }
            }
        }
        drop(guard);
        // One wake per delivery, for the faulters asleep on its stubs.
        self.stub_cv.notify_all();
        Ok(())
    }

    fn copy_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let guard = self.state.lock();
        guard.copy_back_locked(key, offset, buf)
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        let key = cache_key(cache);
        let guard = self.state.lock();
        guard.copy_back_run_locked(key, offset, buf)
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut guard = self.state.lock();
        guard.copy_back_locked(key, offset, buf)?;
        // Remove the fragment from the cache, releasing the frames.
        let ps = guard.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            if let Some(Slot::Present(p)) = guard.slot(key, o) {
                if guard.page(p).stubs.is_empty() && guard.page(p).lock_count == 0 {
                    guard.free_page(p, crate::state::StubsTo::AlreadyHandled, true);
                }
            }
            cur += ps;
        }
        drop(guard);
        self.stub_cv.notify_all();
        Ok(())
    }
}

impl PvmState {
    /// One attempt of delivering one page of `fillUp` data.
    pub(crate) fn fill_up_page_attempt(
        &mut self,
        cache: crate::keys::CacheKey,
        page_off: u64,
        chunk: &[u8],
    ) -> Attempt<()> {
        if self.caches.get(cache).is_none() {
            // The cache died while the pull was in flight; drop the data.
            if self.gmap.get(cache, page_off) == Some(Slot::Sync) {
                self.gmap.remove(cache, page_off);
            }
            return crate::state::done(());
        }
        let slot = self.slot(cache, page_off);
        // A page of a window in flight is parked: its bytes wait in a
        // frame of their own, off the global map, for the page's
        // arrival time (see [`crate::engine`]).
        let parked = match slot {
            // Already resident (a concurrent fill, a duplicate or late
            // delivery). A clean resident page equals its segment, so
            // these bytes can only be as old or older — written and
            // laundered since the mapper read them: leave it alone.
            Some(Slot::Present(_)) => return crate::state::done(()),
            Some(Slot::Sync) => self.engine.parked.get(&(cache, page_off)).copied(),
            _ => None,
        };
        if let Some(Parked::Filled { .. }) = parked {
            // A duplicate delivery: the first one stands.
            return crate::state::done(());
        }
        // Failing this allocation would strand the pulled data and
        // error the recovery, so it degrades through an emergency
        // eviction pass before giving up.
        let alloc = match self.alloc_frame() {
            Err(GmiError::OutOfMemory) if self.emergency_evict() > 0 => self.alloc_frame(),
            other => other,
        };
        let frame = match alloc? {
            Outcome::Done(f) => f,
            Outcome::Blocked(b) => return crate::state::blocked(b),
        };
        if parked.is_some() {
            // The transfer into the frame is the mapper's; the copy is
            // charged when the page lands (`PvmState::deliver_page`).
            self.phys.write(frame, 0, chunk);
            self.phys.frame_mut(frame)[chunk.len()..].fill(0);
            self.park(cache, page_off, frame);
        } else {
            // Partial trailing chunks are zero-padded: only the tail
            // the chunk leaves uncovered is cleared.
            self.phys.fill(frame, chunk);
            let page = self.new_page(cache, page_off, frame, true, false);
            self.land_page(cache, page_off, page);
        }
        crate::state::done(())
    }

    /// Parks a page of a window in flight in its filled `frame`: its
    /// descriptor is built now, pinned so that it is nobody's victim,
    /// and enters the global map at the page's arrival.
    fn park(&mut self, cache: crate::keys::CacheKey, off: u64, frame: chorus_hal::FrameNo) {
        let page = self.new_page(cache, off, frame, true, false);
        self.page_mut(page).lock_count += 1;
        let filled = Parked::Filled {
            page,
            arrival_ns: u64::MAX,
        };
        self.engine.parked.insert((cache, off), filled);
    }

    /// Enters the page of a frame `fillUp` has filled in the global map
    /// at (cache, page_off), in place of whatever stub is there. A page
    /// landing on a synchronization stub that no faulter's pull
    /// registered is the readahead tail of somebody's pull: it is marked
    /// until its first mapping, so an eviction before that counts as
    /// waste.
    pub(crate) fn land_page(
        &mut self,
        cache: crate::keys::CacheKey,
        page_off: u64,
        page: crate::keys::PageKey,
    ) {
        let slot = self.slot(cache, page_off);
        if let Some(Slot::Cow(src)) = slot {
            self.unthread_cow_stub(cache, page_off, src);
        }
        let prefetched =
            slot == Some(Slot::Sync) && !self.demand_pulls.contains_key(&(cache, page_off));
        let writable = !self.has_history_covering(cache, page_off);
        let desc = self.page_mut(page);
        (desc.writable, desc.prefetched) = (writable, prefetched);
        self.publish_page(page);
        if prefetched {
            self.stats.bump(Counter::ReadaheadPages);
            self.dim_cache(cache, DimCounter::ReadaheadPages, 1);
        }
    }

    /// Takes the error a failed window left for its faulter, if any:
    /// the operation fails with it instead of pulling again.
    pub(crate) fn take_demand_error(
        &mut self,
        key: (crate::keys::CacheKey, u64),
    ) -> Option<GmiError> {
        match self.demand_pulls.get(&key) {
            Some(Err(_)) => self.demand_pulls.remove(&key)?.err(),
            _ => None,
        }
    }

    /// Closes a faulter's mailbox, dropping the pin on its demand page.
    fn end_demand(&mut self, demand: Option<(crate::keys::CacheKey, u64)>) {
        if let Some(Ok(Some(held))) = demand.and_then(|key| self.demand_pulls.remove(&key)) {
            self.unpin_pages(&[held]);
        }
    }

    /// Non-faulting read of resident data (`copyBack`).
    pub(crate) fn copy_back_locked(
        &self,
        cache: crate::keys::CacheKey,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        self.cache(cache)?;
        let ps = self.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = self.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            match self.gmap.get(cache, page_off) {
                Some(Slot::Present(p)) => {
                    let frame = self.page(p).frame;
                    self.phys.read(
                        frame,
                        o - page_off,
                        &mut buf[cur as usize..(cur + in_page) as usize],
                    );
                }
                _ => {
                    return Err(GmiError::OutOfRange {
                        offset: page_off,
                        size: ps,
                        what: "copyBack of non-resident data",
                    })
                }
            }
            cur += in_page;
        }
        Ok(())
    }

    /// Reads the longest fully-resident page-aligned prefix of
    /// `[offset, offset + buf.len())` into `buf`, returning its length
    /// in bytes. A batched `pushOut` uses this so a page that vanished
    /// mid-run (writeback racing an invalidate) shortens the reply
    /// instead of failing the whole batch.
    pub(crate) fn copy_back_run_locked(
        &self,
        cache: crate::keys::CacheKey,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<u64> {
        self.cache(cache)?;
        let ps = self.ps();
        let mut cur = 0u64;
        while cur < buf.len() as u64 {
            let o = offset + cur;
            let page_off = self.geom.round_down(o);
            let in_page = (page_off + ps - o).min(buf.len() as u64 - cur);
            match self.gmap.get(cache, page_off) {
                Some(Slot::Present(p)) => {
                    let frame = self.page(p).frame;
                    self.phys.read(
                        frame,
                        o - page_off,
                        &mut buf[cur as usize..(cur + in_page) as usize],
                    );
                }
                _ if cur == 0 => {
                    return Err(GmiError::OutOfRange {
                        offset: page_off,
                        size: ps,
                        what: "copyBack of non-resident data",
                    })
                }
                _ => break,
            }
            cur += in_page;
        }
        Ok(cur)
    }

    /// Grows a cache's known segment length after a `pushOut` extended
    /// the segment to `end`. An unknown length stays unknown (it only
    /// disables the readahead clamp, never a pull).
    pub(crate) fn grow_seg_len(&mut self, cache: crate::keys::CacheKey, end: u64) {
        if let Some(c) = self.caches.get_mut(cache) {
            if let Some(len) = c.seg_len {
                if end > len {
                    c.seg_len = Some(end);
                }
            }
        }
    }
}

// ----- the GMI itself ------------------------------------------------------

impl Gmi for Pvm {
    fn cache_create(&self, segment: Option<SegmentId>) -> Result<CacheId> {
        // Ask the manager for the segment's length before taking the
        // lock; it clamps clustered pulls at segment end (`None` just
        // disables the clamp).
        let seg_len = segment.and_then(|s| self.seg_mgr.segment_len(s));
        let mut guard = self.state.lock();
        let key = guard.cache_create_locked(segment);
        if seg_len.is_some() {
            if let Ok(c) = guard.cache_mut(key) {
                c.seg_len = seg_len;
            }
        }
        Ok(pub_cache(key))
    }

    fn cache_destroy(&self, cache: CacheId) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.cache_destroy_attempt(key))
    }

    fn cache_copy_with(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
        mode: CopyMode,
    ) -> Result<()> {
        let (s, d) = (cache_key(src), cache_key(dst));
        let mut progress = 0u64;
        self.run(|st| {
            st.cache_copy_attempt(s, src_offset, d, dst_offset, size, mode, &mut progress)
        })
    }

    fn cache_move(
        &self,
        src: CacheId,
        src_offset: u64,
        dst: CacheId,
        dst_offset: u64,
        size: u64,
    ) -> Result<()> {
        let (s, d) = (cache_key(src), cache_key(dst));
        let mut progress = 0u64;
        self.run(|st| st.cache_move_attempt(s, src_offset, d, dst_offset, size, &mut progress))
    }

    fn cache_read(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut progress = 0u64;
        self.run(|s| s.cache_read_attempt(key, offset, buf, &mut progress))
    }

    fn cache_write(&self, cache: CacheId, offset: u64, data: &[u8]) -> Result<()> {
        let key = cache_key(cache);
        let mut progress = 0u64;
        self.run(|s| s.cache_write_attempt(key, offset, data, &mut progress))
    }

    fn context_create(&self) -> Result<CtxId> {
        let mut guard = self.state.lock();
        Ok(pub_ctx(guard.context_create_locked()))
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.context_destroy_locked(ctx_key(ctx))
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.context_switch_locked(ctx_key(ctx))
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let guard = self.state.lock();
        let desc = guard.ctx(ctx_key(ctx))?;
        desc.regions
            .iter()
            .map(|&r| Ok((pub_region(r), guard.region_status_locked(r)?)))
            .collect()
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let guard = self.state.lock();
        guard.find_region(ctx_key(ctx), va).map(pub_region)
    }

    fn region_create(
        &self,
        ctx: CtxId,
        addr: VirtAddr,
        size: u64,
        prot: Prot,
        cache: CacheId,
        offset: u64,
    ) -> Result<RegionId> {
        let mut guard = self.state.lock();
        guard
            .region_create_locked(ctx_key(ctx), addr, size, prot, cache_key(cache), offset)
            .map(pub_region)
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let mut guard = self.state.lock();
        guard
            .region_split_locked(region_key(region), offset)
            .map(pub_region)
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_set_protection_locked(region_key(region), prot)
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        let key = region_key(region);
        self.run(|s| s.region_lock_attempt(key))
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_unlock_locked(region_key(region))
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let guard = self.state.lock();
        guard.region_status_locked(region_key(region))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock();
        guard.region_destroy_locked(region_key(region))
    }

    fn cache_flush(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.flush_attempt(key, offset, size))
    }

    fn cache_sync(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.sync_attempt(key, offset, size))
    }

    fn cache_invalidate(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        self.run(|s| s.invalidate_attempt(key, offset, size))
    }

    fn cache_set_protection(
        &self,
        cache: CacheId,
        offset: u64,
        size: u64,
        prot: Prot,
    ) -> Result<()> {
        let mut guard = self.state.lock();
        guard.cache_set_protection_locked(cache_key(cache), offset, size, prot)
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        let mut pinned = 0u64;
        self.run(|s| s.cache_lock_attempt(key, offset, size, &mut pinned))
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let mut guard = self.state.lock();
        guard.cache_unlock_locked(cache_key(cache), offset, size)
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let key = ctx_key(ctx);
        let fstart = self.trace.fault_enter(key.index(), va.0, access);
        let mut first = true;
        let res = self.run(|s| {
            let head = first;
            if head {
                first = false;
                s.stats.bump(Counter::Faults);
                s.charge(chorus_hal::OpKind::FaultEntry);
            }
            s.fault_attempt(key, va, access, head)
        });
        let resolution = *res.as_ref().unwrap_or(&Resolution::Failed);
        self.trace.fault_exit(fstart, key.index(), va.0, resolution);
        res.map(|_| ())
    }

    fn vm_read(&self, ctx: CtxId, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        self.vm_access(ctx, va, Access::Read, AccessBuf::Read(buf))
    }

    fn vm_write(&self, ctx: CtxId, va: VirtAddr, buf: &[u8]) -> Result<()> {
        self.vm_access(ctx, va, Access::Write, AccessBuf::Write(buf))
    }

    fn geometry(&self) -> PageGeometry {
        self.geom
    }

    fn cache_resident_pages(&self, cache: CacheId) -> Result<u64> {
        let guard = self.state.lock();
        let key = cache_key(cache);
        let desc = guard.cache(key)?;
        Ok(desc
            .entries
            .iter()
            .filter(|&&o| matches!(guard.gmap.get(key, o), Some(Slot::Present(_))))
            .count() as u64)
    }
}

/// Sentinel segment id that carries `victimAdvice` completions through
/// the engine's in-flight table: advice is addressed to the manager as
/// a whole, not to any one segment, and no real segment ever gets this
/// id (segment ids are small sequential integers).
const ADVICE_SEGMENT: SegmentId = SegmentId(u64::MAX);

/// Applies a `victimAdvice` verdict mask to its candidate batch: a
/// candidate survives only where the mapper answered `true`; a short
/// reply vetoes the missing tail.
fn approved_victims(
    pages: &[crate::keys::PageKey],
    verdicts: &[bool],
) -> Vec<crate::keys::PageKey> {
    pages
        .iter()
        .zip(verdicts.iter().copied().chain(std::iter::repeat(false)))
        .filter_map(|(&p, ok)| ok.then_some(p))
        .collect()
}

/// Maps an upcall's final result onto the traced outcome.
pub(crate) fn upcall_outcome(res: &Result<()>) -> UpcallOutcome {
    match res {
        Ok(()) => UpcallOutcome::Ok,
        Err(GmiError::MapperTimeout { .. }) => UpcallOutcome::Timeout,
        Err(e) if e.is_transient() => UpcallOutcome::Transient,
        Err(_) => UpcallOutcome::Permanent,
    }
}

enum AccessBuf<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

impl Pvm {
    /// The faulting user-access simulation loop: translate, fault,
    /// retry — crossing page (and region) boundaries as needed.
    fn vm_access(
        &self,
        ctx: CtxId,
        va: VirtAddr,
        access: Access,
        mut buf: AccessBuf<'_>,
    ) -> Result<()> {
        let key = ctx_key(ctx);
        let len = match &buf {
            AccessBuf::Read(b) => b.len(),
            AccessBuf::Write(b) => b.len(),
        } as u64;
        let ps = self.geometry().page_size();
        let mut cur = 0u64;
        while cur < len {
            let addr = VirtAddr(va.0 + cur);
            let page_rem = ps - (addr.0 % ps);
            let n = page_rem.min(len - cur) as usize;
            // Translate-or-fault loop for this chunk.
            let mut tries = 0;
            loop {
                let mut guard = self.state.lock();
                let mmu_ctx = guard.ctx(key)?.mmu_ctx;
                match guard.mmu.translate(mmu_ctx, addr, access, false) {
                    Ok(pa) => {
                        match &mut buf {
                            AccessBuf::Read(b) => {
                                guard
                                    .phys
                                    .read_phys(pa, &mut b[cur as usize..cur as usize + n]);
                            }
                            AccessBuf::Write(b) => {
                                guard
                                    .phys
                                    .write_phys(pa, &b[cur as usize..cur as usize + n]);
                            }
                        }
                        break;
                    }
                    Err(_fault) => {
                        drop(guard);
                        self.handle_fault(ctx, addr, access)?;
                        tries += 1;
                        assert!(tries < 64, "fault livelock at {addr:?}");
                    }
                }
            }
            cur += n as u64;
        }
        Ok(())
    }
}
