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
use crate::domains::{DomainGuard, DomainLock, LockEntry, LockProfile};
use crate::engine::{CompletionRecord, Parked};
use crate::keys::{cache_key, ctx_key, pub_cache, pub_ctx, pub_region, region_key, CtxKey};
use crate::pvmtop::PvmTop;
use crate::state::{Attempt, Blocked, PushOrigin, PvmState, Stop};
use crate::stats::{Counter, PvmStats, StatsRegistry};
use crate::telemetry::{At, Telemetry, TelemetrySample};
use crate::trace::{Phase, Resolution, TraceEvent, Tracer, UpcallKind, UpcallOutcome};
use chorus_gmi::{
    Access, CacheId, CacheIo, CopyMode, CtxId, Gmi, GmiError, PageGeometry, Prot, PullRequest,
    PushRequest, RegionId, RegionStatus, Result, SegmentId, SegmentManagerV2, VirtAddr,
};
use chorus_hal::{
    private_copy, CostModel, CostParams, Mmu, Page, PhysicalMemory, SoftMmu, TwoLevelMmu,
};
use parking_lot::Condvar;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A held state lock.
type StateGuard<'a> = DomainGuard<'a, PvmState>;

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
    /// The state lock: the PVM's one mutex, in a counting, profiling
    /// wrapper.
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
        Pvm {
            state: DomainLock::new(state, stats.clone()),
            stub_cv: Condvar::new(),
            seg_mgr,
            model,
            geom: geometry,
            stats,
            trace,
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

    /// The event tracer (disabled unless `PvmConfig::trace` enables it).
    pub fn tracer(&self) -> Arc<Tracer> {
        self.trace.clone()
    }

    /// A copy of the per-cache, per-context and per-mapper counter rows
    /// (see [`crate::telemetry`]).
    pub fn telemetry(&self) -> Telemetry {
        self.state.lock(LockEntry::Query).telemetry.clone()
    }

    /// Copies out the recorded sim-time gauge series, oldest first.
    pub fn telemetry_series(&self) -> Vec<TelemetrySample> {
        self.state.lock(LockEntry::Query).series.samples()
    }

    /// Takes a gauge sample of the live state right now (not appended
    /// to the series).
    pub fn sample_now(&self) -> TelemetrySample {
        self.state.lock(LockEntry::Query).live_sample()
    }

    /// The `pvmtop` introspection snapshot: top caches by fault/dirty
    /// heat, per-mapper health, per-phase latency percentiles, and the
    /// live gauges — one consistent picture under one lock acquisition.
    pub fn top(&self) -> PvmTop {
        crate::pvmtop::snapshot(&self.state.lock(LockEntry::Query))
    }

    /// The state lock's per-entry wait and hold histograms, in
    /// wall-clock nanoseconds (see [`LockProfile`]). Host time: it
    /// varies run to run and no deterministic report carries it. Never
    /// takes the lock.
    pub fn lock_profile(&self) -> LockProfile {
        self.state.profile()
    }

    /// Resets the PVM event counters, the state lock's profile, the
    /// tracer's rings and histograms, and the telemetry rows and gauge
    /// series (the cost model has its own reset).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.state.reset_profile();
        self.trace.reset();
        let mut guard = self.state.lock(LockEntry::Query);
        guard.telemetry.reset();
        guard.series.clear();
        guard.next_sample_ns = 0;
    }

    /// Number of live cache descriptors (including zombies and working
    /// objects) — used by tests and the ablation benches.
    pub fn cache_count(&self) -> usize {
        self.state.lock(LockEntry::Query).caches.len()
    }

    /// Number of resident pages across all caches.
    pub fn resident_page_count(&self) -> usize {
        self.state.lock(LockEntry::Query).pages.len()
    }

    /// Faulters whose pull is in flight (open `demand_pulls` mailboxes):
    /// 0 whenever no operation is running.
    pub fn waiting_faulters(&self) -> usize {
        self.state.lock(LockEntry::Query).demand_pulls.len()
    }

    /// Number of free physical frames.
    pub fn free_frames(&self) -> u32 {
        self.state.lock(LockEntry::Query).phys.free_frames()
    }

    /// Physical memory statistics.
    pub fn mem_stats(&self) -> chorus_hal::MemStats {
        self.state.lock(LockEntry::Query).phys.stats()
    }

    /// Runs the structural invariant checker (also run automatically when
    /// `PvmConfig::check_invariants` is set).
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        self.state.lock(LockEntry::Query).check_invariants();
    }

    // ----- the blocked-action driver ---------------------------------------

    pub(crate) fn state_for_dump(&self) -> StateGuard<'_> {
        self.state.lock(LockEntry::Query)
    }

    pub(crate) fn run<T>(&self, attempt: impl FnMut(&mut PvmState) -> Attempt<T>) -> Result<T> {
        let (guard, v) = self.run_held(self.state.lock(LockEntry::Gmi), attempt)?;
        drop(guard);
        // Wake anyone whose wait condition we may have satisfied (stub
        // resolution, promotion, cleaning).
        self.stub_cv.notify_all();
        Ok(v)
    }

    /// `run` under a state lock the caller holds, returned still held
    /// (released on error) with sleepers not yet woken.
    fn run_held<'a, T>(
        &'a self,
        guard: StateGuard<'a>,
        attempt: impl FnMut(&mut PvmState) -> Attempt<T>,
    ) -> Result<(StateGuard<'a>, T)> {
        let performed = guard.performed;
        let (mut guard, v) = self.drive(guard, attempt)?;
        // The entry made a full-window stream's next window due: it goes
        // out now, ahead of its reader and with nobody waiting on it (a
        // faulter is not a blocked action: `performed` stays).
        if let Some((cache, req)) = guard.ahead_window() {
            guard = self.submit_pull(guard, cache, req);
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
        Ok((guard, v))
    }

    /// One driver entry under a state lock the caller already holds:
    /// the entry hooks (completion pump, watchdog, gauge sampler), then
    /// the attempt loop. Returns with the lock held so a caller with
    /// more to do under it (`fillUp` landing several pages) need not
    /// re-acquire; on error the lock is released.
    fn drive<'a, T>(
        &'a self,
        mut guard: StateGuard<'a>,
        mut attempt: impl FnMut(&mut PvmState) -> Attempt<T>,
    ) -> Result<(StateGuard<'a>, T)> {
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
                Err(Stop::Failed(e)) => break Err(e),
                Ok(v) => break Ok(v),
                Err(Stop::Blocked(action)) => {
                    if let Blocked::PullIn { cache, req } = &action {
                        guard.end_demand(demand.replace((*cache, req.offset)));
                        guard.demand_pulls.insert((*cache, req.offset), Ok(None));
                    }
                    match self.perform(guard, action) {
                        Ok(held) => guard = held,
                        Err(e) => {
                            if demand.is_some() {
                                self.state.lock(LockEntry::Relock).end_demand(demand);
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
        mut guard: StateGuard<'a>,
        mut step: impl FnMut(&mut PvmState) -> Attempt<()>,
    ) -> StateGuard<'a> {
        if self.laundering.swap(true, Ordering::Acquire) {
            return guard;
        }
        while let Err(Stop::Blocked(action)) = step(&mut guard) {
            match self.perform(guard, action) {
                Ok(g) => guard = g,
                Err(_) => {
                    guard = self.state.lock(LockEntry::Relock);
                    break;
                }
            }
        }
        self.laundering.store(false, Ordering::Release);
        guard
    }

    /// Drives one mapper upcall under the retry policy, between its
    /// `UpcallStart` and `UpcallEnd` trace events: transient failures
    /// are re-driven up to `max_attempts` times with exponential backoff
    /// charged to the simulated clock, bounded by the per-upcall
    /// deadline (also in simulated time, so injected mapper delays count
    /// against it). Returns the final result and the number of retries
    /// performed. Must be called with the state lock released.
    fn upcall_with_retry(
        &self,
        kind: UpcallKind,
        (segment, offset, size): (SegmentId, u64, u64),
        policy: chorus_gmi::RetryPolicy,
        mut upcall: impl FnMut() -> Result<()>,
    ) -> (Result<()>, u64) {
        self.trace.event(|| TraceEvent::UpcallStart {
            kind,
            segment: segment.0,
            offset,
            size,
        });
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
        self.trace.event(|| TraceEvent::UpcallEnd {
            kind,
            outcome: upcall_outcome(&result),
            retries,
        });
        (result, retries)
    }

    // ----- the completion engine ---------------------------------------------

    /// Enters one request in the in-flight table and runs its mapper
    /// protocol eagerly with the lock released (retries and backoff
    /// charge the clock as they go). Returns the lock and the request's
    /// record, answered, to be handed on.
    fn request<'a>(
        &'a self,
        mut guard: StateGuard<'a>,
        (kind, cache): (UpcallKind, crate::keys::CacheKey),
        at: (SegmentId, u64, u64),
        policy: chorus_gmi::RetryPolicy,
        upcall: impl FnMut() -> Result<()>,
    ) -> (StateGuard<'a>, u64, CompletionRecord) {
        let (segment, offset, size) = at;
        let pages = size / guard.ps();
        let (id, mut rec) = guard.begin_request(kind, cache, segment, (offset, size), pages);
        drop(guard);
        let t0 = self.trace.phase_start();
        (rec.result, rec.retries) = self.upcall_with_retry(kind, at, policy, upcall);
        self.trace.phase_end(kind.phase(), t0);
        (self.state.lock(LockEntry::Relock), id, rec)
    }

    /// Submits one `pullIn` for a whole window and queues it, its
    /// arrival times counted from the submit instant (what `fillUp`
    /// delivers meanwhile is parked). Everything else — landing, stub
    /// clearing, the faulter's error, quarantine — runs at delivery.
    fn submit_pull<'a>(
        &'a self,
        guard: StateGuard<'a>,
        cache: crate::keys::CacheKey,
        req: PullRequest,
    ) -> StateGuard<'a> {
        let (policy, at) = (guard.config.retry, (req.segment, req.offset, req.size));
        let (mut guard, id, rec) =
            self.request(guard, (UpcallKind::PullIn, cache), at, policy, || {
                self.seg_mgr.submit_pull(self, &req)
            });
        guard.queue_window(id, rec);
        guard
    }

    /// Submits one `pushOut` for a run of pages being cleaned
    /// (`pages[i]` at `offset + i * ps`) and hands its record on: queued
    /// for a daemon push, which nothing waits on; settled at once, its
    /// error the caller's, for a demand or sync push (see
    /// [`PvmState::queue_push`]). The pages stay `cleaning` until their
    /// own outcome is applied, and a failed push leaves them dirty. A
    /// multi-page batch gets one shot: on failure each page still live
    /// is re-driven as its own one-page push with the retry budget, so
    /// that one bad page cannot cost its neighbours their data, until
    /// one dies for good (the rest stay dirty).
    fn submit_push<'a>(
        &'a self,
        guard: StateGuard<'a>,
        (cache, segment, offset): (crate::keys::CacheKey, SegmentId, u64),
        pages: Vec<crate::keys::PageKey>,
        origin: PushOrigin,
    ) -> Result<StateGuard<'a>> {
        // `write_behind_attempt` checks the slot rule under this hold.
        debug_assert!(origin != PushOrigin::Daemon || guard.engine.free_slots(segment) >= 2);
        let (wait, ps, retry) = (origin != PushOrigin::Daemon, guard.ps(), guard.config.retry);
        let push = |guard, offset, n: u64| {
            let policy = match n {
                1 => retry,
                _ => chorus_gmi::RetryPolicy::no_retry(),
            };
            let size = n * ps;
            let req = PushRequest {
                cache: pub_cache(cache),
                segment,
                offset,
                size,
            };
            let at = (segment, offset, size);
            self.request(guard, (UpcallKind::PushOut, cache), at, policy, || {
                self.seg_mgr.submit_push(self, &req)
            })
        };
        let (mut guard, id, mut rec) = push(guard, offset, pages.len() as u64);
        let mut err = None;
        if pages.len() == 1 || rec.result.is_ok() {
            rec.pages = pages;
            err = guard.queue_push(id, rec, wait).err();
        } else {
            // The batch failed, wholly or part-way (a truncated reply):
            // its record settles carrying no page, and its error is
            // superseded by those of the pages' own pushes.
            guard.stats.bump(Counter::PushBatchSplits);
            let _ = guard.queue_push(id, rec, true);
            let mut dead = false;
            for (i, p) in pages.into_iter().enumerate() {
                if dead || !guard.pages.contains(p) {
                    guard.finish_clean(p, None);
                    continue;
                }
                let (held, id, mut rec) = push(guard, offset + i as u64 * ps, 1);
                guard = held;
                dead = rec.result.as_ref().is_err_and(|e| !e.is_transient());
                rec.pages = vec![p];
                if let Err(e) = guard.queue_push(id, rec, wait) {
                    err.get_or_insert(e);
                }
            }
        }
        match err {
            None => Ok(guard),
            Some(e) => {
                drop(guard);
                self.stub_cv.notify_all();
                Err(e)
            }
        }
    }

    /// Force-delivers every outstanding completion, advancing the
    /// simulated clock as each transfer lands. Deterministic
    /// `(due, id)` order. Call at the end of a measurement window so
    /// the tables include all in-flight work; a no-op with the engine
    /// idle.
    pub fn drain_upcalls(&self) {
        while self.state.lock(LockEntry::Gmi).force_delivery(false) {
            self.stub_cv.notify_all();
        }
    }

    /// Performs a blocked action, re-acquiring the lock afterwards.
    fn perform<'a>(&'a self, mut guard: StateGuard<'a>, action: Blocked) -> Result<StateGuard<'a>> {
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
                guard.wait_for(&self.stub_cv, Duration::from_millis(50));
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
                        guard.wait_for(&self.stub_cv, Duration::from_millis(5));
                    }
                }
                Ok(self.submit_pull(guard, cache, req))
            }
            Blocked::PushOut {
                cache,
                segment,
                offset,
                pages,
                origin,
            } => {
                // A demand push is the faulter stalling on a dirty
                // eviction, the latency write-behind exists to remove: it
                // has a histogram of its own.
                let stall = match origin {
                    PushOrigin::Demand => self.trace.phase_start(),
                    _ => None,
                };
                let held = self.submit_push(guard, (cache, segment, offset), pages, origin);
                self.trace.phase_end(Phase::EvictStall, stall);
                held
            }
            Blocked::NeedSegment { cache } => {
                drop(guard);
                let segment = self.seg_mgr.create_segment_v2(pub_cache(cache));
                let seg_len = self.seg_mgr.segment_len(segment);
                let mut guard = self.state.lock(LockEntry::Relock);
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
                    self.upcall_with_retry(UpcallKind::GetWriteAccess, at, policy, || {
                        self.seg_mgr.acquire_write_access(segment, offset, size)
                    });
                self.trace.phase_end(Phase::GetWriteAccess, t0);
                let mut guard = self.state.lock(LockEntry::Relock);
                // Each retry is its own upcall on the wire.
                guard.stats.add(Counter::WriteAccessUpcalls, 1 + retries);
                guard.count(Counter::MapperRetries, retries, At::Mapper(segment));
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
                            guard.count(Counter::MapperTimeouts, 1, At::Mapper(segment));
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
        // The byte form lands copies: one page of its own per chunk.
        let ps = self.geom.page_size() as usize;
        self.fill_up_pages(cache, offset, data.chunks(ps).map(private_copy).collect())
    }

    fn fill_up_pages(&self, cache: CacheId, offset: u64, pages: Vec<Page>) -> Result<()> {
        let key = cache_key(cache);
        let ps = self.geom.page_size();
        debug_assert!(offset.is_multiple_of(ps), "fillUp must start page-aligned");
        // Pages of another size (a mapper paging in its own) are cut
        // into ours, which copies them.
        let ours = pages.split_last().is_none_or(|(last, rest)| {
            last.len() as u64 <= ps && rest.iter().all(|p| p.len() as u64 == ps)
        });
        let pages = match ours {
            true => pages,
            false => pages
                .concat()
                .chunks(ps as usize)
                .map(private_copy)
                .collect(),
        };
        // One state-lock hold per delivery: every page lands through
        // its own driver entry under it, and the lock is only given up
        // where an attempt blocks (a dirty victim to push).
        let mut guard = self.state.lock(LockEntry::FillUp);
        guard.cache(key)?;
        for (i, page) in pages.iter().enumerate() {
            let page_off = offset + i as u64 * ps;
            match self.drive(guard, |s| s.fill_up_page_attempt(key, page_off, page)) {
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
        let read = self.copy_back_run(cache, offset, buf)?;
        short_copy_back(self.geom, offset, buf.len() as u64, read)
    }

    fn copy_back_run(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<u64> {
        // The pages are shared under the lock and copied out after it.
        let skip = offset - self.geom.round_down(offset);
        let pages = self.copy_back_pages(cache, offset - skip, skip + buf.len() as u64)?;
        Ok(copy_out(&pages, skip, buf))
    }

    fn copy_back_pages(&self, cache: CacheId, offset: u64, size: u64) -> Result<Vec<Page>> {
        let key = cache_key(cache);
        let guard = self.state.lock(LockEntry::CopyBack);
        guard.resident_pages(key, offset, size)
    }

    fn move_back(&self, cache: CacheId, offset: u64, buf: &mut [u8]) -> Result<()> {
        let key = cache_key(cache);
        let skip = offset - self.geom.round_down(offset);
        let mut guard = self.state.lock(LockEntry::CopyBack);
        let pages = guard.resident_pages(key, offset - skip, skip + buf.len() as u64)?;
        let read = copy_out(&pages, skip, buf);
        short_copy_back(self.geom, offset, buf.len() as u64, read)?;
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

/// `copyBack` is all or nothing: `OutOfRange` at the first page of
/// `[offset, offset + len)` that was not resident when `read` bytes were.
fn short_copy_back(geom: PageGeometry, offset: u64, len: u64, read: u64) -> Result<()> {
    if read < len {
        return Err(GmiError::OutOfRange {
            offset: geom.round_down(offset + read),
            size: geom.page_size(),
            what: "copyBack of non-resident data",
        });
    }
    Ok(())
}

/// Copies the bytes of `pages`, from `skip` bytes into the first, into
/// `buf`: as many as both hold. Returns how many.
fn copy_out(pages: &[Page], skip: u64, buf: &mut [u8]) -> u64 {
    let mut cur = 0usize;
    let mut skip = skip as usize;
    for page in pages {
        let n = (page.len() - skip).min(buf.len() - cur);
        buf[cur..cur + n].copy_from_slice(&page[skip..skip + n]);
        (cur, skip) = (cur + n, 0);
        if cur == buf.len() {
            break;
        }
    }
    cur as u64
}

impl PvmState {
    /// One attempt of delivering one page of `fillUp` data.
    pub(crate) fn fill_up_page_attempt(
        &mut self,
        cache: crate::keys::CacheKey,
        page_off: u64,
        data: &Page,
    ) -> Attempt<()> {
        if self.caches.get(cache).is_none() {
            // The cache died while the pull was in flight; drop the data.
            if self.gmap.get(cache, page_off) == Some(Slot::Sync) {
                self.gmap.remove(cache, page_off);
            }
            return Ok(());
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
            Some(Slot::Present(_)) => return Ok(()),
            Some(Slot::Sync) => self.engine.parked.get(&(cache, page_off)).copied(),
            _ => None,
        };
        if let Some(Parked::Filled { .. }) = parked {
            // A duplicate delivery: the first one stands.
            return Ok(());
        }
        // Failing this allocation would strand the pulled data and
        // error the recovery, so it degrades through an emergency
        // eviction pass before giving up.
        let frame = match self.alloc_frame() {
            Err(Stop::Failed(GmiError::OutOfMemory)) if self.emergency_evict() > 0 => {
                self.alloc_frame()?
            }
            other => other?,
        };
        // The frame takes the mapper's page by reference; a partial
        // trailing chunk is copied in and zero-padded.
        if parked.is_some() {
            // The transfer into the frame is the mapper's; the copy is
            // charged when the page lands (`PvmState::deliver_page`).
            self.phys.adopt(frame, data.clone());
            self.park(cache, page_off, frame);
        } else {
            self.phys.fill(frame, data.clone());
            let page = self.new_page(cache, page_off, frame, true, false);
            self.land_page(cache, page_off, page);
        }
        Ok(())
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
            self.count(Counter::ReadaheadPages, 1, At::Cache(cache));
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

    /// The pages of the longest fully-resident prefix of `[offset,
    /// offset + size)` (`offset` page aligned), shared with their
    /// frames: `copyBack`'s reply, by reference. A page that vanished
    /// mid-run (writeback racing an invalidate) shortens it instead of
    /// failing the whole batch; a first page not resident fails it.
    pub(crate) fn resident_pages(
        &self,
        cache: crate::keys::CacheKey,
        offset: u64,
        size: u64,
    ) -> Result<Vec<Page>> {
        self.cache(cache)?;
        debug_assert!(
            offset.is_multiple_of(self.ps()),
            "copyBack runs are page-aligned"
        );
        let mut pages = Vec::new();
        for page_off in (offset..offset + size).step_by(self.ps() as usize) {
            match self.gmap.get(cache, page_off) {
                Some(Slot::Present(p)) => pages.push(self.phys.share(self.page(p).frame)),
                _ if pages.is_empty() => {
                    return Err(GmiError::OutOfRange {
                        offset: page_off,
                        size: self.ps(),
                        what: "copyBack of non-resident data",
                    })
                }
                _ => break,
            }
        }
        Ok(pages)
    }

    /// Grows a cache's known segment length after a `pushOut` extended
    /// the segment to `end`. An unknown length stays unknown (it only
    /// disables the readahead clamp, never a pull).
    pub(crate) fn grow_seg_len(&mut self, cache: crate::keys::CacheKey, end: u64) {
        if let Some(len) = self.caches.get_mut(cache).and_then(|c| c.seg_len.as_mut()) {
            *len = (*len).max(end);
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
        let mut guard = self.state.lock(LockEntry::Gmi);
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
        let mut guard = self.state.lock(LockEntry::Gmi);
        Ok(pub_ctx(guard.context_create_locked()))
    }

    fn context_destroy(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.context_destroy_locked(ctx_key(ctx))
    }

    fn context_switch(&self, ctx: CtxId) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.context_switch_locked(ctx_key(ctx))
    }

    fn region_list(&self, ctx: CtxId) -> Result<Vec<(RegionId, RegionStatus)>> {
        let guard = self.state.lock(LockEntry::Gmi);
        let desc = guard.ctx(ctx_key(ctx))?;
        desc.regions
            .iter()
            .map(|&r| Ok((pub_region(r), guard.region_status_locked(r)?)))
            .collect()
    }

    fn find_region(&self, ctx: CtxId, va: VirtAddr) -> Result<RegionId> {
        let guard = self.state.lock(LockEntry::Gmi);
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
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard
            .region_create_locked(ctx_key(ctx), addr, size, prot, cache_key(cache), offset)
            .map(pub_region)
    }

    fn region_split(&self, region: RegionId, offset: u64) -> Result<RegionId> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard
            .region_split_locked(region_key(region), offset)
            .map(pub_region)
    }

    fn region_set_protection(&self, region: RegionId, prot: Prot) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.region_set_protection_locked(region_key(region), prot)
    }

    fn region_lock_in_memory(&self, region: RegionId) -> Result<()> {
        let key = region_key(region);
        self.run(|s| s.region_lock_attempt(key))
    }

    fn region_unlock(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.region_unlock_locked(region_key(region))
    }

    fn region_status(&self, region: RegionId) -> Result<RegionStatus> {
        let guard = self.state.lock(LockEntry::Gmi);
        guard.region_status_locked(region_key(region))
    }

    fn region_destroy(&self, region: RegionId) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
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
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.cache_set_protection_locked(cache_key(cache), offset, size, prot)
    }

    fn cache_lock_in_memory(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let key = cache_key(cache);
        let mut pinned = 0u64;
        self.run(|s| s.cache_lock_attempt(key, offset, size, &mut pinned))
    }

    fn cache_unlock(&self, cache: CacheId, offset: u64, size: u64) -> Result<()> {
        let mut guard = self.state.lock(LockEntry::Gmi);
        guard.cache_unlock_locked(cache_key(cache), offset, size)
    }

    fn handle_fault(&self, ctx: CtxId, va: VirtAddr, access: Access) -> Result<()> {
        let key = ctx_key(ctx);
        let res = self
            .fault_held(self.state.lock(LockEntry::Fault), key, va, access)
            .map(drop);
        self.stub_cv.notify_all();
        res
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
        let guard = self.state.lock(LockEntry::Gmi);
        let key = cache_key(cache);
        let desc = guard.cache(key)?;
        Ok(desc
            .entries
            .iter()
            .filter(|&o| matches!(guard.gmap.get(key, o), Some(Slot::Present(_))))
            .count() as u64)
    }
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
    /// `handle_fault` under a state lock the caller holds, returned still
    /// held (released on error) with sleepers not yet woken.
    fn fault_held<'a>(
        &'a self,
        guard: StateGuard<'a>,
        key: CtxKey,
        va: VirtAddr,
        access: Access,
    ) -> Result<StateGuard<'a>> {
        let fstart = self.trace.fault_enter(key.index(), va.0, access);
        let mut first = true;
        let res = self.run_held(guard, |s| {
            let head = std::mem::take(&mut first);
            if head {
                s.charge(chorus_hal::OpKind::FaultEntry);
            }
            s.fault_attempt(key, va, access, head)
        });
        let resolution = res.as_ref().map_or(Resolution::Failed, |(_, r)| *r);
        self.trace.fault_exit(fstart, key.index(), va.0, resolution);
        res.map(|(guard, _)| guard)
    }

    /// The faulting user-access loop, one state-lock hold per page:
    /// translate, fault, retry — crossing page and region boundaries.
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
            let mut guard = self.state.lock(LockEntry::VmAccess);
            let res = loop {
                let mmu_ctx = match guard.ctx(key) {
                    Ok(c) => c.mmu_ctx,
                    Err(e) => break Err(e),
                };
                match guard.mmu.translate(mmu_ctx, addr, access, false) {
                    Ok(pa) => {
                        let chunk = cur as usize..cur as usize + n;
                        match &mut buf {
                            AccessBuf::Read(b) => guard.phys.read_phys(pa, &mut b[chunk]),
                            AccessBuf::Write(b) => guard.phys.write_phys(pa, &b[chunk]),
                        }
                        break Ok(());
                    }
                    Err(_fault) => {
                        let held = self.fault_held(guard, key, addr, access);
                        guard = held.inspect_err(|_| self.stub_cv.notify_all())?;
                        tries += 1;
                        assert!(tries < 64, "fault livelock at {addr:?}");
                    }
                }
            };
            drop(guard);
            if tries > 0 {
                self.stub_cv.notify_all();
            }
            res?;
            cur += n as u64;
        }
        Ok(())
    }
}
