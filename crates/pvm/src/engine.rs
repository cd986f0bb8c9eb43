//! Split-phase pulls and the completion engine (DESIGN.md §10).
//!
//! In the paper `pullIn` is an upcall and `fillUp` a separate downcall,
//! and the PVM runs them that way: a miss places the window's
//! synchronization stubs, submits **one** `pullIn` for the window and
//! goes back to its attempt. The mapper protocol (retry budget
//! included) runs eagerly at submit with the state lock released; what
//! `fillUp` delivers meanwhile is *parked* ([`Parked`]) — the page is
//! built, but stays off the global map — until its *arrival time*: page
//! `k` of a window submitted at simulated time `t` arrives at
//! `t + IpcOp + (k + 1) * SegmentIoPage`. Until then the stub stands, so
//! nobody (fault, `cache_read` and its kin, `copyBack`, a COW walk, the
//! pageout policy) can observe the bytes; a toucher, faulter or not,
//! waits on the stub until that page's arrival, not the window's end.
//!
//! Mapper service (`IpcOp`, `SegmentIoPage`) is the only cost that
//! overlaps other work: it is counted, never charged, because whoever
//! needed the page waited for it on the clock. The landing (`BzeroPage`,
//! the copy into the frame) is charged when the page lands: in a wait's
//! idle gap if it arrives there and fits, else in its first toucher's
//! operation (the `MapPage` is the toucher's fault's either way).
//!
//! A window is one [`CompletionRecord`], due at its last arrival, where
//! it lands what nobody came for. Every `pushOut` is the other kind of
//! record: a laundering one is fire-and-collect, its bookkeeping
//! applied at the due time; one somebody waits for (a demand eviction,
//! a sync) settles as soon as it is answered, through the same
//! delivery ([`PvmState::queue_push`]). Records leave the queue in
//! `(due-time, request-id)` order ([`chorus_gmi::CompletionQueue`]), so
//! the same operations produce bit-identical counters and clocks:
//! everything already due at driver entry, and *forced* — the clock
//! advanced to the due time — for a waiter on something only a
//! completion resolves, a frame-starved allocation, a submit over the
//! cap. A mapper (a segment: the finest mapper identity the PVM sees)
//! has at most [`MAX_INFLIGHT`] requests in flight, and its last free
//! slot is a faulter's: a laundering push and an ahead pull go out only
//! while two are free ([`EngineState::free_slots`]), so a faulter forces
//! a delivery first only when a faulter's window holds the last one.

use crate::keys::{CacheKey, PageKey};
use crate::state::{PvmState, StubsTo};
use crate::stats::Counter;
use crate::telemetry::At;
use crate::trace::{TraceEvent, UpcallKind};
use chorus_gmi::{CompletionQueue, GmiError, Result, SegmentId};
use chorus_hal::{FxHashMap, OpKind};
use std::collections::BTreeSet;

/// A submitted upcall whose bookkeeping awaits delivery.
#[derive(Debug)]
pub(crate) struct CompletionRecord {
    /// Pull or push (never `GetWriteAccess`: a faulting writer
    /// cannot proceed without the answer, so there is no latency to
    /// hide).
    pub kind: UpcallKind,
    /// Target cache.
    pub cache: CacheKey,
    /// Its segment.
    pub segment: SegmentId,
    /// Page-aligned fragment offset.
    pub offset: u64,
    /// Fragment size in bytes.
    pub size: u64,
    /// For pushes: the run of pages left `cleaning` until delivery
    /// (none for a failed batch, whose pages are re-driven one by one).
    pub pages: Vec<PageKey>,
    /// The mapper protocol's final result (retries already ran).
    pub result: Result<()>,
    /// Transient retries the protocol performed at submit time.
    pub retries: u64,
    /// Absolute simulated deadline: submit time plus the retry
    /// policy's per-upcall deadline (`u64::MAX` when deadlines are
    /// disabled). The watchdog cancels the request once the clock
    /// passes this while the record is still undelivered.
    pub deadline_ns: u64,
    /// The submit instant; a window's arrival times count from it (see
    /// [`PvmState::arrival_ns`]).
    pub submit_ns: u64,
}

/// Simulated "never": the due time given to a request whose mapper
/// protocol timed out at submit — the reply will not arrive on its
/// own. One simulated hour: far beyond any workload's horizon but
/// finite, so a forced delivery advances the clock instead of
/// overflowing it. The watchdog cancels such requests at their
/// deadline; with `retry.deadline_ns == 0` there is none, and forcing
/// one waits the hour out (the observable hang in the ablation tests).
pub(crate) const HUNG_REPLY_NS: u64 = 3_600_000_000_000;

/// Requests one mapper may have in flight (1 while it is Suspected).
pub(crate) const MAX_INFLIGHT: u64 = 4;

/// Watchdog timeouts (since the mapper's last successful delivery)
/// after which it is Suspected: its in-flight cap shrinks to 1.
pub(crate) const SUSPECT_AFTER_TIMEOUTS: u32 = 2;

/// Watchdog timeouts after which the affected cache is quarantined
/// outright (the full `CachePoisoned` escalation).
pub(crate) const QUARANTINE_AFTER_TIMEOUTS: u32 = 4;

/// One page of a pull window in flight. Its synchronization stub is in
/// the global map; what will replace the stub at the page's arrival
/// waits here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Parked {
    /// `fillUp` has not delivered the page (yet).
    Empty,
    /// `fillUp` wrote the page's bytes into a frame and built its
    /// descriptor around it: `page`, pinned, not yet in the global map.
    /// `arrival_ns` is stamped when the mapper protocol has answered
    /// (`u64::MAX` until then, and for good if it failed: only the
    /// window's completion can say what becomes of the page).
    Filled { page: PageKey, arrival_ns: u64 },
}

/// The engine's state, living inside the PVM's one state mutex so
/// submissions and deliveries serialize with every other attempt.
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    /// Completions ordered by `(due_ns, request_id)`.
    pub queue: CompletionQueue<CompletionRecord>,
    /// The pages of every pull window in flight that have not arrived,
    /// by (cache, offset). Empty when no pull is in flight. A key whose
    /// window is still queued but which is gone from here was given up
    /// on (its cache was destroyed): the delivery finds nothing to land.
    pub parked: FxHashMap<(CacheKey, u64), Parked>,
    /// Monotonic request-id source (ids start at 1).
    next_id: u64,
    /// Every in-flight request id (submitted, not yet delivered). The
    /// minimum surviving id below a delivered id is the out-of-order
    /// delivery signal.
    inflight_ids: BTreeSet<u64>,
    /// In-flight request count per segment (the per-mapper cap proxy).
    inflight_by_segment: FxHashMap<u64, u64>,
    /// Watchdog timeouts per segment since its last successful
    /// delivery; feeds the Suspected/quarantine escalation ladder.
    timeouts_by_segment: FxHashMap<u64, u32>,
    /// Segments whose mapper is currently Suspected: in-flight cap
    /// shrunk to 1, so every request waits out the one before it.
    suspected: BTreeSet<u64>,
}

impl EngineState {
    pub fn new() -> EngineState {
        EngineState {
            next_id: 1,
            ..EngineState::default()
        }
    }

    /// True when `segment`'s mapper is under suspicion (repeated
    /// watchdog timeouts without a successful delivery in between).
    pub fn is_suspected(&self, segment: SegmentId) -> bool {
        self.suspected.contains(&segment.0)
    }

    /// The in-flight slots `segment`'s mapper has free under its cap:
    /// [`MAX_INFLIGHT`], shrunk to 1 while the mapper is Suspected. A
    /// faulter's pull needs one; background work (a laundering push, an
    /// ahead pull) goes out only while there are two, so it never takes
    /// the slot the next faulter would otherwise wait for.
    pub fn free_slots(&self, segment: SegmentId) -> u64 {
        let cap = if self.is_suspected(segment) {
            1
        } else {
            MAX_INFLIGHT
        };
        let inflight = self.inflight_by_segment.get(&segment.0);
        cap.saturating_sub(inflight.copied().unwrap_or(0))
    }

    /// Records one watchdog timeout against `segment`; returns the
    /// total observed since the last successful delivery.
    pub fn note_timeout(&mut self, segment: SegmentId) -> u32 {
        let n = self.timeouts_by_segment.entry(segment.0).or_insert(0);
        *n += 1;
        *n
    }

    /// Marks `segment` Suspected; returns true on the transition.
    pub fn mark_suspected(&mut self, segment: SegmentId) -> bool {
        self.suspected.insert(segment.0)
    }

    /// A successful delivery clears `segment`'s suspicion and timeout
    /// count: the mapper is demonstrably alive again.
    pub fn note_success(&mut self, segment: SegmentId) {
        self.timeouts_by_segment.remove(&segment.0);
        self.suspected.remove(&segment.0);
    }

    /// Total in-flight requests (all mappers).
    pub fn inflight(&self) -> u64 {
        self.inflight_ids.len() as u64
    }

    /// Allocates a request id and enters it in the in-flight table.
    pub fn register(&mut self, segment: SegmentId) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.inflight_ids.insert(id);
        *self.inflight_by_segment.entry(segment.0).or_insert(0) += 1;
        id
    }

    /// Removes a delivered id; returns true when an older request is
    /// still in flight (this delivery overtook it).
    fn retire(&mut self, id: u64, segment: SegmentId) -> bool {
        self.inflight_ids.remove(&id);
        if let Some(n) = self.inflight_by_segment.get_mut(&segment.0) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight_by_segment.remove(&segment.0);
            }
        }
        self.inflight_ids.first().is_some_and(|&oldest| oldest < id)
    }

    // ----- introspection (pvmtop) ------------------------------------------

    /// Segments currently Suspected, ascending.
    pub fn suspected_segments(&self) -> Vec<u64> {
        self.suspected.iter().copied().collect()
    }

    /// Watchdog timeouts per segment since its last successful
    /// delivery, ascending by segment id.
    pub fn timeout_counts(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<_> = self
            .timeouts_by_segment
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }

    /// In-flight request counts per segment, ascending by segment id.
    pub fn inflight_counts(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = self
            .inflight_by_segment
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }
}

impl PvmState {
    /// The modelled service time of a fire-and-collect upcall covering
    /// `pages` pages: one mapper round trip plus the per-page transfer,
    /// read from the cost parameters *without* charging.
    pub(crate) fn upcall_service_ns(&self, pages: u64) -> u64 {
        let p = self.model.params();
        p.get(OpKind::IpcOp) + pages * p.get(OpKind::SegmentIoPage)
    }

    /// Blocks until simulated time `t`: the clock moves there unless it
    /// is past it already. The CPU is idle meanwhile, so the parked
    /// pages that have arrived, or arrive before `t`, land in the gap in
    /// arrival order, each at its arrival or once the one before it has
    /// landed (the paper's `fillUp` lands a page when it is there). Only
    /// a page whose whole landing ends by `t` lands; the others stay
    /// parked for their first toucher, so no wait ends later for them.
    fn advance_to(&mut self, t: u64) {
        if self.model.now().nanos() < t {
            let mut arrived: Vec<_> = (self.engine.parked.iter())
                .filter_map(|(&key, parked)| match *parked {
                    Parked::Filled { arrival_ns, .. } if arrival_ns < t => Some((arrival_ns, key)),
                    _ => None,
                })
                .collect();
            arrived.sort_unstable();
            for (arrival_ns, (cache, off)) in arrived {
                let now = self.model.now().nanos();
                if now.max(arrival_ns) + self.landing_ns(cache, off) <= t {
                    self.model.advance_ns(arrival_ns.saturating_sub(now));
                    self.deliver_page(cache, off);
                }
            }
        }
        self.model
            .advance_ns(t.saturating_sub(self.model.now().nanos()));
    }

    /// What landing the page parked at (cache, off) costs on the clock:
    /// the copy into the frame, and `land_page`'s global-map lookup and
    /// inserts (the page's own, and one per location stub it threads).
    fn landing_ns(&self, cache: CacheKey, off: u64) -> u64 {
        let p = self.model.params();
        let inserts = 2 + self.gmap.loc_stubs_at(cache, off) as u64;
        p.get(OpKind::BzeroPage) + inserts * p.get(OpKind::GlobalMapOp)
    }

    /// Enters a request in the in-flight table. Returns its id and the
    /// record its completion will carry, to be completed with what the
    /// mapper protocol answers and queued at its due time.
    pub(crate) fn begin_request(
        &mut self,
        kind: UpcallKind,
        cache: CacheKey,
        segment: SegmentId,
        (offset, size): (u64, u64),
        pages: u64,
    ) -> (u64, CompletionRecord) {
        let submit_ns = self.model.now().nanos();
        let id = self.engine.register(segment);
        self.stats.bump(Counter::AsyncSubmits);
        let inflight = self.engine.inflight();
        let last_arrival_ns = submit_ns + self.upcall_service_ns(pages);
        self.trace.event(|| TraceEvent::UpcallSubmit {
            kind,
            segment: segment.0,
            offset,
            size,
            inflight,
            pages,
            last_arrival_ns,
        });
        let rec = CompletionRecord {
            kind,
            cache,
            segment,
            offset,
            size,
            pages: Vec::new(),
            result: Ok(()),
            retries: 0,
            deadline_ns: match self.config.retry.deadline_ns {
                0 => u64::MAX,
                deadline => submit_ns.saturating_add(deadline),
            },
            submit_ns,
        };
        (id, rec)
    }

    /// When page `k` (0-based, the faulting page is 0) of a window
    /// submitted at `submit_ns` arrives: `submit_ns + IpcOp + (k + 1) *
    /// SegmentIoPage`.
    fn arrival_ns(&self, rec: &CompletionRecord, k: u64) -> u64 {
        rec.submit_ns + self.upcall_service_ns(k + 1)
    }

    /// Queues a pull window whose mapper protocol has answered. A
    /// healthy one has its parked pages stamped with their arrival
    /// times and is due at the last; one that failed answers once, when
    /// its first page would have; one that timed out never answers on
    /// its own.
    pub(crate) fn queue_window(&mut self, id: u64, mut rec: CompletionRecord) {
        let (ps, pages) = (self.ps(), rec.size / self.ps());
        self.count(Counter::MapperRetries, rec.retries, At::Mapper(rec.segment));
        let head = self.engine.parked.get(&(rec.cache, rec.offset));
        if rec.result.is_ok() && !matches!(head, Some(Parked::Filled { .. })) {
            // The mapper never delivered the faulting page.
            rec.result = Err(GmiError::SegmentIo {
                segment: rec.segment,
                cause: "pullIn returned without fillUp".into(),
                transient: true,
            });
        }
        let due = match rec.result {
            Ok(()) => {
                // The mapper's service is only counted: whoever needs a
                // page waits for it on the clock.
                self.count(Counter::PullIns, 1, At::Io(rec.cache, rec.segment));
                self.model.count_only(OpKind::IpcOp);
                self.model.count_only_n(OpKind::SegmentIoPage, pages);
                for k in 0..pages {
                    let at = self.arrival_ns(&rec, k);
                    if let Some(Parked::Filled { arrival_ns, .. }) = self
                        .engine
                        .parked
                        .get_mut(&(rec.cache, rec.offset + k * ps))
                    {
                        *arrival_ns = at;
                    }
                }
                self.arrival_ns(&rec, pages - 1)
            }
            Err(GmiError::MapperTimeout { .. }) => rec.submit_ns + HUNG_REPLY_NS,
            Err(_) => self.arrival_ns(&rec, 0),
        };
        self.engine.queue.insert(due, id, rec);
    }

    /// Hands on a `pushOut` whose mapper protocol has answered. Nothing
    /// waits on a daemon push: it is queued, due when its transfer would
    /// end, or never on its own if it timed out (the watchdog cancels
    /// it). A waited one (`wait`) settles at once, the clock advanced
    /// over the transfer if it succeeded and left where it is if not (a
    /// timed-out one's retry loop has passed the deadline already), and
    /// its error is returned.
    pub(crate) fn queue_push(&mut self, id: u64, rec: CompletionRecord, wait: bool) -> Result<()> {
        self.count(Counter::MapperRetries, rec.retries, At::Mapper(rec.segment));
        let service = match &rec.result {
            Err(_) if wait => 0,
            Err(GmiError::MapperTimeout { .. }) => HUNG_REPLY_NS,
            _ => self.upcall_service_ns(rec.size / self.ps()),
        };
        let due = self.model.now().nanos() + service;
        if !wait {
            self.engine.queue.insert(due, id, rec);
            return Ok(());
        }
        let result = rec.result.clone();
        self.apply_completion(due, id, rec);
        result
    }

    /// Waits for the page parked at (cache, off), if the wait is for
    /// that and nothing more: the clock advances to the page's arrival
    /// (no further), landing what arrives and fits before it, and the
    /// page lands. False when there is no such page — the stub is a
    /// window's still mid-submit, or one whose mapper failed, or the
    /// wait is for a completion.
    pub(crate) fn await_page(&mut self, cache: CacheKey, off: u64) -> bool {
        match self.engine.parked.get(&(cache, off)) {
            Some(&Parked::Filled { arrival_ns, .. }) if arrival_ns != u64::MAX => {
                self.stats.bump(Counter::AsyncInflightStalls);
                self.advance_to(arrival_ns);
                self.deliver_page(cache, off);
                true
            }
            _ => false,
        }
    }

    /// Delivers the page parked at (cache, off), if it is still there:
    /// it takes its stub's place in the global map, and its landing
    /// (`BzeroPage`) is charged here, once: in the idle gap of a wait
    /// ([`Self::advance_to`]), a completion, or its first toucher's
    /// wait. One the mapper never filled leaves no stub: whoever sleeps
    /// on it drives a pull of their own.
    fn deliver_page(&mut self, cache: CacheKey, off: u64) {
        match self.engine.parked.remove(&(cache, off)) {
            Some(Parked::Filled { page, .. }) => {
                self.charge(OpKind::BzeroPage);
                self.page_mut(page).lock_count -= 1;
                self.land_page(cache, off, page);
            }
            Some(unfilled) => self.drop_parked(cache, off, unfilled),
            None => {}
        }
    }

    /// Gives up one page of a window in flight: frees its frame and
    /// clears its stub, so a sleeper wakes and re-faults. The window
    /// stays queued and finds nothing to land.
    pub(crate) fn drop_parked(&mut self, cache: CacheKey, off: u64, parked: Parked) {
        match parked {
            Parked::Empty => {}
            Parked::Filled { page, .. } => {
                self.free_page(page, StubsTo::AlreadyHandled, true);
            }
        }
        if self.is_sync_stub(cache, off) {
            self.clear_slot(cache, off);
        }
    }

    /// Applies one delivered completion under the state lock, advancing
    /// the clock to its due time if that is still ahead (a forced
    /// delivery: somebody blocked until the transfer finished), and
    /// concludes the request.
    pub(crate) fn apply_completion(&mut self, due_ns: u64, id: u64, rec: CompletionRecord) {
        self.advance_to(due_ns);
        let ps = self.ps();
        let overtook = self.engine.retire(id, rec.segment);
        if overtook {
            self.stats.bump(Counter::AsyncOutOfOrder);
        }
        self.stats.bump(Counter::AsyncDeliveries);
        let pages = rec.size / ps;
        match rec.kind {
            UpcallKind::PullIn => {
                // What is left of the window lands, if it has arrived. A
                // failed or cancelled window gives up exactly the pages
                // that have not: their frames go back to the pool and
                // their stubs go, so every faulter asleep on one
                // re-drives a pull of its own.
                let now = self.model.now().nanos();
                for k in 0..pages {
                    let off = rec.offset + k * ps;
                    match self.engine.parked.get(&(rec.cache, off)) {
                        Some(&Parked::Filled { arrival_ns, .. }) if arrival_ns <= now => {
                            self.deliver_page(rec.cache, off);
                        }
                        Some(&parked) => {
                            self.engine.parked.remove(&(rec.cache, off));
                            self.drop_parked(rec.cache, off, parked);
                        }
                        None => {}
                    }
                }
                // The faulter gets the error of its own pull (see
                // `PvmState::demand_pulls`); other sleepers re-drive the
                // pull and get one of their own.
                if let Err(e) = &rec.result {
                    let demand = self.demand_pulls.get_mut(&(rec.cache, rec.offset));
                    if let Some(waiting @ Ok(None)) = demand {
                        *waiting = Err(e.clone());
                    }
                }
            }
            UpcallKind::PushOut => {
                if rec.result.is_ok() {
                    self.model.count_only(OpKind::IpcOp);
                    self.model.count_only_n(OpKind::SegmentIoPage, pages);
                    self.stats.bump(Counter::PushOutBatches);
                    for &p in &rec.pages {
                        self.finish_clean(p, Some(rec.segment));
                    }
                    self.grow_seg_len(rec.cache, rec.offset + rec.size);
                } else {
                    // The pages keep their dirty bits: no modified data
                    // is lost, the next laundering pass re-drives them.
                    for &p in &rec.pages {
                        self.finish_clean(p, None);
                    }
                }
            }
            UpcallKind::GetWriteAccess => unreachable!("write access is never asynchronous"),
        }
        match &rec.result {
            // A live reply exonerates a Suspected mapper.
            Ok(()) => self.engine.note_success(rec.segment),
            Err(e) => {
                if matches!(e, GmiError::MapperTimeout { .. }) {
                    self.count(Counter::MapperTimeouts, 1, At::Mapper(rec.segment));
                }
                if !e.is_transient() {
                    self.quarantine_cache(rec.cache);
                }
            }
        }
        let inflight = self.engine.inflight();
        self.trace.event(|| TraceEvent::UpcallComplete {
            kind: rec.kind,
            outcome: crate::pvm::upcall_outcome(&rec.result),
            retries: rec.retries,
            inflight,
            pages,
            last_arrival_ns: due_ns,
        });
    }

    /// Delivers every completion already due at the current simulated
    /// time. Runs at every driver entry.
    pub(crate) fn pump_completions(&mut self) {
        while let Some((due, id, rec)) = self.engine.queue.pop_due(self.model.now().nanos()) {
            self.apply_completion(due, id, rec);
        }
    }

    /// Force-delivers the earliest in-flight completion, advancing the
    /// simulated clock to its due time — a stub waiter, a frame-starved
    /// allocation or a submit over the cap modelling a block until the
    /// transfer lands (`stall`; not so when a measurement drains the
    /// engine). False when there was nothing to deliver.
    pub(crate) fn force_delivery(&mut self, stall: bool) -> bool {
        let Some((due, id, rec)) = self.engine.queue.pop_earliest() else {
            return false;
        };
        self.performed += 1;
        if stall {
            self.stats.bump(Counter::AsyncInflightStalls);
        }
        if rec.deadline_ns < due {
            // The waiter would block until a due time past the
            // request's deadline (a hung reply). The unified wake
            // path: advance only to the deadline and cancel, so the
            // waiter observes the timeout and re-faults instead of
            // waiting out a reply that never comes.
            self.advance_to(rec.deadline_ns);
            self.cancel_completion(id, rec);
        } else {
            self.apply_completion(due, id, rec);
        }
        true
    }

    /// Cancels one in-flight completion whose deadline expired: the
    /// request is failed as a mapper timeout through the ordinary
    /// delivery path (a window gives up the pages that have not arrived
    /// so sleepers re-fault, push pages keep their dirty bits for
    /// relaundering — the existing transient taxonomy), and the timeout
    /// is scored against the mapper for the Suspected/quarantine
    /// escalation ladder. The record is applied at the *current* clock:
    /// a cancellation never advances simulated time to the hung due
    /// time.
    pub(crate) fn cancel_completion(&mut self, id: u64, mut rec: CompletionRecord) {
        let segment = rec.segment;
        let cache = rec.cache;
        self.count(Counter::WatchdogCancels, 1, At::Mapper(segment));
        self.trace.event(|| TraceEvent::WatchdogCancel {
            kind: rec.kind,
            segment: segment.0,
        });
        rec.result = Err(GmiError::MapperTimeout { segment });
        let now = self.model.now().nanos();
        self.apply_completion(now, id, rec);
        let n = self.engine.note_timeout(segment);
        if n >= SUSPECT_AFTER_TIMEOUTS && self.engine.mark_suspected(segment) {
            self.stats.bump(Counter::SuspectedMappers);
            self.trace.event(|| TraceEvent::MapperSuspected {
                segment: segment.0,
                timeouts: n,
            });
        }
        if n >= QUARANTINE_AFTER_TIMEOUTS {
            self.quarantine_cache(cache);
        }
    }

    /// The deadline watchdog sweep: cancels every in-flight completion
    /// whose per-request deadline has expired on the simulated clock
    /// while its due time is still in the future (a record already due
    /// is delivered normally by the next pump). Runs at driver entry;
    /// returns the number of cancellations so the driver can wake stub
    /// sleepers whose stubs were just cleared.
    pub(crate) fn watchdog_sweep(&mut self) -> usize {
        if self.engine.queue.is_empty() {
            return 0;
        }
        let now = self.model.now().nanos();
        let expired: Vec<(u64, u64)> = self
            .engine
            .queue
            .iter()
            .filter(|(&(due, _), rec)| due > now && rec.deadline_ns <= now)
            .map(|(&k, _)| k)
            .collect();
        let n = expired.len();
        for (due, id) in expired {
            if let Some(rec) = self.engine.queue.remove(due, id) {
                self.cancel_completion(id, rec);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_retire_track_the_per_segment_cap() {
        let mut e = EngineState::new();
        let (s1, s2) = (SegmentId(1), SegmentId(2));
        let ids: Vec<u64> = (0..MAX_INFLIGHT).map(|_| e.register(s1)).collect();
        let c = e.register(s2);
        assert_eq!(e.free_slots(s1), 0, "the cap is {MAX_INFLIGHT} per mapper");
        assert_eq!(e.free_slots(s2), MAX_INFLIGHT - 1);
        assert_eq!(e.inflight(), MAX_INFLIGHT + 1);
        // Retiring the second while the first is still in flight is an
        // overtake.
        assert!(e.retire(ids[1], s1));
        assert_eq!(e.free_slots(s1), 1);
        assert!(!e.retire(ids[0], s1));
        // A Suspected mapper gets one request at a time.
        e.mark_suspected(s1);
        assert_eq!(e.free_slots(s1), 0);
        for &id in &ids[2..] {
            e.retire(id, s1);
        }
        assert_eq!(e.free_slots(s1), 1);
        assert!(!e.retire(c, s2));
        assert_eq!(e.inflight(), 0);
    }
}
