//! Deterministic event tracing for the PVM fault pipeline.
//!
//! The tracer records typed events (fault entry/exit, stub wait/wake,
//! history pushes and root-ward walk depth, mapper upcalls with retry
//! outcomes, eviction, quarantine) into per-lane bounded ring buffers,
//! each record stamped with the *simulated* cost-model clock (plus an
//! optional wall clock).
//!
//! **Determinism rule (enforced by construction):** no trace call may
//! advance the cost-model clock. The tracer only holds a
//! [`chorus_hal::TraceClock`], which exposes sampling and nothing else —
//! so enabling tracing at full verbosity leaves Tables 5–7 and Figure 3
//! bit-identical to a tracing-off run. When tracing is disabled every
//! trace point is one relaxed atomic load.
//!
//! Lock-cheapness: a record costs one `fetch_add` (the global sequence
//! number) plus one push under a per-lane mutex that only the owning
//! thread and `drain` ever touch, so trace points never contend with
//! each other in steady state.

pub mod histogram;
pub mod sink;

pub use histogram::{Histogram, HistogramSnapshot, Phase};
pub use sink::TraceSink;

use crate::stats::StatsRegistry;
use chorus_hal::{Access, CostModel, TraceClock};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of ring-buffer lanes (threads hash onto lanes round-robin).
const LANES: usize = 8;

/// Tracing configuration, part of [`crate::PvmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record trace events. Off by default; when off, every trace point
    /// costs one relaxed atomic load.
    pub enabled: bool,
    /// Capacity of each per-lane ring buffer (records); the oldest
    /// records are overwritten when a lane overflows.
    pub ring_capacity: usize,
    /// Also stamp records with host wall time. Informational only —
    /// never part of any determinism contract — so it defaults to off.
    pub wall_clock: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ring_capacity: 1 << 16,
            wall_clock: false,
        }
    }
}

impl TraceConfig {
    /// Reads the `CHORUS_TRACE` environment variable: unset, empty, `0`
    /// or `off` leave tracing disabled; `1`, `on` or `sim` enable it;
    /// `wall` enables it with wall-clock stamping. The bench worlds use
    /// this so the verify script can regenerate every table with
    /// tracing forced on and diff against the committed copies.
    pub fn from_env() -> TraceConfig {
        let mut cfg = TraceConfig::default();
        match std::env::var("CHORUS_TRACE").as_deref() {
            Ok("1") | Ok("on") | Ok("sim") => cfg.enabled = true,
            Ok("wall") => {
                cfg.enabled = true;
                cfg.wall_clock = true;
            }
            _ => {}
        }
        cfg
    }
}

/// How a fault was resolved (recorded in [`TraceEvent::FaultExit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The page was already resident in the faulting cache (possibly
    /// after a write-permission promote).
    Resident,
    /// An ancestor's page was mapped read-only (deferred-copy share).
    SharedRead,
    /// A zero-filled own page was materialized.
    ZeroFill,
    /// An own page was materialized by copying the source version.
    CowCopy,
    /// The fault failed with an error.
    Failed,
}

impl Resolution {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::Resident => "resident",
            Resolution::SharedRead => "shared_read",
            Resolution::ZeroFill => "zero_fill",
            Resolution::CowCopy => "cow_copy",
            Resolution::Failed => "failed",
        }
    }
}

/// Which mapper upcall a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpcallKind {
    /// `pullIn` (§3.3.1).
    PullIn,
    /// `pushOut` (§3.3.1).
    PushOut,
    /// `getWriteAccess` (distributed coherence, §3.3.2).
    GetWriteAccess,
    /// `victimAdvice`: an external replacement policy asking the
    /// segment manager to veto/approve an eviction candidate batch.
    VictimAdvice,
}

impl UpcallKind {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            UpcallKind::PullIn => "pullIn",
            UpcallKind::PushOut => "pushOut",
            UpcallKind::GetWriteAccess => "getWriteAccess",
            UpcallKind::VictimAdvice => "victimAdvice",
        }
    }

    /// The latency histogram this upcall feeds. Victim advice rides
    /// the `pushOut` track: both are pageout-side mapper round trips.
    pub fn phase(self) -> Phase {
        match self {
            UpcallKind::PullIn => Phase::PullIn,
            UpcallKind::PushOut | UpcallKind::VictimAdvice => Phase::PushOut,
            UpcallKind::GetWriteAccess => Phase::GetWriteAccess,
        }
    }
}

/// How a mapper upcall concluded (after the retry protocol ran).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpcallOutcome {
    /// Succeeded (possibly after retries).
    Ok,
    /// Failed with a transient error after exhausting attempts.
    Transient,
    /// The per-upcall simulated-time deadline expired.
    Timeout,
    /// Failed permanently (quarantine candidate).
    Permanent,
}

impl UpcallOutcome {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            UpcallOutcome::Ok => "ok",
            UpcallOutcome::Transient => "transient",
            UpcallOutcome::Timeout => "timeout",
            UpcallOutcome::Permanent => "permanent",
        }
    }
}

/// Kind of an injected mapper fault (correlated from the nucleus
/// `FaultyMapper` so injected failures line up with the PVM's retry
/// records on one timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedKind {
    /// Transient I/O error.
    Transient,
    /// Permanent failure.
    Permanent,
    /// Injected delay (simulated time).
    Delay,
    /// Truncated read.
    Truncated,
    /// Mapper death.
    Crash,
    /// Mapper hang: the request never completes; every operation from
    /// the hang point on reports a deadline timeout until the plan is
    /// replaced.
    Hang,
}

impl InjectedKind {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            InjectedKind::Transient => "transient",
            InjectedKind::Permanent => "permanent",
            InjectedKind::Delay => "delay",
            InjectedKind::Truncated => "truncated",
            InjectedKind::Crash => "crash",
            InjectedKind::Hang => "hang",
        }
    }
}

/// One typed trace point. Ids are raw descriptor indices (`ctx`,
/// `cache`) or raw values (`va`, `offset`, `segment`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A fault entered the pipeline.
    FaultEnter {
        /// Faulting context index.
        ctx: u32,
        /// Faulting virtual address.
        va: u64,
        /// Access mode.
        access: Access,
    },
    /// The fault left the pipeline.
    FaultExit {
        /// Faulting context index.
        ctx: u32,
        /// Faulting virtual address.
        va: u64,
        /// How it was resolved.
        resolution: Resolution,
    },
    /// A thread is about to sleep on a synchronization page stub.
    StubWait {
        /// Cache holding the in-transit page.
        cache: u32,
        /// Page offset.
        offset: u64,
    },
    /// A stub sleeper woke and will retry its attempt.
    StubWake,
    /// An original was preserved into a history object before a write.
    HistoryPush {
        /// Source cache index.
        cache: u32,
        /// Page offset.
        offset: u64,
    },
    /// A root-ward history walk resolved (depth = links followed).
    HistoryWalk {
        /// Starting cache index.
        cache: u32,
        /// Queried offset.
        offset: u64,
        /// Links followed before resolution (0 = hit in the cache).
        depth: u32,
    },
    /// A mapper upcall is leaving the kernel.
    UpcallStart {
        /// Which upcall.
        kind: UpcallKind,
        /// Target segment.
        segment: u64,
        /// Fragment offset.
        offset: u64,
        /// Fragment size.
        size: u64,
    },
    /// A mapper upcall returned (after the retry protocol).
    UpcallEnd {
        /// Which upcall.
        kind: UpcallKind,
        /// Final outcome.
        outcome: UpcallOutcome,
        /// Transient retries performed.
        retries: u64,
    },
    /// An upcall entered the per-mapper in-flight table (the mapper
    /// protocol runs eagerly, the bookkeeping is deferred to the
    /// completion delivery).
    UpcallSubmit {
        /// Which upcall.
        kind: UpcallKind,
        /// Target segment.
        segment: u64,
        /// Fragment offset.
        offset: u64,
        /// Fragment size.
        size: u64,
        /// In-flight requests (this one included) after the submit.
        inflight: u64,
        /// Pages the request covers (a pull window, a push run).
        pages: u64,
        /// Simulated time its last page arrives.
        last_arrival_ns: u64,
    },
    /// A completion was delivered by the scheduler and its deferred
    /// bookkeeping applied.
    UpcallComplete {
        /// Which upcall.
        kind: UpcallKind,
        /// Final outcome.
        outcome: UpcallOutcome,
        /// Transient retries performed.
        retries: u64,
        /// In-flight requests remaining after the delivery.
        inflight: u64,
        /// Pages the request covered.
        pages: u64,
        /// Simulated time its last page was due.
        last_arrival_ns: u64,
    },
    /// The clock algorithm evicted a page.
    Eviction {
        /// Owning cache index.
        cache: u32,
        /// Page offset.
        offset: u64,
    },
    /// The clock hand completed full sweep(s) while hunting a victim.
    ClockSweep {
        /// Full passes over the resident ring.
        sweeps: u64,
    },
    /// A cache was quarantined after a permanent mapper failure.
    Quarantine {
        /// Quarantined cache index.
        cache: u32,
    },
    /// The deadline watchdog cancelled an in-flight upcall whose
    /// per-request deadline expired on the simulated clock.
    WatchdogCancel {
        /// Which upcall was cancelled.
        kind: UpcallKind,
        /// The segment whose mapper went quiet.
        segment: u64,
    },
    /// A mapper was escalated to the `Suspected` state after repeated
    /// watchdog timeouts (in-flight cap shrunk, degraded to the
    /// synchronous path).
    MapperSuspected {
        /// The suspected segment.
        segment: u64,
        /// Watchdog timeouts observed so far.
        timeouts: u32,
    },
    /// The nucleus fault injector fired (correlation marker).
    MapperFaultInjected {
        /// Injected failure kind.
        kind: InjectedKind,
    },
    /// A named nested phase opened (span API).
    SpanBegin {
        /// Static span name.
        name: &'static str,
    },
    /// The innermost open span with this name closed.
    SpanEnd {
        /// Static span name.
        name: &'static str,
    },
}

/// One recorded event with its stamps and total-order sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number (total order across lanes).
    pub seq: u64,
    /// Simulated time at the event (deterministic).
    pub sim_ns: u64,
    /// Wall time since tracer construction, when enabled.
    pub wall_ns: Option<u64>,
    /// Recording lane (stable per thread; exported as the tid).
    pub lane: u32,
    /// The event.
    pub event: TraceEvent,
}

/// One bounded per-lane ring.
struct Ring {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Next overwrite position once full.
    next: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            next: 0,
        }
    }

    /// Pushes a record; returns true if an old record was overwritten.
    fn push(&mut self, rec: TraceRecord) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
            false
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
            true
        }
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        self.next = 0;
        core::mem::take(&mut self.buf)
    }
}

/// Process-wide lane allocator: each thread gets a stable lane id on
/// first use (the main thread of a single-threaded run is always 0).
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn lane_id() -> u32 {
    LANE.with(|l| {
        let v = l.get();
        if v != u32::MAX {
            v
        } else {
            let v = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(v);
            v
        }
    })
}

/// The event tracer. One per [`crate::Pvm`], shared (via `Arc`) with
/// the locked state, the driver, and — for correlation — the nucleus
/// mapper layers.
pub struct Tracer {
    enabled: AtomicBool,
    clock: TraceClock,
    seq: AtomicU64,
    lanes: Box<[Mutex<Ring>]>,
    dropped: AtomicU64,
    hists: [Histogram; Phase::ALL.len()],
    stats: Arc<StatsRegistry>,
}

impl Tracer {
    /// Builds a tracer over the PVM's cost model and counter registry.
    pub fn new(config: TraceConfig, model: Arc<CostModel>, stats: Arc<StatsRegistry>) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(config.enabled),
            clock: TraceClock::new(model, config.wall_clock),
            seq: AtomicU64::new(0),
            lanes: (0..LANES)
                .map(|_| Mutex::new(Ring::new(config.ring_capacity)))
                .collect(),
            dropped: AtomicU64::new(0),
            hists: core::array::from_fn(|_| Histogram::new()),
            stats,
        }
    }

    /// A disabled tracer over a pure-counting cost model (handy for
    /// tests and default construction paths).
    pub fn disabled() -> Tracer {
        Tracer::new(
            TraceConfig::default(),
            Arc::new(CostModel::counting()),
            Arc::new(StatsRegistry::new()),
        )
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter registry the tracer shares with the PVM.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// Records one event; the closure only runs when tracing is on.
    #[inline]
    pub fn event(&self, f: impl FnOnce() -> TraceEvent) {
        if self.is_enabled() {
            self.push(f());
        }
    }

    fn push(&self, event: TraceEvent) {
        let stamp = self.clock.stamp();
        let lane = lane_id();
        let rec = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            sim_ns: stamp.sim_ns,
            wall_ns: stamp.wall_ns,
            lane,
            event,
        };
        let overwrote = self.lanes[lane as usize % LANES].lock().push(rec);
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ----- phase timing ----------------------------------------------------

    /// Starts timing a phase: the current simulated time, or `None`
    /// when tracing is off.
    #[inline]
    pub fn phase_start(&self) -> Option<u64> {
        self.is_enabled().then(|| self.clock.sim_now().nanos())
    }

    /// Ends a phase started with [`Tracer::phase_start`], recording the
    /// simulated duration into the phase's histogram.
    #[inline]
    pub fn phase_end(&self, phase: Phase, start: Option<u64>) {
        if let Some(start) = start {
            let now = self.clock.sim_now().nanos();
            self.hists[phase as usize].record(now.saturating_sub(start));
        }
    }

    /// Snapshot of one phase histogram.
    pub fn histogram(&self, phase: Phase) -> HistogramSnapshot {
        self.hists[phase as usize].snapshot()
    }

    // ----- fault convenience points ----------------------------------------

    /// Records fault entry; returns the phase-start token for
    /// [`Tracer::fault_exit`].
    #[inline]
    pub fn fault_enter(&self, ctx: u32, va: u64, access: Access) -> Option<u64> {
        let start = self.phase_start();
        if start.is_some() {
            self.push(TraceEvent::FaultEnter { ctx, va, access });
        }
        start
    }

    /// Records fault exit and the whole-fault latency sample.
    #[inline]
    pub fn fault_exit(&self, start: Option<u64>, ctx: u32, va: u64, resolution: Resolution) {
        if start.is_some() {
            self.push(TraceEvent::FaultExit {
                ctx,
                va,
                resolution,
            });
            self.phase_end(Phase::FaultTotal, start);
        }
    }

    // ----- span API --------------------------------------------------------

    /// Opens a named nested phase; the returned guard closes it on drop.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let armed = self.is_enabled();
        if armed {
            self.push(TraceEvent::SpanBegin { name });
        }
        Span {
            tracer: self,
            name,
            armed,
        }
    }

    // ----- draining --------------------------------------------------------

    /// Removes and returns every buffered record in sequence order.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for lane in self.lanes.iter() {
            out.extend(lane.lock().drain());
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Records overwritten by ring overflow since the last reset.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears rings, histograms, the drop count and the sequence
    /// counter. Does not touch the shared counter registry.
    pub fn reset(&self) {
        for lane in self.lanes.iter() {
            lane.lock().drain();
        }
        for h in &self.hists {
            h.reset();
        }
        self.dropped.store(0, Ordering::Relaxed);
        self.seq.store(0, Ordering::Relaxed);
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Guard of an open [`Tracer::span`]; closes the span on drop.
#[must_use = "a span closes when this guard drops"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    armed: bool,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tracer.push(TraceEvent::SpanEnd { name: self.name });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::OpKind;

    fn traced() -> (Tracer, Arc<CostModel>) {
        let model = Arc::new(CostModel::new(chorus_hal::CostParams::sun3()));
        let t = Tracer::new(
            TraceConfig {
                enabled: true,
                ring_capacity: 8,
                wall_clock: false,
            },
            model.clone(),
            Arc::new(StatsRegistry::new()),
        );
        (t, model)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.event(|| TraceEvent::StubWake);
        let s = t.fault_enter(1, 0x1000, Access::Read);
        t.fault_exit(s, 1, 0x1000, Resolution::ZeroFill);
        {
            let _g = t.span("noop");
        }
        assert!(t.drain().is_empty());
        assert_eq!(t.histogram(Phase::FaultTotal).count(), 0);
    }

    #[test]
    fn events_are_stamped_with_simulated_time_and_ordered() {
        let (t, model) = traced();
        t.event(|| TraceEvent::StubWake);
        model.charge(OpKind::BzeroPage); // 0.87 ms
        t.event(|| TraceEvent::ClockSweep { sweeps: 1 });
        let recs = t.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].sim_ns, 0);
        assert_eq!(recs[1].sim_ns, 870_000);
        assert!(recs[0].seq < recs[1].seq);
        assert_eq!(recs[0].wall_ns, None);
        // Tracing itself never advanced the simulated clock.
        assert_eq!(model.now().nanos(), 870_000);
    }

    #[test]
    fn fault_points_feed_the_total_histogram() {
        let (t, model) = traced();
        let start = t.fault_enter(3, 0x2000, Access::Write);
        model.charge(OpKind::FaultEntry);
        model.charge(OpKind::BzeroPage);
        t.fault_exit(start, 3, 0x2000, Resolution::ZeroFill);
        let h = t.histogram(Phase::FaultTotal);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum, model.now().nanos());
        let recs = t.drain();
        assert!(matches!(
            recs[0].event,
            TraceEvent::FaultEnter { ctx: 3, .. }
        ));
        assert!(matches!(
            recs[1].event,
            TraceEvent::FaultExit {
                resolution: Resolution::ZeroFill,
                ..
            }
        ));
    }

    #[test]
    fn spans_nest_and_close_on_drop() {
        let (t, _model) = traced();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let names: Vec<_> = t
            .drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::SpanBegin { name } => ("B", name),
                TraceEvent::SpanEnd { name } => ("E", name),
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("B", "outer"),
                ("B", "inner"),
                ("E", "inner"),
                ("E", "outer")
            ]
        );
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let (t, _model) = traced();
        for i in 0..20u64 {
            t.event(|| TraceEvent::ClockSweep { sweeps: i });
        }
        assert_eq!(t.dropped(), 12, "capacity 8, 20 pushed");
        let recs = t.drain();
        assert_eq!(recs.len(), 8);
        // The survivors are the newest 8, still in seq order.
        assert_eq!(recs.first().unwrap().seq, 12);
        assert_eq!(recs.last().unwrap().seq, 19);
        t.reset();
        assert_eq!(t.dropped(), 0);
    }
}
