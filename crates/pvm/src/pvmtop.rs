//! `pvmtop`: a point-in-time introspection snapshot of a live PVM.
//!
//! Where [`crate::PvmStats`] answers "how much work happened" and the
//! tracer answers "in what order", `pvmtop` answers the operator's
//! question: *which* cache is hot, *which* mapper is sick, and where
//! the latency went. It folds three sources into one [`PvmTop`] value:
//!
//! - the per-cache and per-mapper counter rows ([`crate::telemetry`]);
//! - a walk of the live descriptor arenas for resident/dirty footprints
//!   and mapper health states (always available);
//! - the per-phase latency histograms for p50/p99/p999 (populated when
//!   tracing is on).
//!
//! Everything here is pure observation: no call charges the cost
//! model, so taking a snapshot never perturbs the simulated clock —
//! the same determinism rule the tracer enforces.

use crate::state::PvmState;
use crate::stats::Counter as C;
use crate::telemetry::{Dim, TelemetrySample};
use crate::trace::{HistogramSnapshot, Phase};
use chorus_gmi::{CacheId, SegmentId};
use std::collections::BTreeMap;

/// Per-cache heat row: dimensional counters plus the live footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheHeat {
    /// Public id of the cache.
    pub cache: CacheId,
    /// Raw arena index (the id used in trace events and telemetry rows).
    pub index: u32,
    /// Faults attributed to this cache.
    pub faults: u64,
    /// `pullIn` requests completed for this cache.
    pub pull_ins: u64,
    /// Pages pushed out for this cache.
    pub push_outs: u64,
    /// Pages evicted from this cache by the clock.
    pub evictions: u64,
    /// Victims the clock picked from this cache.
    pub policy_victims: u64,
    /// Misses that continued a sequential stream.
    pub readahead_hits: u64,
    /// Readahead tail pages delivered.
    pub readahead_pages: u64,
    /// Readahead pages evicted before their first touch; over
    /// `readahead_pages`, the wasted share of the prefetching.
    pub readahead_unused: u64,
    /// `pushOut` runs issued from the write-behind queue.
    pub write_behind_pushes: u64,
    /// `pushOut` runs a stalled allocation issued inline.
    pub demand_pushes: u64,
    /// Pages of pull windows in flight that have not arrived yet.
    pub arriving_pages: u64,
    /// Resident pages right now.
    pub resident_pages: u64,
    /// Dirty resident pages right now.
    pub dirty_pages: u64,
    /// Quarantined after a permanent mapper failure.
    pub poisoned: bool,
}

/// Operator-facing health state of one mapper (segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperState {
    /// Serving upcalls normally.
    Healthy,
    /// Escalated by the deadline watchdog after repeated timeouts:
    /// in-flight cap shrunk to one request at a time.
    Suspected,
    /// A cache backed by this segment was poisoned after a permanent
    /// failure.
    Quarantined,
}

impl MapperState {
    /// Stable label for exports.
    pub fn label(self) -> &'static str {
        match self {
            MapperState::Healthy => "Healthy",
            MapperState::Suspected => "Suspected",
            MapperState::Quarantined => "Quarantined",
        }
    }
}

/// Per-mapper health row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapperHealth {
    /// The segment this mapper backs.
    pub segment: SegmentId,
    /// Health state (worst applicable wins).
    pub state: MapperState,
    /// Upcalls in flight right now (a pull window is one).
    pub inflight: u64,
    /// Watchdog deadline misses observed so far (the escalation count).
    pub deadline_misses: u32,
    /// `pullIn` requests completed.
    pub pull_ins: u64,
    /// Pages pushed out.
    pub push_outs: u64,
    /// Transient retries performed against this mapper.
    pub retries: u64,
    /// Upcalls that concluded with a deadline timeout.
    pub timeouts: u64,
    /// In-flight upcalls cancelled by the watchdog.
    pub cancels: u64,
}

/// Per-phase latency row derived from the tracer's histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLatency {
    /// Stable phase label (`fault.total`, `upcall.pullIn`, ...).
    pub phase: &'static str,
    /// Samples recorded.
    pub samples: u64,
    /// Median upper bound (ns, log2-bucket granularity).
    pub p50_ns: u64,
    /// 99th-percentile upper bound (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile upper bound (ns).
    pub p999_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
}

impl PhaseLatency {
    fn from_snapshot(phase: Phase, s: &HistogramSnapshot) -> PhaseLatency {
        PhaseLatency {
            phase: phase.label(),
            samples: s.count(),
            p50_ns: s.percentile(0.50),
            p99_ns: s.percentile(0.99),
            p999_ns: s.percentile(0.999),
            max_ns: s.max,
        }
    }
}

/// The clock's decision counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyHeat {
    /// Victim-selection rounds requested.
    pub victim_requests: u64,
    /// Victims actually produced.
    pub victims: u64,
    /// Second chances granted: referenced pages the hand passed over.
    pub second_chances: u64,
    /// Pages that lost their reference to drop-behind.
    pub drop_behind_pages: u64,
}

/// The full `pvmtop` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvmTop {
    /// Simulated time of the snapshot.
    pub sim_ns: u64,
    /// Caches hottest-first: faults desc, then dirty pages desc, then
    /// arena index asc (a deterministic total order).
    pub caches: Vec<CacheHeat>,
    /// Mappers in ascending segment order.
    pub mappers: Vec<MapperHealth>,
    /// Per-phase latency rows in [`Phase::ALL`] order.
    pub phases: Vec<PhaseLatency>,
    /// The live gauge sample taken with the snapshot.
    pub sample: TelemetrySample,
    /// Acquisitions of the state lock.
    pub state_lock_acqs: u64,
    /// State-lock acquisitions that missed the uncontended try-lock.
    pub state_lock_contended: u64,
    /// The clock's decision counters.
    pub policy: PolicyHeat,
    /// Windows a full-window stream keeps in flight ahead of its reader:
    /// two where they and the one being read stay under a quarter of
    /// the pool, else one.
    pub ahead_depth: u64,
}

impl PvmTop {
    /// The hottest cache, if any cache exists.
    pub fn hottest_cache(&self) -> Option<&CacheHeat> {
        self.caches.first()
    }

    /// The health row of `segment`, if known.
    pub fn mapper(&self, segment: SegmentId) -> Option<&MapperHealth> {
        self.mappers.iter().find(|m| m.segment == segment)
    }
}

/// Builds a snapshot from the locked state. Pure observation — charges
/// nothing to the cost model.
pub(crate) fn snapshot(state: &PvmState) -> PvmTop {
    // Footprints: one walk of the page arena, accumulated per cache.
    let mut resident: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (_, page) in state.pages.iter() {
        let e = resident.entry(page.cache.index()).or_insert((0, 0));
        e.0 += 1;
        if page.dirty {
            e.1 += 1;
        }
    }

    let mut arriving: BTreeMap<u32, u64> = BTreeMap::new();
    for (cache, _) in state.engine.parked.keys() {
        *arriving.entry(cache.index()).or_insert(0) += 1;
    }

    let dim = |d: Dim, id: u64, c: C| state.telemetry.get(d, id, c);

    let mut caches: Vec<CacheHeat> = state
        .caches
        .iter()
        .map(|(key, desc)| {
            let idx = key.index();
            let id = u64::from(idx);
            let (res, dirty) = resident.get(&idx).copied().unwrap_or((0, 0));
            CacheHeat {
                cache: crate::keys::pub_cache(key),
                index: idx,
                faults: dim(Dim::Cache, id, C::Faults),
                pull_ins: dim(Dim::Cache, id, C::PullIns),
                push_outs: dim(Dim::Cache, id, C::PushOuts),
                evictions: dim(Dim::Cache, id, C::Evictions),
                policy_victims: dim(Dim::Cache, id, C::PolicyVictims),
                readahead_hits: dim(Dim::Cache, id, C::ReadaheadHits),
                readahead_pages: dim(Dim::Cache, id, C::ReadaheadPages),
                readahead_unused: dim(Dim::Cache, id, C::ReadaheadUnused),
                write_behind_pushes: dim(Dim::Cache, id, C::WriteBehindPushes),
                demand_pushes: dim(Dim::Cache, id, C::DemandPushes),
                arriving_pages: arriving.get(&idx).copied().unwrap_or(0),
                resident_pages: res,
                dirty_pages: dirty,
                poisoned: desc.poisoned,
            }
        })
        .collect();
    caches.sort_by(|a, b| {
        b.faults
            .cmp(&a.faults)
            .then(b.dirty_pages.cmp(&a.dirty_pages))
            .then(a.index.cmp(&b.index))
    });

    // The mapper universe: every segment a live cache names, plus every
    // segment the completion engine has ever dealt with, plus every
    // segment the telemetry registry recorded traffic for (a poisoned
    // cache may already be gone while its mapper's history remains).
    let mut segments: std::collections::BTreeSet<u64> = state
        .caches
        .iter()
        .filter_map(|(_, c)| c.segment.map(|s| s.0))
        .collect();
    segments.extend(state.engine.inflight_counts().iter().map(|&(s, _)| s));
    segments.extend(state.engine.timeout_counts().iter().map(|&(s, _)| s));
    segments.extend(state.engine.suspected_segments());
    segments.extend(state.telemetry.table(Dim::Mapper).iter().map(|(s, _)| *s));

    let inflight: BTreeMap<u64, u64> = state.engine.inflight_counts().into_iter().collect();
    let misses: BTreeMap<u64, u32> = state.engine.timeout_counts().into_iter().collect();
    let mappers = segments
        .into_iter()
        .map(|seg| {
            let segment = SegmentId(seg);
            let quarantined = state
                .caches
                .iter()
                .any(|(_, c)| c.poisoned && c.segment == Some(segment));
            let state_ = if quarantined {
                MapperState::Quarantined
            } else if state.engine.is_suspected(segment) {
                MapperState::Suspected
            } else {
                MapperState::Healthy
            };
            MapperHealth {
                segment,
                state: state_,
                inflight: inflight.get(&seg).copied().unwrap_or(0),
                deadline_misses: misses.get(&seg).copied().unwrap_or(0),
                pull_ins: dim(Dim::Mapper, seg, C::PullIns),
                push_outs: dim(Dim::Mapper, seg, C::PushOuts),
                retries: dim(Dim::Mapper, seg, C::MapperRetries),
                timeouts: dim(Dim::Mapper, seg, C::MapperTimeouts),
                cancels: dim(Dim::Mapper, seg, C::WatchdogCancels),
            }
        })
        .collect();

    let phases = Phase::ALL
        .iter()
        .map(|&p| PhaseLatency::from_snapshot(p, &state.trace.histogram(p)))
        .collect();

    let policy = PolicyHeat {
        victim_requests: state.stats.get(C::PolicyVictimRequests),
        victims: state.stats.get(C::PolicyVictims),
        second_chances: state.stats.get(C::RefSecondChances),
        drop_behind_pages: state.stats.get(C::DropBehindPages),
    };

    PvmTop {
        sim_ns: state.model.now().nanos(),
        caches,
        mappers,
        phases,
        sample: state.live_sample(),
        state_lock_acqs: state.stats.get(C::StateLockAcqs),
        state_lock_contended: state.stats.get(C::StateLockContended),
        policy,
        ahead_depth: 1 + u64::from(state.readahead.two),
    }
}

/// Renders a snapshot as the classic three-section `top` text: top-N
/// caches by heat, mapper health, and per-phase latency.
pub fn render(top: &PvmTop, n: usize) -> String {
    let mut out = String::new();
    let s = &top.sample;
    out.push_str(&format!(
        "pvmtop  sim={} ns  free={} frames  inflight={}  \
         arriving={} pages  ring={} pages  gmap={} slots\n",
        top.sim_ns,
        s.free_frames,
        s.inflight_upcalls,
        s.arriving_pages,
        s.clock_ring_pages,
        s.gmap_slots,
    ));
    out.push_str(&format!(
        "        lock heat (contended/acqs): state {}/{}\n",
        top.state_lock_contended, top.state_lock_acqs,
    ));
    let pol = &top.policy;
    out.push_str(&format!(
        "        clock: victims {}/{} req  second chances {}  drop-behind {}\n",
        pol.victims, pol.victim_requests, pol.second_chances, pol.drop_behind_pages,
    ));
    out.push_str(&format!(
        "        readahead: depth {}, {} windows pulled ahead of their reader, \
         {} due and skipped\n",
        top.ahead_depth, s.ahead_pulls, s.ahead_skipped,
    ));

    out.push_str(&format!(
        "\n  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>11} {:>9} {:>8} {:>8} {:>8}  {}\n",
        "CACHE",
        "FAULTS",
        "PULLS",
        "PUSHES",
        "EVICT",
        "PVICT",
        "RAHIT",
        "RAUNUSED",
        "WB/DEMAND",
        "ARRIVING",
        "RES",
        "DIRTY",
        "FLAGS"
    ));
    for c in top.caches.iter().take(n.max(1)) {
        out.push_str(&format!(
            "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>11} {:>9} {:>8} {:>8} {:>8}  {}\n",
            c.index,
            c.faults,
            c.pull_ins,
            c.push_outs,
            c.evictions,
            c.policy_victims,
            c.readahead_hits,
            format!("{}/{}", c.readahead_unused, c.readahead_pages),
            format!("{}/{}", c.write_behind_pushes, c.demand_pushes),
            c.arriving_pages,
            c.resident_pages,
            c.dirty_pages,
            if c.poisoned { "POISONED" } else { "-" },
        ));
    }
    if top.caches.len() > n {
        out.push_str(&format!("  ... {} more caches\n", top.caches.len() - n));
    }

    out.push_str(&format!(
        "\n  {:>7} {:<11} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "MAPPER", "STATE", "INFLIGHT", "MISSES", "PULLS", "PUSHES", "RETRIES", "TIMEOUT", "CANCELS"
    ));
    for m in &top.mappers {
        out.push_str(&format!(
            "  {:>7} {:<11} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            m.segment.0,
            m.state.label(),
            m.inflight,
            m.deadline_misses,
            m.pull_ins,
            m.push_outs,
            m.retries,
            m.timeouts,
            m.cancels,
        ));
    }

    out.push_str(&format!(
        "\n  {:<22} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        "PHASE", "SAMPLES", "P50(ns)", "P99(ns)", "P999(ns)", "MAX(ns)"
    ));
    for p in &top.phases {
        if p.samples == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<22} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            p.phase, p.samples, p.p50_ns, p.p99_ns, p.p999_ns, p.max_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat(index: u32, faults: u64, dirty: u64) -> CacheHeat {
        CacheHeat {
            cache: CacheId::pack(index, 0),
            index,
            faults,
            pull_ins: 0,
            push_outs: 0,
            evictions: 0,
            policy_victims: 0,
            readahead_hits: 0,
            readahead_pages: 8,
            readahead_unused: 1,
            write_behind_pushes: 3,
            demand_pushes: 0,
            arriving_pages: 0,
            resident_pages: dirty,
            dirty_pages: dirty,
            poisoned: false,
        }
    }

    #[test]
    fn mapper_state_labels_are_stable() {
        assert_eq!(MapperState::Healthy.label(), "Healthy");
        assert_eq!(MapperState::Suspected.label(), "Suspected");
        assert_eq!(MapperState::Quarantined.label(), "Quarantined");
    }

    #[test]
    fn render_truncates_to_top_n() {
        let top = PvmTop {
            sim_ns: 42,
            caches: vec![heat(0, 9, 1), heat(1, 5, 0), heat(2, 1, 0)],
            mappers: Vec::new(),
            phases: Vec::new(),
            sample: TelemetrySample {
                sim_ns: 42,
                free_frames: 7,
                inflight_upcalls: 0,
                arriving_pages: 0,
                clock_ring_pages: 0,
                gmap_slots: 0,
                ahead_pulls: 6,
                ahead_skipped: 2,
            },
            state_lock_acqs: 12,
            state_lock_contended: 3,
            policy: PolicyHeat {
                victim_requests: 3,
                victims: 2,
                second_chances: 7,
                drop_behind_pages: 5,
            },
            ahead_depth: 2,
        };
        let text = render(&top, 2);
        assert!(text.contains("pvmtop  sim=42 ns"));
        assert!(text.contains("clock: victims 2/3 req  second chances 7  drop-behind 5\n"));
        assert!(text.contains("readahead: depth 2, 6 windows pulled ahead of their reader, 2 due"));
        assert!(text.contains("PVICT"));
        assert!(text.contains("... 1 more caches"));
        assert!(text.contains("lock heat (contended/acqs): state 3/12\n"));
        assert!(text.contains("RAUNUSED") && text.contains("        1/8"));
        assert!(text.contains("WB/DEMAND") && text.contains("      3/0"));
        // Render keeps the caller's hottest-first order: cache 0 (9
        // faults) appears before cache 1 (5 faults), cache 2 is cut.
        let row0 = text.find("      0        9").expect("cache 0 row");
        let row1 = text.find("      1        5").expect("cache 1 row");
        assert!(row0 < row1);
    }
}
