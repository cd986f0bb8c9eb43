//! Dimensional telemetry: per-entity rows of the counters that name
//! their cache, context or mapper, and the deterministic sim-time gauge
//! series.
//!
//! The flat [`crate::StatsRegistry`] answers "how many faults did the
//! whole PVM handle"; the rows here answer "which cache, which context,
//! which mapper". There is one vocabulary: a row cell is a
//! [`Counter`], and a counter carries the dimensions its declaration
//! names ([`Counter::dims`]). Each counted event is one call,
//! `PvmState::count(counter, n, at)`, that adds to the global cell and
//! to the row of every entity in `at`; an `At` of the wrong shape
//! for its counter panics there, and the registry refuses a
//! dimensional counter without one. A dimension's rows therefore sum to
//! the global cell — except the cache rows of `faults`, which miss the
//! faults that resolved no region.
//!
//! Entities are keyed by their stable index: arena index for caches and
//! contexts, segment id for mappers (the finest mapper identity the PVM
//! sees). Every dimensional event is counted under the state lock, so
//! the rows are plain integers held there, one per touched entity.
//!
//! **Determinism rule.** No telemetry call advances the cost-model
//! clock: counters only count, and the sampler *reads* the simulated
//! clock every [`SAMPLE_NS`] without charging it, so the sim-time series
//! is a pure observation of the run it rides on.
//!
//! Gauges that counters cannot express — free frames,
//! completion-table depth, pages awaiting arrival, clock-ring size —
//! are captured as [`TelemetrySample`] points into a bounded
//! [`SeriesRing`] (drop-oldest), exported by [`crate::TraceSink`] as
//! chrome-trace counter tracks and a `telemetry.json` artifact.

use crate::keys::{CacheKey, CtxKey};
use crate::stats::Counter;
use chorus_gmi::SegmentId;
use chorus_hal::FxHashMap;

/// A labeled dimension of the telemetry rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Per local cache (keyed by the cache's arena index).
    Cache,
    /// Per context (keyed by the context's arena index).
    Context,
    /// Per mapper, approximated per segment (keyed by the segment id).
    Mapper,
}

impl Dim {
    /// Every dimension, in declaration order.
    pub const ALL: &'static [Dim] = &[Dim::Cache, Dim::Context, Dim::Mapper];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            Dim::Cache => "cache",
            Dim::Context => "context",
            Dim::Mapper => "mapper",
        }
    }

    /// The counters carrying this dimension, in declaration order: the
    /// cells of one of its rows.
    pub fn counters(self) -> impl Iterator<Item = Counter> {
        Counter::ALL
            .iter()
            .copied()
            .filter(move |c| c.dims().contains(&self))
    }
}

/// The entities one counted event names, one per dimension of its
/// counter.
#[derive(Clone, Copy, Debug)]
pub(crate) enum At {
    /// One cache.
    Cache(CacheKey),
    /// One mapper.
    Mapper(SegmentId),
    /// A cache's traffic through its segment's mapper.
    Io(CacheKey, SegmentId),
    /// A fault of a context, in a region of a cache when one resolved.
    Fault(CtxKey, Option<CacheKey>),
}

impl At {
    /// The dimensions this shape names, in the order counters declare
    /// them.
    fn dims(self) -> &'static [Dim] {
        match self {
            At::Cache(_) => &[Dim::Cache],
            At::Mapper(_) => &[Dim::Mapper],
            At::Io(..) => &[Dim::Cache, Dim::Mapper],
            At::Fault(..) => &[Dim::Context, Dim::Cache],
        }
    }

    /// The rows the event lands in.
    fn rows(self) -> [Option<(Dim, u64)>; 2] {
        let cache = |k: CacheKey| (Dim::Cache, u64::from(k.index()));
        match self {
            At::Cache(k) => [Some(cache(k)), None],
            At::Mapper(s) => [Some((Dim::Mapper, s.0)), None],
            At::Io(k, s) => [Some(cache(k)), Some((Dim::Mapper, s.0))],
            At::Fault(x, k) => [Some((Dim::Context, u64::from(x.index()))), k.map(cache)],
        }
    }
}

/// The per-entity rows: one cell per (dimension, entity, counter)
/// touched so far.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    cells: FxHashMap<(Dim, u64, Counter), u64>,
}

impl Telemetry {
    /// Adds `n` to the row of every entity of `at`. Panics when `at`
    /// does not name exactly the dimensions `c` declares. Out of line,
    /// so the counting sites on the fault and eviction paths stay small.
    #[inline(never)]
    pub(crate) fn add(&mut self, c: Counter, n: u64, at: At) {
        assert_eq!(c.dims(), at.dims(), "{c:?} counted at the wrong entities");
        if n == 0 {
            return;
        }
        for (d, id) in at.rows().into_iter().flatten() {
            *self.cells.entry((d, id, c)).or_default() += n;
        }
    }

    /// Reads one cell (0 for an untouched entity).
    pub fn get(&self, dim: Dim, id: u64, c: Counter) -> u64 {
        self.cells.get(&(dim, id, c)).copied().unwrap_or(0)
    }

    /// Sums one counter across every entity of a dimension.
    pub fn sum(&self, dim: Dim, c: Counter) -> u64 {
        self.cells
            .iter()
            .filter(|&(&(d, _, k), _)| d == dim && k == c)
            .map(|(_, &n)| n)
            .sum()
    }

    /// One dimension's touched entities, ascending by id (deterministic
    /// export order), each with every counter of the dimension.
    pub fn table(&self, dim: Dim) -> Vec<(u64, Vec<(Counter, u64)>)> {
        let mut ids: Vec<u64> = self
            .cells
            .keys()
            .filter(|&&(d, _, _)| d == dim)
            .map(|&(_, id, _)| id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                (
                    id,
                    dim.counters().map(|c| (c, self.get(dim, id, c))).collect(),
                )
            })
            .collect()
    }

    /// Empties every row.
    pub fn reset(&mut self) {
        self.cells.clear();
    }
}

/// Cadence of the gauge sampler, in *simulated* nanoseconds (no wall
/// clock is ever consulted): at most one [`TelemetrySample`] per driver
/// entry, aligned to multiples of 1 ms on the simulated clock.
pub const SAMPLE_NS: u64 = 1_000_000;

/// One deterministic gauge sample: live state the counters cannot
/// express, stamped with the simulated time it was observed at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Simulated time of the observation (read, never advanced).
    pub sim_ns: u64,
    /// Free physical frames.
    pub free_frames: u32,
    /// In-flight upcalls (completion-table population; a pull window is
    /// one).
    pub inflight_upcalls: u64,
    /// Pages of pull windows in flight that have not arrived.
    pub arriving_pages: u64,
    /// Pages in the clock replacement ring.
    pub clock_ring_pages: u64,
    /// Live slots in the global map (pages + stubs).
    pub gmap_slots: u64,
    /// Windows submitted ahead of their reader so far, and due ones
    /// that were not (`Counter::{AheadPulls, AheadSkipped}`): in the
    /// series, how far each stretch of a run was read ahead.
    pub ahead_pulls: u64,
    pub ahead_skipped: u64,
}

/// A bounded drop-oldest ring of gauge samples.
pub struct SeriesRing {
    cap: usize,
    buf: std::collections::VecDeque<TelemetrySample>,
    dropped: u64,
}

/// Default sample capacity: enough for long bench runs at a millisecond
/// cadence without unbounded growth.
pub(crate) const SERIES_CAP: usize = 4096;

impl SeriesRing {
    /// An empty ring holding at most `cap` samples.
    pub fn new(cap: usize) -> SeriesRing {
        SeriesRing {
            cap: cap.max(1),
            buf: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a sample, dropping the oldest at capacity.
    pub fn push(&mut self, s: TelemetrySample) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(s);
    }

    /// Copies the retained samples out, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.buf.iter().cloned().collect()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples lost to the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the ring (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_hal::Id;

    #[test]
    fn rows_accumulate_and_export_sorted() {
        let (c2, c7): (CacheKey, CacheKey) = (Id::from_raw_parts(2, 0), Id::from_raw_parts(7, 0));
        let mut t = Telemetry::default();
        t.add(Counter::Evictions, 1, At::Cache(c7));
        t.add(Counter::Evictions, 1, At::Cache(c2));
        t.add(Counter::PullIns, 3, At::Io(c7, SegmentId(1)));
        t.add(
            Counter::Faults,
            1,
            At::Fault(Id::from_raw_parts(0, 0), None),
        );
        assert_eq!(t.get(Dim::Cache, 7, Counter::PullIns), 3);
        assert_eq!(t.get(Dim::Mapper, 1, Counter::PullIns), 3);
        assert_eq!(t.sum(Dim::Cache, Counter::Evictions), 2);
        assert_eq!(t.sum(Dim::Cache, Counter::Faults), 0, "no region resolved");
        let rows = t.table(Dim::Cache);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 2, "export is sorted by entity id");
        assert_eq!(rows[1].0, 7);
        assert_eq!(rows[1].1.len(), 10, "every counter of the dimension");
        assert_eq!(t.table(Dim::Context)[0].1, vec![(Counter::Faults, 1)]);
        t.reset();
        assert!(t.table(Dim::Cache).is_empty());
    }

    #[test]
    #[should_panic(expected = "counted at the wrong entities")]
    fn a_counter_is_counted_at_its_own_dimensions() {
        let mut t = Telemetry::default();
        t.add(Counter::PullIns, 1, At::Mapper(SegmentId(1)));
    }

    #[test]
    fn dim_and_counter_labels_are_stable() {
        assert_eq!(Dim::ALL.len(), 3);
        assert_eq!(Dim::Mapper.label(), "mapper");
        let dimensional = Counter::ALL.iter().filter(|c| !c.dims().is_empty());
        assert_eq!(dimensional.count(), 13);
        assert_eq!(Counter::Faults.dims(), &[Dim::Context, Dim::Cache]);
        assert_eq!(
            Dim::Mapper
                .counters()
                .map(Counter::label)
                .collect::<Vec<_>>(),
            [
                "pull_ins",
                "push_outs",
                "mapper_retries",
                "mapper_timeouts",
                "watchdog_cancels"
            ]
        );
    }

    #[test]
    fn series_ring_drops_oldest() {
        let sample = |ns: u64| TelemetrySample {
            sim_ns: ns,
            free_frames: 0,
            inflight_upcalls: 0,
            arriving_pages: 0,
            clock_ring_pages: 0,
            gmap_slots: 0,
            ahead_pulls: 0,
            ahead_skipped: 0,
        };
        let mut r = SeriesRing::new(2);
        r.push(sample(1));
        r.push(sample(2));
        r.push(sample(3));
        let kept = r.samples();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].sim_ns, 2);
        assert_eq!(kept[1].sim_ns, 3);
        assert_eq!(r.dropped(), 1);
    }
}
