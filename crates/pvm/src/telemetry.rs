//! Dimensional telemetry: per-entity counter families and the
//! deterministic sim-time gauge series.
//!
//! The flat [`crate::StatsRegistry`] answers "how many faults did the
//! whole PVM handle"; this module answers "which cache, which context,
//! which mapper". Every dimensional bump happens at the *same site*
//! that feeds the corresponding global cell, keyed by the entity's
//! stable index (arena index for caches and contexts, segment id for
//! mappers — the finest mapper identity the PVM sees).
//!
//! **Determinism rule.** The layer is gated by `PvmConfig::telemetry`
//! (off by default): when off, every dimensional site is one relaxed
//! atomic load and the gauge sampler never runs, so the evaluation
//! tables stay bit-identical. When on, no telemetry call may advance
//! the cost-model clock — counters only count, and the sampler *reads*
//! the simulated clock at a fixed cadence
//! (`PvmConfig::telemetry_sample_ns`) without ever charging it, so the
//! sim-time series is a pure observation of the run it rides on.
//!
//! Gauges that counters cannot express — free frames,
//! completion-table depth, pages awaiting arrival, clock-ring size —
//! are captured as
//! [`TelemetrySample`] points into a bounded [`SeriesRing`]
//! (drop-oldest), exported by [`crate::TraceSink`] as chrome-trace
//! counter tracks and a `telemetry.json` artifact.

use chorus_hal::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

macro_rules! dims {
    ($($(#[$doc:meta])* $variant:ident => $label:literal,)*) => {
        /// A labeled dimension of the telemetry registry.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Dim {
            $($(#[$doc])* $variant,)*
        }

        impl Dim {
            /// Every dimension, in declaration order.
            pub const ALL: &'static [Dim] = &[$(Dim::$variant,)*];

            /// Stable report label.
            pub fn label(self) -> &'static str {
                match self {
                    $(Dim::$variant => $label,)*
                }
            }
        }
    };
}

dims! {
    /// Per local cache (keyed by the cache's arena index).
    Cache => "cache",
    /// Per context (keyed by the context's arena index).
    Context => "context",
    /// Per mapper, approximated per segment (keyed by the segment id).
    Mapper => "mapper",
}

macro_rules! dim_counters {
    ($($(#[$doc:meta])* $variant:ident => $label:literal,)*) => {
        /// One per-entity counter of a dimensional family.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum DimCounter {
            $($(#[$doc])* $variant,)*
        }

        impl DimCounter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [DimCounter] = &[$(DimCounter::$variant,)*];

            /// Stable report label.
            pub fn label(self) -> &'static str {
                match self {
                    $(DimCounter::$variant => $label,)*
                }
            }
        }
    };
}

dim_counters! {
    /// Faults attributed to the entity (per context: every handled
    /// fault; per cache: those whose address resolved to a region of
    /// the cache).
    Faults => "faults",
    /// Successful `pullIn` requests (per cache and per mapper).
    PullIns => "pull_ins",
    /// Pages successfully pushed out (per cache and per mapper).
    PushOuts => "push_outs",
    /// Transient mapper retries (per mapper).
    Retries => "retries",
    /// Mapper deadline misses: upcalls abandoned or cancelled at their
    /// deadline (per mapper).
    Timeouts => "timeouts",
    /// In-flight requests cancelled by the watchdog (per mapper).
    Cancels => "cancels",
    /// Pages evicted by the clock algorithm (per cache).
    Evictions => "evictions",
    /// Misses that continued one of the cache's sequential streams
    /// (per cache).
    ReadaheadHits => "readahead_hits",
    /// Victims the replacement policy engine selected from the entity
    /// (per cache).
    PolicyVictims => "policy_victims",
    /// Readahead tail pages delivered (per cache).
    ReadaheadPages => "readahead_pages",
    /// Readahead pages evicted before their first touch (per cache).
    ReadaheadUnused => "readahead_unused",
    /// `pushOut` runs issued from the write-behind queue (per cache).
    WriteBehindPushes => "write_behind_pushes",
    /// `pushOut` runs issued inline by a stalled allocation (per
    /// cache).
    DemandPushes => "demand_pushes",
}

/// Number of counters in one dimensional row.
pub const N_DIM_COUNTERS: usize = DimCounter::ALL.len();

/// Entity ids below this bound live in a dense, pre-sized atomic array
/// (arena indices and segment ids are small sequential integers); the
/// hash map only ever holds pathological ids. Keeps the hot per-bump
/// cost down to one relaxed `fetch_add` — no lock on the dense path,
/// which is what keeps the telemetry-on wall overhead inside the
/// `ablation_telemetry` budget.
const DENSE_IDS: u64 = 1024;

/// One dimension's rows: a flat `DENSE_IDS × N_DIM_COUNTERS` atomic
/// array for small ids plus a mutexed spill map for the rest. A touched
/// row always has at least one nonzero counter (`add` rejects
/// `n == 0`), so all-zero dense rows are untouched and skipped on
/// export.
struct DimTable {
    dense: Box<[AtomicU64]>,
    sparse: Mutex<FxHashMap<u64, [u64; N_DIM_COUNTERS]>>,
}

impl DimTable {
    fn new() -> DimTable {
        DimTable {
            dense: (0..DENSE_IDS as usize * N_DIM_COUNTERS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            sparse: Mutex::new(FxHashMap::default()),
        }
    }

    #[inline]
    fn add(&self, id: u64, c: DimCounter, n: u64) {
        if id < DENSE_IDS {
            let cell = id as usize * N_DIM_COUNTERS + c as usize;
            self.dense[cell].fetch_add(n, Ordering::Relaxed);
        } else {
            self.sparse.lock().entry(id).or_insert([0; N_DIM_COUNTERS])[c as usize] += n;
        }
    }

    fn get(&self, id: u64) -> Option<[u64; N_DIM_COUNTERS]> {
        if id < DENSE_IDS {
            let row = self.load_dense(id as usize);
            row.iter().any(|&v| v != 0).then_some(row)
        } else {
            self.sparse.lock().get(&id).copied()
        }
    }

    fn load_dense(&self, id: usize) -> [u64; N_DIM_COUNTERS] {
        core::array::from_fn(|c| self.dense[id * N_DIM_COUNTERS + c].load(Ordering::Relaxed))
    }

    /// Touched rows, ascending id (dense ids are all below sparse ones).
    fn rows(&self) -> Vec<(u64, [u64; N_DIM_COUNTERS])> {
        let mut out: Vec<_> = (0..DENSE_IDS as usize)
            .map(|id| (id as u64, self.load_dense(id)))
            .filter(|(_, r)| r.iter().any(|&v| v != 0))
            .collect();
        let mut tail: Vec<_> = self.sparse.lock().iter().map(|(&id, &r)| (id, r)).collect();
        tail.sort_unstable_by_key(|&(id, _)| id);
        out.extend(tail);
        out
    }

    fn clear(&self) {
        for cell in self.dense.iter() {
            cell.store(0, Ordering::Relaxed);
        }
        self.sparse.lock().clear();
    }
}

/// The dimensional counter registry. Shared (via `Arc`) between the
/// locked state and its readers outside the lock. Small entity ids —
/// the only ones real runs produce — bump a pre-sized atomic array
/// without taking any lock; only pathological ids fall back to a
/// mutexed spill map. With the layer disabled every call is one relaxed
/// load.
pub struct Telemetry {
    enabled: AtomicBool,
    tables: [DimTable; Dim::ALL.len()],
}

impl Telemetry {
    /// A registry, enabled per `PvmConfig::telemetry`.
    pub fn new(enabled: bool) -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(enabled),
            tables: core::array::from_fn(|_| DimTable::new()),
        }
    }

    /// Whether dimensional counting is on (one relaxed load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds one to `(dim, id, c)`. A no-op when disabled.
    #[inline]
    pub fn bump(&self, dim: Dim, id: u64, c: DimCounter) {
        self.add(dim, id, c, 1);
    }

    /// Adds `n` to `(dim, id, c)`. A no-op when disabled or `n == 0`.
    #[inline]
    pub fn add(&self, dim: Dim, id: u64, c: DimCounter, n: u64) {
        if !self.enabled() || n == 0 {
            return;
        }
        self.tables[dim as usize].add(id, c, n);
    }

    /// Reads one dimensional counter (0 for an untouched entity).
    pub fn get(&self, dim: Dim, id: u64, c: DimCounter) -> u64 {
        self.tables[dim as usize]
            .get(id)
            .map(|row| row[c as usize])
            .unwrap_or(0)
    }

    /// Sums one counter across every entity of a dimension.
    pub fn sum(&self, dim: Dim, c: DimCounter) -> u64 {
        self.tables[dim as usize]
            .rows()
            .iter()
            .map(|(_, row)| row[c as usize])
            .sum()
    }

    /// Copies out one dimension's touched rows, sorted ascending by
    /// entity id (deterministic export order).
    pub fn table(&self, dim: Dim) -> Vec<(u64, [u64; N_DIM_COUNTERS])> {
        self.tables[dim as usize].rows()
    }

    /// Zeroes every table (the enabled flag is unchanged).
    pub fn reset(&self) {
        for t in &self.tables {
            t.clear();
        }
    }
}

impl core::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

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
    dropped: AtomicU64,
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
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a sample, dropping the oldest at capacity.
    pub fn push(&mut self, s: TelemetrySample) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
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
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the ring (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_counts_nothing() {
        let t = Telemetry::new(false);
        t.bump(Dim::Cache, 3, DimCounter::Faults);
        t.add(Dim::Mapper, 1, DimCounter::Retries, 9);
        assert!(!t.enabled());
        assert_eq!(t.get(Dim::Cache, 3, DimCounter::Faults), 0);
        assert!(t.table(Dim::Mapper).is_empty());
    }

    #[test]
    fn rows_accumulate_and_export_sorted() {
        let t = Telemetry::new(true);
        t.bump(Dim::Cache, 7, DimCounter::Faults);
        t.bump(Dim::Cache, 2, DimCounter::Faults);
        t.add(Dim::Cache, 7, DimCounter::PullIns, 3);
        t.bump(Dim::Context, 0, DimCounter::Faults);
        assert_eq!(t.get(Dim::Cache, 7, DimCounter::PullIns), 3);
        assert_eq!(t.sum(Dim::Cache, DimCounter::Faults), 2);
        let rows = t.table(Dim::Cache);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 2, "export is sorted by entity id");
        assert_eq!(rows[1].0, 7);
        t.reset();
        assert!(t.table(Dim::Cache).is_empty());
        assert!(t.enabled(), "reset keeps the enabled flag");
    }

    #[test]
    fn sparse_ids_merge_after_dense_rows() {
        let t = Telemetry::new(true);
        t.bump(Dim::Mapper, DENSE_IDS + 7, DimCounter::Retries);
        t.bump(Dim::Mapper, 3, DimCounter::Retries);
        let rows = t.table(Dim::Mapper);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 3, "dense rows sort before sparse ids");
        assert_eq!(rows[1].0, DENSE_IDS + 7);
        assert_eq!(t.get(Dim::Mapper, DENSE_IDS + 7, DimCounter::Retries), 1);
        assert_eq!(t.sum(Dim::Mapper, DimCounter::Retries), 2);
    }

    #[test]
    fn dim_and_counter_labels_are_stable() {
        assert_eq!(Dim::ALL.len(), 3);
        assert_eq!(DimCounter::ALL.len(), N_DIM_COUNTERS);
        assert_eq!(Dim::Mapper.label(), "mapper");
        assert_eq!(DimCounter::Faults.label(), "faults");
        assert_eq!(DimCounter::ReadaheadHits.label(), "readahead_hits");
        assert_eq!(N_DIM_COUNTERS, 13);
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
