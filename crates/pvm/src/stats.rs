//! PVM event counters: the atomic registry and its snapshot view.
//!
//! The registry ([`StatsRegistry`]) is one cache of atomic cells shared
//! by every counting site — the locked state, the state lock's own
//! wrapper and the tracer all bump the *same* cells, so no counter can
//! lose updates to a non-atomic read-modify-write and no
//! fold-at-snapshot step has to reconcile divergent copies.
//! [`PvmStats`] survives as the plain snapshot view the tests and
//! benches always consumed; [`PvmStats::delta`] subtracts an earlier
//! snapshot for before/after measurements.

use core::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident => $variant:ident,)*) => {
        /// Identifies one atomic counter cell of the [`StatsRegistry`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The snapshot field name (stable report label).
            pub fn label(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($field),)*
                }
            }
        }

        /// Counters of notable PVM events, exposed for tests and benches.
        ///
        /// These complement the cost-model operation counts with events
        /// that are specific to the PVM's algorithms (history pushes,
        /// stub waits, zombie merges, ...). This is a point-in-time
        /// *snapshot* of the live [`StatsRegistry`]; take one with
        /// [`crate::Pvm::stats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct PvmStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl PvmStats {
            /// Field-wise difference `self - earlier` (saturating), for
            /// before/after bench windows.
            pub fn delta(&self, earlier: &PvmStats) -> PvmStats {
                PvmStats {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }

            /// The value of one counter, by registry id.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $(Counter::$variant => self.$field,)*
                }
            }
        }

        impl StatsRegistry {
            /// Copies every cell into a plain snapshot.
            pub fn snapshot(&self) -> PvmStats {
                PvmStats {
                    $($field: self.get(Counter::$variant),)*
                }
            }
        }
    };
}

counters! {
    /// Page faults handled (§4.1.2 entry).
    faults => Faults,
    /// Faults resolved by allocating a zero-filled page.
    zero_fills => ZeroFills,
    /// Faults resolved by a `pullIn` upcall.
    pull_ins => PullIns,
    /// `pushOut` upcalls performed.
    push_outs => PushOuts,
    /// Write violations resolved by materializing a private copy
    /// (copy-on-write resolution, either technique).
    cow_copies => CowCopies,
    /// Originals preserved into a history object before a source write.
    history_pushes => HistoryPushes,
    /// Own read-only pages promoted to writable.
    promotes => Promotes,
    /// Working history objects created to preserve the tree shape
    /// invariant (§4.2.3).
    working_objects => WorkingObjects,
    /// Single-child zombie nodes merged into their child.
    zombie_merges => ZombieMerges,
    /// Times a thread blocked on a synchronization page stub.
    stub_waits => StubWaits,
    /// Pages evicted by the clock algorithm.
    evictions => Evictions,
    /// Frames transferred cache-to-cache by `move` without copying.
    moved_frames => MovedFrames,
    /// Per-virtual-page copy-on-write stubs created (§4.3).
    cow_stubs_created => CowStubsCreated,
    /// `getWriteAccess` upcalls performed.
    write_access_upcalls => WriteAccessUpcalls,
    /// Mapper upcalls re-driven after a transient failure.
    mapper_retries => MapperRetries,
    /// Mapper upcalls abandoned because the retry deadline expired.
    mapper_timeouts => MapperTimeouts,
    /// Caches quarantined after a permanent mapper failure.
    quarantined_caches => QuarantinedCaches,
    /// Emergency eviction passes run when fault recovery hit
    /// `OutOfMemory`.
    emergency_pageouts => EmergencyPageouts,
    /// Reserved, never bumped: `benchmark/src/run.rs` still names this
    /// cell. A later `benchmark` PR drops `pvm.fast_path_hit_ratio`,
    /// then the cell goes.
    fast_path_hits => FastPathHits,
    /// Reserved, never bumped: `benchmark/src/run.rs` still names this
    /// cell. A later `benchmark` PR drops `pvm.shard_contention`, then
    /// the cell goes.
    shard_contention => ShardContention,
    /// Full clock-hand sweeps completed while hunting an eviction
    /// victim (each pass over the whole ring counts once).
    clock_full_sweeps => ClockFullSweeps,
    /// Batched `pushOut` requests shipped to a mapper (each batch
    /// launders one run of contiguous dirty pages; `push_outs` counts
    /// the individual pages).
    push_out_batches => PushOutBatches,
    /// Batched `pushOut` requests that failed part-way and were split
    /// into per-page retries to avoid dirty-page loss.
    push_batch_splits => PushBatchSplits,
    /// Continuations of a sequential stream of their cache's stream
    /// table that sized a (widened) window: a miss inside the stream's
    /// reach, or the stream's next window pulled ahead of its reader.
    readahead_hits => ReadaheadHits,
    /// Times a stream's pull window grew (doubled).
    readahead_ramps => ReadaheadRamps,
    /// Upcalls submitted to the completion engine (pull windows,
    /// fire-and-collect laundering pushes, advice rounds).
    async_submits => AsyncSubmits,
    /// Requests the completion engine concluded (a pull window once,
    /// with its last page or its failure); equals `async_submits` once
    /// the engine is drained.
    async_deliveries => AsyncDeliveries,
    /// Times a thread had to force-deliver the earliest in-flight
    /// completion to make progress (a stub wait, the faulter's own
    /// included; frame exhaustion; a submit over the cap).
    async_inflight_stalls => AsyncInflightStalls,
    /// Completions delivered in a different order than their requests
    /// were submitted (the observable signature of the engine).
    async_out_of_order => AsyncOutOfOrder,
    /// In-flight upcalls cancelled by the deadline watchdog after their
    /// per-request deadline (derived from the retry policy) expired on
    /// the simulated clock.
    watchdog_cancels => WatchdogCancels,
    /// Mappers escalated to the `Suspected` state after repeated
    /// watchdog timeouts (in-flight cap shrunk to one request at a
    /// time, one step short of quarantine).
    suspected_mappers => SuspectedMappers,
    /// Deterministic sim-time gauge samples recorded by the telemetry
    /// sampler (dimensional telemetry knob on; see [`crate::telemetry`]).
    telemetry_samples => TelemetrySamples,
    /// Acquisitions of the state lock, the PVM's one mutex.
    state_lock_acqs => StateLockAcqs,
    /// State-lock acquisitions that were contended (the uncontended
    /// try-lock missed and the caller blocked).
    state_lock_contended => StateLockContended,
    /// Victim-selection rounds requested from the replacement policy
    /// engine.
    policy_victim_requests => PolicyVictimRequests,
    /// Victims the policy engine actually produced (a request can come
    /// up empty when every candidate is pinned or cleaning).
    policy_victims => PolicyVictims,
    /// Candidate batches shipped to an external policy's segment
    /// manager through the `victimAdvice` upcall.
    policy_external_batches => PolicyExternalBatches,
    /// Candidate pages approved (still live) when external victim
    /// advice was applied.
    policy_external_approvals => PolicyExternalApprovals,
    /// Selections the external policy served from its internal
    /// fallback clock because advice was still in flight (or an entire
    /// approved batch had died by delivery time).
    policy_external_fallbacks => PolicyExternalFallbacks,
    /// Readahead tail pages delivered: pages a `pullIn` landed beyond
    /// the one its faulter asked for.
    readahead_pages => ReadaheadPages,
    /// Readahead pages evicted before their first touch (the wasted
    /// share of `readahead_pages`).
    readahead_unused => ReadaheadUnused,
    /// `pushOut` runs issued from the write-behind queue, on a light
    /// driver entry.
    write_behind_pushes => WriteBehindPushes,
    /// `pushOut` runs issued inline by an allocation that found the
    /// write-behind queue full (the faulter stalls on them).
    demand_pushes => DemandPushes,
    /// Second chances granted: times a replacement policy passed over a
    /// page because it was referenced, clearing the reference.
    ref_second_chances => RefSecondChances,
    /// Resident pages that lost their reference because the stream that
    /// pulled them in moved on to its next window (drop-behind).
    drop_behind_pages => DropBehindPages,
    /// Pull windows submitted ahead of their reader: the next window of
    /// a full-window stream, when the first readahead page of its
    /// current one is used.
    ahead_pulls => AheadPulls,
    /// Ahead windows that fell due and were not submitted: fewer than
    /// two free slots at the mapper, no frame free or clean, or nothing
    /// left of the segment to pull.
    ahead_skipped => AheadSkipped,
}

const N_COUNTERS: usize = Counter::ALL.len();

/// The live counter cells. One instance per [`crate::Pvm`], shared (via
/// `Arc`) with the state, its lock and the tracer so every bump lands in
/// the same atomic cell whether or not the bumping path holds the lock.
pub struct StatsRegistry {
    cells: [AtomicU64; N_COUNTERS],
}

impl Default for StatsRegistry {
    fn default() -> StatsRegistry {
        StatsRegistry::new()
    }
}

impl StatsRegistry {
    /// A zeroed registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry {
            cells: core::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds one to a counter.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if n != 0 {
            self.cells[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.cells[c as usize].load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

impl core::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_and_reset() {
        let r = StatsRegistry::new();
        r.bump(Counter::ZeroFills);
        r.add(Counter::MapperRetries, 3);
        let s = r.snapshot();
        assert_eq!(s.zero_fills, 1);
        assert_eq!(s.mapper_retries, 3);
        assert_eq!(s.get(Counter::MapperRetries), 3);
        r.reset();
        assert_eq!(r.snapshot(), PvmStats::default());
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let r = StatsRegistry::new();
        r.add(Counter::Evictions, 2);
        let before = r.snapshot();
        r.add(Counter::Evictions, 3);
        r.bump(Counter::StubWaits);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.evictions, 3);
        assert_eq!(d.stub_waits, 1);
        assert_eq!(d.faults, 0);
    }

    #[test]
    fn counter_labels_match_snapshot_fields() {
        assert_eq!(Counter::ALL.len(), 47);
        assert_eq!(Counter::AheadSkipped.label(), "ahead_skipped");
        assert_eq!(Counter::ReadaheadHits.label(), "readahead_hits");
        assert_eq!(Counter::ReadaheadRamps.label(), "readahead_ramps");
        assert_eq!(Counter::PolicyVictims.label(), "policy_victims");
        assert_eq!(Counter::TelemetrySamples.label(), "telemetry_samples");
        assert_eq!(Counter::StateLockAcqs.label(), "state_lock_acqs");
        assert_eq!(Counter::WatchdogCancels.label(), "watchdog_cancels");
        assert_eq!(Counter::AsyncSubmits.label(), "async_submits");
        assert_eq!(Counter::PushOutBatches.label(), "push_out_batches");
    }

    #[test]
    fn concurrent_bumps_never_lose_updates() {
        let r = std::sync::Arc::new(StatsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.bump(Counter::StubWaits);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.get(Counter::StubWaits), 40_000);
    }
}
