//! The state lock: the PVM's one mutex, in a wrapper that counts its
//! acquisitions and contended acquisitions (`state_lock_acqs` /
//! `state_lock_contended`, which the end-to-end scoreboard reads),
//! profiles them per entry point, and hands the lock over without
//! parking when the hold it waits out is short.
//!
//! - **Profile.** Every acquisition names its [`LockEntry`]. Each entry
//!   keeps two log2 [`Histogram`]s of wall-clock nanoseconds: the wait of
//!   a contended acquisition (the uncontended path reads no clock) and
//!   the hold of one acquisition in [`HOLD_SAMPLE`]. [`LockProfile`]
//!   copies them out. They are host time: nothing deterministic (the
//!   simulated clock, a counter row, a committed report) reads them.
//! - **Hand over.** A waiter whose `try_lock` missed spins on
//!   `try_lock` for at most [`SPIN_BUDGET`], then parks in the mutex's
//!   own `lock()` and counts a give-up (DESIGN.md §7 "Spin, then
//!   park").
//! - **Give up and take back.** A holder releases the lock in two
//!   places only: [`DomainGuard::unlocked`] around an upcall, which
//!   takes it back as [`LockEntry::Relock`] through the same counted,
//!   spinning path, and [`DomainGuard::wait_for`] on a stub's sleep.

use std::hint::spin_loop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{Counter, StatsRegistry};
use crate::trace::{Histogram, HistogramSnapshot};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// How long a contended acquisition spins before it parks: about the
/// 99.9th percentile of the state lock's hold time on `file-scan-mt`
/// (97.8 % of holds end within 8 µs, 99.96 % within 32 µs), so nearly
/// every handoff is caught without a futex round trip, and a waiter
/// behind a rare long hold (a multi-page `fillUp`, a `launder` pass)
/// gives up after a few percent of a scheduler quantum. Re-derive it
/// from [`LockProfile::hold_quantile_ns`] when the holds change.
pub const SPIN_BUDGET: Duration = Duration::from_micros(32);

/// One acquisition in this many has its hold timed.
pub const HOLD_SAMPLE: u32 = 64;

/// Where a state-lock acquisition is made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockEntry {
    /// `vm_read` / `vm_write`: one hold per page through its fault.
    VmAccess,
    /// `handle_fault`, the GMI fault entry point.
    Fault,
    /// `CacheIo::fill_up`: one hold per delivery.
    FillUp,
    /// Taking the lock back after an upcall (`pullIn`, `pushOut`,
    /// `segmentCreate`, `getWriteAccess`): only
    /// `DomainGuard::unlocked` acquires it.
    Relock,
    /// `CacheIo::copy_back`, `copy_back_run` and `move_back`.
    CopyBack,
    /// The other GMI calls (caches, contexts, regions, cache control)
    /// and `drain_upcalls`.
    Gmi,
    /// Waking from a `stub_cv` sleep; its wait is the sleep.
    StubSleep,
    /// Introspection: telemetry, `pvmtop`, counts, dumps, invariants.
    Query,
}

impl LockEntry {
    /// Every entry, in [`LockProfile::entries`] order.
    pub const ALL: [LockEntry; 8] = [
        LockEntry::VmAccess,
        LockEntry::Fault,
        LockEntry::FillUp,
        LockEntry::Relock,
        LockEntry::CopyBack,
        LockEntry::Gmi,
        LockEntry::StubSleep,
        LockEntry::Query,
    ];

    /// The entry's name in rendered output.
    pub fn label(self) -> &'static str {
        match self {
            LockEntry::VmAccess => "vm_access",
            LockEntry::Fault => "fault",
            LockEntry::FillUp => "fill_up",
            LockEntry::Relock => "relock",
            LockEntry::CopyBack => "copy_back",
            LockEntry::Gmi => "gmi",
            LockEntry::StubSleep => "stub_sleep",
            LockEntry::Query => "query",
        }
    }
}

/// Records a wall-clock duration.
fn record(hist: &Histogram, d: Duration) {
    hist.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

#[cold]
#[inline(never)]
fn hold_start() -> Option<Instant> {
    Some(Instant::now())
}

/// One entry's wait and hold histograms.
#[derive(Default)]
struct EntryHists {
    wait: Histogram,
    hold: Histogram,
}

/// The counting, profiling, spinning mutex around
/// [`crate::state::PvmState`].
pub(crate) struct DomainLock<T> {
    stats: Arc<StatsRegistry>,
    inner: Mutex<T>,
    hists: [EntryHists; LockEntry::ALL.len()],
    /// Acquisitions since the last timed hold. Only the holder writes
    /// it, so a load and a store stand in for a read-modify-write.
    tick: AtomicU32,
    /// Contended acquisitions that spent [`SPIN_BUDGET`] and parked.
    give_ups: AtomicU64,
}

impl<T> DomainLock<T> {
    pub(crate) fn new(value: T, stats: Arc<StatsRegistry>) -> DomainLock<T> {
        DomainLock {
            stats,
            inner: Mutex::new(value),
            hists: Default::default(),
            tick: AtomicU32::new(0),
            give_ups: AtomicU64::new(0),
        }
    }

    /// Locks for `entry`; never [`LockEntry::Relock`], which only
    /// [`DomainGuard::unlocked`] takes.
    #[inline]
    pub(crate) fn lock(&self, entry: LockEntry) -> DomainGuard<'_, T> {
        debug_assert!(
            entry != LockEntry::Relock,
            "re-lock through DomainGuard::unlocked"
        );
        let inner = self.acquire(entry);
        DomainGuard {
            held_since: self.sample_hold(),
            inner,
            lock: self,
            entry,
        }
    }

    /// Takes the mutex for `entry`, counting the acquisition and (when
    /// the uncontended try-lock misses) the contention. A contended
    /// acquisition spins on the try-lock for up to [`SPIN_BUDGET`],
    /// then parks; its wait is recorded either way.
    #[inline]
    fn acquire(&self, entry: LockEntry) -> MutexGuard<'_, T> {
        self.stats.bump(Counter::StateLockAcqs);
        match self.inner.try_lock() {
            Some(g) => g,
            None => {
                self.stats.bump(Counter::StateLockContended);
                self.contended(entry)
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn contended(&self, entry: LockEntry) -> MutexGuard<'_, T> {
        let start = Instant::now();
        let mut pause = 1u32;
        let guard = loop {
            (0..pause).for_each(|_| spin_loop());
            pause = (pause * 2).min(32);
            if let Some(g) = self.inner.try_lock() {
                break g;
            }
            if start.elapsed() >= SPIN_BUDGET {
                self.give_ups.fetch_add(1, Ordering::Relaxed);
                break self.inner.lock();
            }
        };
        record(&self.hist(entry).wait, start.elapsed());
        guard
    }

    /// The start of a timed hold, one acquisition in [`HOLD_SAMPLE`].
    /// Called with the lock held.
    #[inline]
    fn sample_hold(&self) -> Option<Instant> {
        let n = self.tick.load(Ordering::Relaxed).wrapping_add(1);
        self.tick.store(n, Ordering::Relaxed);
        if n.is_multiple_of(HOLD_SAMPLE) {
            hold_start()
        } else {
            None
        }
    }

    /// Records a timed hold. Out of line, like [`hold_start`], so that
    /// the sampling adds a test and a branch to each guard's inline
    /// code and nothing more.
    #[cold]
    #[inline(never)]
    fn record_hold(&self, entry: LockEntry, since: Instant) {
        record(&self.hist(entry).hold, since.elapsed());
    }

    fn hist(&self, entry: LockEntry) -> &EntryHists {
        &self.hists[entry as usize]
    }

    /// A copy of the histograms and the give-up count.
    pub(crate) fn profile(&self) -> LockProfile {
        LockProfile {
            entries: LockEntry::ALL
                .iter()
                .map(|&entry| EntryProfile {
                    entry,
                    wait: self.hist(entry).wait.snapshot(),
                    hold: self.hist(entry).hold.snapshot(),
                })
                .collect(),
            give_ups: self.give_ups.load(Ordering::Relaxed),
        }
    }

    /// Clears the histograms and the give-up count.
    pub(crate) fn reset_profile(&self) {
        for h in &self.hists {
            h.wait.reset();
            h.hold.reset();
        }
        self.give_ups.store(0, Ordering::Relaxed);
    }
}

/// The guard of a [`DomainLock`]: the mutex guard, plus the start of
/// its hold when this acquisition is one of the timed ones.
pub(crate) struct DomainGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    lock: &'a DomainLock<T>,
    entry: LockEntry,
    held_since: Option<Instant>,
}

impl<T> DomainGuard<'_, T> {
    /// Gives the lock up while `f` runs (an upcall) and takes it back
    /// as [`LockEntry::Relock`], counted, spinning and profiled like any
    /// acquisition. The hold ends before `f`; a `Relock` hold follows.
    pub(crate) fn unlocked<U>(&mut self, f: impl FnOnce() -> U) -> U {
        self.end_hold();
        let lock = self.lock;
        let v = MutexGuard::unlocked(&mut self.inner, || (f(), lock.acquire(LockEntry::Relock)));
        self.entry = LockEntry::Relock;
        self.held_since = lock.sample_hold();
        v
    }

    /// Sleeps on `cv` for at most `timeout`, the lock released
    /// meanwhile. The hold ends at the sleep; the sleep is recorded as
    /// a [`LockEntry::StubSleep`] wait, and what follows it is that
    /// entry's hold.
    pub(crate) fn wait_for(&mut self, cv: &Condvar, timeout: Duration) {
        self.end_hold();
        let start = Instant::now();
        let _ = cv.wait_for(&mut self.inner, timeout);
        self.entry = LockEntry::StubSleep;
        record(&self.lock.hist(self.entry).wait, start.elapsed());
        self.held_since = self.lock.sample_hold();
    }

    #[inline]
    fn end_hold(&mut self) {
        if let Some(t0) = self.held_since.take() {
            self.lock.record_hold(self.entry, t0);
        }
    }
}

impl<T> Drop for DomainGuard<'_, T> {
    fn drop(&mut self) {
        self.end_hold();
    }
}

impl<T> Deref for DomainGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for DomainGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// One entry point's histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryProfile {
    /// The entry point.
    pub entry: LockEntry,
    /// Wall-clock waits of its contended acquisitions (and, for
    /// [`LockEntry::StubSleep`], its sleeps).
    pub wait: HistogramSnapshot,
    /// Wall-clock holds of one acquisition in [`HOLD_SAMPLE`].
    pub hold: HistogramSnapshot,
}

/// The state lock's wall-clock profile (see [`crate::Pvm::lock_profile`]).
/// Host time, not simulated time: it varies run to run and appears in
/// no deterministic output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockProfile {
    /// One row per [`LockEntry`], in [`LockEntry::ALL`] order.
    pub entries: Vec<EntryProfile>,
    /// Contended acquisitions that spent [`SPIN_BUDGET`] and parked.
    pub give_ups: u64,
}

impl LockProfile {
    /// The row of `entry`.
    pub fn entry(&self, entry: LockEntry) -> &EntryProfile {
        &self.entries[entry as usize]
    }

    /// The `q` quantile of the sampled holds of every entry, as a
    /// bucket's upper bound: what [`SPIN_BUDGET`] is read off.
    pub fn hold_quantile_ns(&self, q: f64) -> u64 {
        let all = self
            .entries
            .iter()
            .map(|e| e.hold)
            .reduce(|a, b| a.merge(&b));
        all.map_or(0, |h| h.percentile(q))
    }

    /// A per-entry table: contended waits with their total, their p50 /
    /// p99 buckets and their longest, and sampled holds with their p50 /
    /// p99 / p99.9 buckets. The total wait, not the share of contended
    /// acquisitions, says how much waiting there was: a spin that
    /// catches more handoffs raises the share and cuts the total.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  STATE LOCK (wall ns, log2 buckets; W.TOTAL in us)  spin budget {} ns, \
             {} give-ups, hold p99.9 {} ns\n",
            SPIN_BUDGET.as_nanos(),
            self.give_ups,
            self.hold_quantile_ns(0.999),
        );
        out.push_str(
            "  ENTRY          WAITS   W.TOTAL   W.P50   W.P99   W.MAX    HOLDS   H.P50   H.P99  \
             H.P999\n",
        );
        for e in &self.entries {
            let (w, h) = (&e.wait, &e.hold);
            out.push_str(&format!(
                "  {:<10} {:>9} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7} {:>7}\n",
                e.entry.label(),
                w.count(),
                w.sum / 1_000,
                w.percentile(0.5),
                w.percentile(0.99),
                w.max,
                h.count(),
                h.percentile(0.5),
                h.percentile(0.99),
                h.percentile(0.999),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counts_acquisitions_and_contention() {
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(0u64, stats.clone()));
        *l.lock(LockEntry::Gmi) += 1;
        *l.lock(LockEntry::Gmi) += 1;
        assert_eq!(stats.get(Counter::StateLockAcqs), 2);
        assert_eq!(stats.get(Counter::StateLockContended), 0, "uncontended");

        // Force one contended acquisition: hold the lock in a thread
        // until the main thread has registered its attempt.
        let held = l.lock(LockEntry::Gmi);
        let l2 = l.clone();
        let t = std::thread::spawn(move || {
            *l2.lock(LockEntry::Gmi) += 1;
        });
        // Give the spawned thread a moment to miss the try-lock. The
        // counter is monotone, so a lost race only weakens the assert
        // below into `>= 0`, never a failure.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        assert_eq!(stats.get(Counter::StateLockAcqs), 4);
        assert_eq!(*l.lock(LockEntry::Gmi), 3);
    }

    /// Two threads hand the lock back and forth through 200 k short
    /// holds, each a read and a write of the protected value: a handoff
    /// that let both in at once would lose an increment.
    #[test]
    fn short_holds_hand_over_exactly() {
        const HOLDS: u64 = 100_000;
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(0u64, stats.clone()));
        let run = |l: Arc<DomainLock<u64>>| {
            move || {
                for _ in 0..HOLDS {
                    let mut g = l.lock(LockEntry::Fault);
                    let v = *g;
                    spin_loop();
                    *g = v + 1;
                }
            }
        };
        let t = std::thread::spawn(run(l.clone()));
        run(l.clone())();
        t.join().unwrap();
        assert_eq!(*l.lock(LockEntry::Query), 2 * HOLDS);
        assert_eq!(stats.get(Counter::StateLockAcqs), 2 * HOLDS + 1);
        // Every timed hold was recorded against its entry.
        let p = l.profile();
        let holds = p.entry(LockEntry::Fault).hold.count();
        assert_eq!(holds, 2 * HOLDS / u64::from(HOLD_SAMPLE));
        let waits = p.entry(LockEntry::Fault).wait.count();
        assert_eq!(waits, stats.get(Counter::StateLockContended));
    }

    /// A waiter behind a 20 ms hold spins for the budget, gives up and
    /// parks; its wait lands in a bucket at or above 16 ms.
    #[test]
    fn a_waiter_behind_a_long_hold_parks() {
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(0u64, stats.clone()));
        let held = l.lock(LockEntry::FillUp);
        let trying = Arc::new(AtomicBool::new(false));
        let (l2, trying2) = (l.clone(), trying.clone());
        let t = std::thread::spawn(move || {
            trying2.store(true, Ordering::SeqCst);
            *l2.lock(LockEntry::VmAccess) += 1;
        });
        while !trying.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        let p = l.profile();
        assert_eq!(p.give_ups, 1);
        let wait = p.entry(LockEntry::VmAccess).wait;
        assert_eq!(wait.count(), 1);
        let at_16ms = Histogram::bucket_of(16_000_000);
        assert_eq!(wait.buckets[at_16ms..].iter().sum::<u64>(), 1, "{wait:?}");
        assert!(wait.percentile(1.0) >= 16_000_000);
        assert!(
            wait.sum >= 16_000_000,
            "the total wait is the histogram's sum"
        );
        l.reset_profile();
        assert_eq!(l.profile().give_ups, 0);
    }

    /// `unlocked` lets another thread in while `f` runs, returns what
    /// `f` returned, and counts one acquisition of its own, as
    /// `Relock`: a contended re-lock records its wait there.
    #[test]
    fn unlocked_lets_others_in_and_relocks_once() {
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(0u64, stats.clone()));
        let mut g = l.lock(LockEntry::Fault);
        let before = stats.get(Counter::StateLockAcqs);
        let l2 = l.clone();
        let seen = g.unlocked(|| {
            let other = std::thread::spawn(move || {
                let mut o = l2.lock(LockEntry::Gmi);
                *o += 1;
                *o
            });
            other.join().unwrap()
        });
        assert_eq!(seen, 1, "another thread held the lock meanwhile");
        assert_eq!((*g, g.entry), (1, LockEntry::Relock));
        assert_eq!(
            stats.get(Counter::StateLockAcqs) - before,
            2,
            "the other thread's acquisition and one re-lock"
        );

        // The other thread still holds the lock when `f` returns: the
        // re-lock waits, and its wait is `Relock`'s.
        let before = stats.get(Counter::StateLockAcqs);
        let (l2, holding) = (l.clone(), Arc::new(AtomicBool::new(false)));
        let holding2 = holding.clone();
        let mut other = None;
        g.unlocked(|| {
            other = Some(std::thread::spawn(move || {
                let _o = l2.lock(LockEntry::Gmi);
                holding2.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }));
            while !holding.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        drop(g);
        other.unwrap().join().unwrap();
        assert_eq!(stats.get(Counter::StateLockAcqs) - before, 2);
        let p = l.profile();
        assert_eq!(p.entry(LockEntry::Relock).wait.count(), 1);
        assert_eq!(p.entry(LockEntry::Gmi).wait.count(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "DomainGuard::unlocked")]
    fn relock_is_taken_only_by_unlocked() {
        let l = DomainLock::new(0u64, Arc::new(StatsRegistry::new()));
        let _g = l.lock(LockEntry::Relock);
    }

    #[test]
    fn buckets_are_log2() {
        use crate::trace::histogram::{bucket_bounds, BUCKETS};
        let bucket = Histogram::bucket_of;
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!((bucket(2), bucket(3), bucket(4)), (2, 2, 3));
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(
            h.snapshot().buckets[BUCKETS - 1],
            1,
            "the last bucket takes the rest"
        );
        for b in 1..BUCKETS - 1 {
            let (_, upper) = bucket_bounds(b);
            assert_eq!(bucket(upper - 1), b);
            assert_eq!(bucket(upper), b + 1);
        }
        let h = Histogram::new();
        (0..999).for_each(|_| h.record(5_000));
        h.record(40_000);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 8_192);
        assert_eq!(s.percentile(0.999), 8_192);
        assert_eq!(s.percentile(1.0), 65_536);
    }
}
