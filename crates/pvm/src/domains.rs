//! The state lock: the PVM's one mutex, in a wrapper that counts its
//! acquisitions and contended acquisitions (`state_lock_acqs` /
//! `state_lock_contended`, which the end-to-end scoreboard reads).

use std::sync::Arc;

use crate::stats::{Counter, StatsRegistry};
use parking_lot::{Mutex, MutexGuard};

/// The counting mutex around [`crate::state::PvmState`].
pub(crate) struct DomainLock<T> {
    stats: Arc<StatsRegistry>,
    inner: Mutex<T>,
}

impl<T> DomainLock<T> {
    pub(crate) fn new(value: T, stats: Arc<StatsRegistry>) -> DomainLock<T> {
        DomainLock {
            stats,
            inner: Mutex::new(value),
        }
    }

    /// Locks, counting the acquisition and (when the uncontended
    /// try-lock misses) the contention.
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.stats.bump(Counter::StateLockAcqs);
        match self.inner.try_lock() {
            Some(g) => g,
            None => {
                self.stats.bump(Counter::StateLockContended);
                self.inner.lock()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_acquisitions_and_contention() {
        let stats = Arc::new(StatsRegistry::new());
        let l = Arc::new(DomainLock::new(0u64, stats.clone()));
        *l.lock() += 1;
        *l.lock() += 1;
        assert_eq!(stats.get(Counter::StateLockAcqs), 2);
        assert_eq!(stats.get(Counter::StateLockContended), 0, "uncontended");

        // Force one contended acquisition: hold the lock in a thread
        // until the main thread has registered its attempt.
        let held = l.lock();
        let l2 = l.clone();
        let t = std::thread::spawn(move || {
            *l2.lock() += 1;
        });
        // Give the spawned thread a moment to miss the try-lock. The
        // counter is monotone, so a lost race only weakens the assert
        // below into `>= 0`, never a failure.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        t.join().unwrap();
        assert_eq!(stats.get(Counter::StateLockAcqs), 4);
        assert_eq!(*l.lock(), 3);
    }
}
