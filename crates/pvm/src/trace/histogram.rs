//! Log2-bucket latency histograms.
//!
//! Each [`Histogram`] is a fixed array of atomic buckets where bucket
//! `i` counts samples with `2^(i-1) <= v < 2^i` nanoseconds (bucket 0
//! counts zero-duration samples). Recording is wait-free (one
//! `fetch_add` per sample) so a histogram can sit on the fault hot path
//! without taking any lock; the cells only count, never touch the cost
//! model, preserving the tracer's determinism rule. The tracer's phases
//! record simulated time; the state lock's profile
//! ([`crate::LockProfile`]) records wall-clock time.

use core::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: enough for durations up to `2^63` ns.
pub const BUCKETS: usize = 64;

macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident => $label:literal,)*) => {
        /// A pipeline phase whose latency distribution is tracked.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Phase {
            $($(#[$doc])* $variant,)*
        }

        impl Phase {
            /// Every phase, in declaration order.
            pub const ALL: &'static [Phase] = &[$(Phase::$variant,)*];

            /// Stable report label.
            pub fn label(self) -> &'static str {
                match self {
                    $(Phase::$variant => $label,)*
                }
            }
        }
    };
}

phases! {
    /// Whole fault, entry to resolution.
    FaultTotal => "fault.total",
    /// `pullIn` upcall including retries and backoff.
    PullIn => "upcall.pullIn",
    /// `pushOut` upcall including retries and backoff.
    PushOut => "upcall.pushOut",
    /// `getWriteAccess` upcall including retries and backoff.
    GetWriteAccess => "upcall.getWriteAccess",
    /// One sleep on a synchronization page stub.
    StubWait => "stub.wait",
    /// Demand-fault time spent blocked on a synchronous `pushOut`
    /// (dirty eviction in the faulting thread — what the writeback
    /// daemon exists to avoid).
    EvictStall => "fault.evictStall",
}

/// One wait-free log2 latency histogram (durations in ns).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: core::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index of a duration: 0 for 0 ns, else
    /// `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample (one of `2^63` ns or more in the last bucket).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the cells into a plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: core::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)` ns (bucket 0:
    /// exactly zero).
    pub buckets: [u64; BUCKETS],
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest sample (ns).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The samples of both snapshots.
    pub fn merge(mut self, other: &HistogramSnapshot) -> HistogramSnapshot {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// An upper bound on the `p`-th percentile sample (`0.0..=1.0`):
    /// the exclusive upper bound of the bucket holding that sample, or
    /// 0 with no samples. Bucket granularity (log2) bounds the error.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        self.max
    }

    /// Renders the non-empty buckets as fixed-width text rows,
    /// `[lo, hi) ns  count  bar`.
    pub fn render(&self) -> String {
        let total = self.count();
        if total == 0 {
            return "  (no samples)\n".to_string();
        }
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  [{lo:>12} ns, {hi:>12} ns)  {n:>8}  {bar}\n"));
        }
        out.push_str(&format!(
            "  samples={} sum={} ns mean={:.0} ns max={} ns\n",
            total,
            self.sum,
            self.mean(),
            self.max
        ));
        out
    }
}

/// The `[lo, hi)` ns bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        _ => (
            1u64 << (i - 1),
            1u64.checked_shl(i as u32).unwrap_or(u64::MAX),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            let (lo, hi) = bucket_bounds(Histogram::bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn record_snapshot_reset_roundtrip() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 870_000, 1_400_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 2_270_002);
        assert_eq!(s.max, 1_400_000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert!(s.render().contains("samples=5"));
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(Phase::ALL.len(), 6);
        assert_eq!(Phase::FaultTotal.label(), "fault.total");
        assert_eq!(Phase::PullIn.label(), "upcall.pullIn");
        assert_eq!(Phase::EvictStall.label(), "fault.evictStall");
    }

    #[test]
    fn percentile_is_bucket_upper_bound() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(0.99), 0);
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(1000); // bucket [512, 1024)
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 16);
        assert_eq!(s.percentile(0.99), 16);
        assert_eq!(s.percentile(1.0), 1024);
    }
}
