//! A log-linear histogram of nanosecond values.
//!
//! Per-op latencies are recorded here instead of in a sample vector so
//! that millions of ops add little to `peak_rss_mb`. Values below
//! `2^sub_bits` are exact; above, each power of two is split into
//! `2^sub_bits` buckets. A quantile is interpolated by rank inside its
//! bucket, which keeps it deterministic for a given input.

/// Values are clamped below 2^40 ns (about 18 minutes).
const MAX_BITS: u32 = 40;

/// A fixed-size latency histogram.
#[derive(Clone)]
pub struct Hist {
    sub_bits: u32,
    buckets: Vec<u64>,
    count: u64,
}

impl Hist {
    /// For host time: buckets 0.4 % wide, 66 KiB.
    pub fn wall() -> Hist {
        Hist::new(8)
    }

    /// For simulated time, whose values are sums of a few fixed costs
    /// and repeat exactly: buckets 0.006 % wide (1 us at 16 ms), 3.4 MiB.
    pub fn sim() -> Hist {
        Hist::new(14)
    }

    fn new(sub_bits: u32) -> Hist {
        Hist {
            sub_bits,
            buckets: vec![0; ((MAX_BITS - sub_bits + 1) as usize) << sub_bits],
            count: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let v = v.min((1 << MAX_BITS) - 1);
        let sub = 1u64 << self.sub_bits;
        let idx = if v < sub {
            v
        } else {
            let shift = (63 - v.leading_zeros()) - self.sub_bits;
            (u64::from(shift + 1) << self.sub_bits) + ((v >> shift) & (sub - 1))
        };
        self.buckets[idx as usize] += 1;
        self.count += 1;
    }

    /// Adds another histogram's values to this one.
    pub fn merge(&mut self, other: &Hist) {
        assert_eq!(self.sub_bits, other.sub_bits, "histograms of one kind");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q` quantile (`0 < q <= 1`) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let k = ((q * self.count as f64).ceil() as u64).clamp(1, self.count) - 1;
        let mut before = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if k < before + c {
                let (idx, sub) = (idx as u64, 1u64 << self.sub_bits);
                if idx < sub {
                    return idx as f64;
                }
                let shift = (idx >> self.sub_bits) - 1;
                let lo = (sub + (idx & (sub - 1))) << shift;
                let width = (1u64 << shift) as f64;
                return lo as f64 + width * ((k - before) as f64 + 0.5) / c as f64;
            }
            before += c;
        }
        unreachable!("rank below the recorded count")
    }
}

/// The median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
