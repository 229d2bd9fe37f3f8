//! The benchmark's own latency recorder.
//!
//! Log-linear buckets: every value below 128 ns has a bucket of its own, and
//! each power-of-two range above that is split into 128 equal sub-buckets,
//! so a bucket's width never exceeds 1/128 (0.78%) of its lower edge. A
//! quantile therefore reads within 1% of the true sample, where a
//! power-of-two histogram can only read 512 ns, 1.0 us or 2.0 us.
//!
//! Samples are per-call durations: callers take the start time immediately
//! before the call they time (see [`timed`]), never a run-wide origin.

use std::time::Instant;

/// Sub-buckets per power of two (and the exact range below it).
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Buckets needed to cover every `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A mergeable latency histogram over nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

/// Bucket index of `v`.
fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Smallest and largest value that land in bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.sum += ns as u128;
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (nearest rank), read as its bucket's midpoint; 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds(i);
                return (lo as f64 + hi as f64) / 2.0;
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

/// Run one call; its result and its own duration in nanoseconds, measured
/// from immediately before the call.
#[inline]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Every value lands in a bucket that contains it, and no bucket is
    /// wider than 1% of its lower edge.
    #[test]
    fn buckets_contain_their_values_and_stay_within_one_percent() {
        let mut v = 1u64;
        let mut probes = Vec::new();
        while v < u64::MAX / 3 {
            probes.extend([v - 1, v, v + 1, v + v / 3, v * 2 - 1]);
            v *= 2;
        }
        probes.push(u64::MAX);
        for v in probes {
            let i = index(v);
            assert!(i < BUCKETS, "index {i} of {v} out of range");
            let (lo, hi) = bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            assert!(
                (hi - lo) as f64 <= 0.01 * lo as f64,
                "bucket [{lo}, {hi}] wider than 1%"
            );
        }
        // Adjacent buckets tile the line with no gap.
        for i in 1..BUCKETS {
            assert_eq!(bounds(i - 1).1 + 1, bounds(i).0, "gap before bucket {i}");
        }
    }

    /// Quantiles read within 1% of the exact order statistic.
    #[test]
    fn quantiles_resolve_to_one_percent() {
        let mut h = Hist::default();
        let samples: Vec<u64> = (0..10_000u64).map(|i| 500 + i * 37 % 2_000).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[(q * sorted.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= 0.01 * exact,
                "q{q}: {got} vs exact {exact}"
            );
        }
        // 900 ns and 1100 ns stay apart (a power-of-two histogram puts both
        // in [512, 1024) or [1024, 2048) and cannot tell 900 from 1000).
        let mut a = Hist::default();
        a.record(900);
        let mut b = Hist::default();
        b.record(1_000);
        assert!(a.quantile(0.5) < 910.0 && b.quantile(0.5) > 990.0);
    }

    /// Each sample is the call's own duration: a run of equal calls reads
    /// the same at p50 and p99 however long the run has been going, where
    /// timing from the run's start would make the tail grow with the run.
    #[test]
    fn timed_measures_each_call_not_time_since_start() {
        let call = Duration::from_micros(200);
        let mut h = Hist::default();
        for _ in 0..100 {
            let ((), ns) = timed(|| {
                let t = Instant::now();
                while t.elapsed() < call {
                    std::hint::spin_loop();
                }
            });
            h.record(ns);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        // 100 calls take >= 20 ms in total; a since-start stamp would put
        // the median near 10 ms.
        assert!(p50 >= 200_000.0 * 0.99, "p50 {p50} below one call");
        assert!(p50 < 2_000_000.0, "p50 {p50} grows with the run");
    }

    #[test]
    fn merge_adds_counts_and_empty_reads_zero() {
        let mut a = Hist::default();
        assert_eq!(a.quantile(0.99), 0.0);
        assert_eq!(a.mean(), 0.0);
        a.record(10);
        let mut b = Hist::default();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 20.0);
        assert_eq!(a.quantile(1.0), 30.0);
    }
}
