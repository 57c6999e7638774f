//! Lock-free latency histograms and quantile snapshots.
//!
//! Serving a production workload means the *tail* matters more than the
//! mean: a worker pool that looks fine on average can still stall p99. This module provides the observability primitive behind
//! [`ServeStats`](crate::ServeStats) and the HTTP front-end's `/stats`
//! endpoint: a [`LatencyHistogram`] of atomically-updated log₂ buckets that
//! threads record into without ever taking a lock, and an immutable
//! [`HistogramSnapshot`] that turns the bucket counts into p50/p95/p99
//! estimates.
//!
//! Buckets are powers of two over microseconds: bucket `i` covers
//! `[2^i, 2^(i+1))` µs (bucket 0 also absorbs sub-microsecond samples, the
//! last bucket absorbs everything ≥ ~12.7 days *and* bumps an explicit
//! overflow counter so the clamping is visible in `/stats` and
//! `/metrics`). Log bucketing bounds the relative quantile error at ~2×
//! while keeping `record` a single atomic increment — the standard trade
//! for hot-path telemetry.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use saber_serve::stats::LatencyHistogram;
//!
//! let hist = LatencyHistogram::new();
//! for ms in [1u64, 2, 3, 4, 100] {
//!     hist.record(Duration::from_millis(ms));
//! }
//! let snap = hist.snapshot();
//! assert_eq!(snap.count(), 5);
//! let (p50, p99) = (snap.p50().unwrap(), snap.p99().unwrap());
//! assert!(p50 <= p99);
//! assert!(p99 >= 65_536.0, "the 100 ms outlier dominates p99");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets: `[1 µs, 2^40 µs ≈ 12.7 days)`, plus underflow
/// into bucket 0 and overflow into the last bucket.
pub const N_BUCKETS: usize = 40;

/// A fixed-size, lock-free histogram of durations in log₂-of-microseconds
/// buckets.
///
/// `record` is wait-free (one relaxed fetch-add); `snapshot` reads every
/// bucket without stopping writers, so a snapshot taken under load is a
/// *consistent-enough* view: per-bucket counts are exact, cross-bucket skew
/// is bounded by the records that land mid-scan.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    /// Sum of recorded microseconds, for mean latency.
    sum_micros: AtomicU64,
    /// Samples at or above the top bucket's nominal upper bound
    /// (`2^N_BUCKETS` µs). They still land in the last bucket — totals and
    /// quantiles stay consistent — but this counter makes the clamping
    /// visible instead of silently folding a 20-day sample into "12.7
    /// days" with no indicator.
    overflow: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// The bucket index a duration lands in: `floor(log₂(µs))`, clamped to
    /// the bucket range (sub-microsecond → 0, ≥ 2⁴⁰ µs → last).
    pub fn bucket_index(duration: Duration) -> usize {
        let micros = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        if micros == 0 {
            return 0;
        }
        ((63 - micros.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }

    /// The `[low, high)` microsecond range bucket `i` covers. Bucket 0 also
    /// holds sub-microsecond samples; the last bucket is open-ended (its
    /// `high` is the nominal power of two).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket {i} out of range");
        (1u64 << i, 1u64 << (i + 1))
    }

    /// Records one sample. Wait-free; safe to call from any number of
    /// threads concurrently. Samples at or above the top bucket bound are
    /// counted in the last bucket *and* in the explicit overflow counter
    /// (see [`HistogramSnapshot::overflow`]).
    pub fn record(&self, duration: Duration) {
        let micros = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(duration)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        if micros >= 1u64 << N_BUCKETS {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; N_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: counts.iter().sum(),
            counts,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`LatencyHistogram`], with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; N_BUCKETS],
    count: u64,
    sum_micros: u64,
    overflow: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; N_BUCKETS],
            count: 0,
            sum_micros: 0,
            overflow: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples in bucket `i` (see [`LatencyHistogram::bucket_bounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N_BUCKETS`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Sum of all recorded microseconds — with the per-bucket counts, the
    /// full state of the histogram. This is what the shard-info wire codec
    /// ships so a router can merge remote histograms at full fidelity
    /// (the JSON `/stats` body only carries derived quantiles).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// Samples that were at or above the last bucket's nominal upper bound
    /// when recorded. They are included in [`HistogramSnapshot::count`] and
    /// in the last bucket, so a nonzero overflow means "the top bucket's
    /// quantile estimates understate the true tail".
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Rebuilds a snapshot from sparse `(bucket index, count)` pairs, a
    /// microsecond sum and an overflow count — the inverse of iterating
    /// [`HistogramSnapshot::bucket_count`] over the non-empty buckets.
    /// Repeated indices accumulate, saturating at `u64::MAX` like
    /// [`HistogramSnapshot::merge`]. Returns `None` when an index is outside
    /// [`N_BUCKETS`].
    pub fn from_sparse_buckets(
        pairs: impl IntoIterator<Item = (usize, u64)>,
        sum_micros: u64,
        overflow: u64,
    ) -> Option<HistogramSnapshot> {
        let mut counts = [0u64; N_BUCKETS];
        for (i, c) in pairs {
            let slot = counts.get_mut(i)?;
            *slot = slot.saturating_add(c);
        }
        Some(HistogramSnapshot {
            count: counts
                .iter()
                .fold(0, |total: u64, &c| total.saturating_add(c)),
            counts,
            sum_micros,
            overflow,
        })
    }

    /// Mean latency in microseconds, or `None` when empty.
    pub fn mean_micros(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_micros as f64 / self.count as f64)
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in microseconds, or `None` when the
    /// histogram is empty.
    ///
    /// The estimate is the geometric midpoint of the bucket holding the
    /// `⌈q·n⌉`-th smallest sample, so it is exact to within the bucket's 2×
    /// width and — crucially for alerting — **monotone in `q`**: for any
    /// recorded data, `quantile(a) ≤ quantile(b)` whenever `a ≤ b`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let (low, high) = LatencyHistogram::bucket_bounds(i);
                return Some(((low as f64) * (high as f64)).sqrt());
            }
        }
        // `rank ≤ count = Σ counts`, so the loop always returns — but if
        // that bookkeeping ever broke, a monitoring endpoint must report
        // "no estimate", not abort the serving process.
        None
    }

    /// Median latency estimate in microseconds.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile latency estimate in microseconds.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile latency estimate in microseconds.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merges another snapshot into this one (bucket-wise sum, overflow
    /// counts included) — used to aggregate per-endpoint histograms into a
    /// service-wide view. Every sum saturates at `u64::MAX`, since a
    /// snapshot may come decoded from a remote shard.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.overflow = self.overflow.saturating_add(other.overflow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.mean_micros(), None);
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for (micros, expect) in [
            (0u64, 0),
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (1023, 9),
            (1024, 10),
        ] {
            assert_eq!(
                LatencyHistogram::bucket_index(Duration::from_micros(micros)),
                expect,
                "{micros} µs"
            );
        }
        // Overflow clamps to the last bucket instead of indexing out of range.
        assert_eq!(
            LatencyHistogram::bucket_index(Duration::from_secs(u64::MAX / 2)),
            N_BUCKETS - 1
        );
    }

    #[test]
    fn quantiles_bracket_known_distribution() {
        let hist = LatencyHistogram::new();
        // 99 samples at ~1 ms, one at ~1 s: p50 sits in the 1 ms bucket,
        // p99 must see the outlier (rank 100 ≥ ceil(0.99·100)... rank 99 is
        // still 1 ms; use 2 outliers so rank 99 lands on one).
        for _ in 0..98 {
            hist.record(Duration::from_micros(1000));
        }
        hist.record(Duration::from_secs(1));
        hist.record(Duration::from_secs(1));
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.p50().unwrap();
        assert!((512.0..2048.0).contains(&p50), "p50 = {p50}");
        let p99 = snap.p99().unwrap();
        assert!(p99 >= 524_288.0, "p99 = {p99} must reflect the outliers");
        assert!(snap.mean_micros().unwrap() > 1000.0);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(10));
        b.record(Duration::from_millis(50));
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(
            merged.bucket_count(3),
            2,
            "both 10 µs samples share a bucket"
        );
    }

    #[test]
    fn sparse_bucket_roundtrip_reconstructs_the_snapshot() {
        let hist = LatencyHistogram::new();
        for us in [1u64, 3, 900, 900, 5_000_000] {
            hist.record(Duration::from_micros(us));
        }
        let snap = hist.snapshot();
        let sparse: Vec<(usize, u64)> = (0..N_BUCKETS)
            .filter(|&i| snap.bucket_count(i) > 0)
            .map(|i| (i, snap.bucket_count(i)))
            .collect();
        let rebuilt =
            HistogramSnapshot::from_sparse_buckets(sparse, snap.sum_micros(), snap.overflow())
                .unwrap();
        assert_eq!(rebuilt, snap);
        assert_eq!(
            HistogramSnapshot::from_sparse_buckets([], 0, 0).unwrap(),
            HistogramSnapshot::default()
        );
        assert!(HistogramSnapshot::from_sparse_buckets([(N_BUCKETS, 1)], 0, 0).is_none());
    }

    #[test]
    fn overflow_is_counted_explicitly() {
        let hist = LatencyHistogram::new();
        hist.record(Duration::from_micros(500));
        // 2^40 µs ≈ 12.7 days is the nominal top bound; anything at or
        // above it still lands in the last bucket but bumps the overflow
        // counter instead of vanishing into "12.7 days" silently.
        hist.record(Duration::from_micros(1 << N_BUCKETS));
        hist.record(Duration::from_secs(30 * 24 * 3600));
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 3, "overflowed samples still count");
        assert_eq!(snap.bucket_count(N_BUCKETS - 1), 2);
        assert_eq!(snap.overflow(), 2);
        // The boundary itself: the last in-range sample does not overflow.
        let edge = LatencyHistogram::new();
        edge.record(Duration::from_micros((1 << N_BUCKETS) - 1));
        assert_eq!(edge.snapshot().overflow(), 0);
        // Overflow merges additively alongside the buckets.
        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.overflow(), 4);
        assert_eq!(merged.count(), 6);
        // And survives the sparse round trip.
        let sparse: Vec<(usize, u64)> = (0..N_BUCKETS)
            .filter(|&i| snap.bucket_count(i) > 0)
            .map(|i| (i, snap.bucket_count(i)))
            .collect();
        let rebuilt =
            HistogramSnapshot::from_sparse_buckets(sparse, snap.sum_micros(), snap.overflow())
                .unwrap();
        assert_eq!(rebuilt, snap);
    }

    /// Satellite coverage (ISSUE 8): many threads record into per-worker
    /// histograms concurrently while a reader merges snapshots mid-flight;
    /// the final merge must preserve every sample and the overflow count.
    #[test]
    fn concurrent_workers_merge_losslessly() {
        const WORKERS: usize = 8;
        const PER_WORKER: u64 = 2_000;
        let hists: std::sync::Arc<Vec<LatencyHistogram>> =
            std::sync::Arc::new((0..WORKERS).map(|_| LatencyHistogram::new()).collect());
        let threads: Vec<_> = (0..WORKERS)
            .map(|w| {
                let hists = std::sync::Arc::clone(&hists);
                std::thread::spawn(move || {
                    for i in 0..PER_WORKER {
                        // A deterministic spread over 5 decades, plus one
                        // overflowing sample per worker.
                        let us = 1 + (w as u64 * 7919 + i * 104_729) % 10_000_000;
                        hists[w].record(Duration::from_micros(us));
                    }
                    hists[w].record(Duration::from_micros(1 << N_BUCKETS));
                })
            })
            .collect();
        // Interleaved mid-flight merges must never observe more than the
        // final totals (snapshots are point-in-time copies).
        let mut mid = HistogramSnapshot::default();
        for h in hists.iter() {
            mid.merge(&h.snapshot());
        }
        assert!(mid.count() <= WORKERS as u64 * (PER_WORKER + 1));
        for t in threads {
            t.join().unwrap();
        }
        let mut merged = HistogramSnapshot::default();
        for h in hists.iter() {
            merged.merge(&h.snapshot());
        }
        assert_eq!(merged.count(), WORKERS as u64 * (PER_WORKER + 1));
        assert_eq!(merged.overflow(), WORKERS as u64);
        // The merged quantiles are bracketed by the per-worker extremes.
        for q in [0.5, 0.95, 0.99] {
            let per_worker: Vec<f64> = hists
                .iter()
                .map(|h| h.snapshot().quantile(q).unwrap())
                .collect();
            let merged_q = merged.quantile(q).unwrap();
            let lo = per_worker.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = per_worker.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                (lo..=hi).contains(&merged_q),
                "q{q}: merged {merged_q} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let hist = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = std::sync::Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        hist.record(Duration::from_micros(1 + (t * 1000 + i) % 5000));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hist.snapshot().count(), 4000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every sample lands in the bucket whose bounds contain it.
        #[test]
        fn samples_land_in_their_bucket(samples in proptest::collection::vec(1u64..5_000_000, 1..64)) {
            let hist = LatencyHistogram::new();
            for &us in &samples {
                hist.record(Duration::from_micros(us));
                let i = LatencyHistogram::bucket_index(Duration::from_micros(us));
                let (low, high) = LatencyHistogram::bucket_bounds(i);
                prop_assert!(low <= us && us < high, "{us} µs not in [{low}, {high})");
            }
            let snap = hist.snapshot();
            prop_assert_eq!(snap.count(), samples.len() as u64);
            // Per-bucket counts add up and agree with a direct tally.
            for i in 0..N_BUCKETS {
                let expect = samples
                    .iter()
                    .filter(|&&us| LatencyHistogram::bucket_index(Duration::from_micros(us)) == i)
                    .count() as u64;
                prop_assert_eq!(snap.bucket_count(i), expect);
            }
        }

        /// Merging preserves the total count (and per-bucket counts), and
        /// every quantile of the merged histogram is bracketed by the two
        /// inputs' quantiles — the property that makes a router's
        /// cross-shard aggregation honest (it can never report a tail
        /// outside what some shard actually saw).
        #[test]
        fn merge_preserves_counts_and_brackets_quantiles(
            a_samples in proptest::collection::vec(0u64..10_000_000, 1..96),
            b_samples in proptest::collection::vec(0u64..10_000_000, 1..96),
        ) {
            let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
            for &us in &a_samples {
                a.record(Duration::from_micros(us));
            }
            for &us in &b_samples {
                b.record(Duration::from_micros(us));
            }
            let (a, b) = (a.snapshot(), b.snapshot());
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.count(), a.count() + b.count());
            for i in 0..N_BUCKETS {
                prop_assert_eq!(
                    merged.bucket_count(i),
                    a.bucket_count(i) + b.bucket_count(i)
                );
            }
            for q in [0.01, 0.25, 0.50, 0.95, 0.99, 1.0] {
                let (qa, qb, qm) = (
                    a.quantile(q).unwrap(),
                    b.quantile(q).unwrap(),
                    merged.quantile(q).unwrap(),
                );
                prop_assert!(
                    qa.min(qb) <= qm && qm <= qa.max(qb),
                    "q{}: merged {} outside [{}, {}]", q, qm, qa.min(qb), qa.max(qb)
                );
            }
            // Merge order cannot matter (commutativity).
            let mut other_way = b.clone();
            other_way.merge(&a);
            prop_assert_eq!(merged, other_way);
        }

        /// Overflow counts are preserved under merge for arbitrary sample
        /// mixes spanning the in-range/overflow boundary.
        #[test]
        fn merge_preserves_overflow(
            a_samples in proptest::collection::vec(0u64..1 << 42, 1..64),
            b_samples in proptest::collection::vec(0u64..1 << 42, 1..64),
        ) {
            let expect = |samples: &[u64]| {
                samples.iter().filter(|&&us| us >= 1 << N_BUCKETS).count() as u64
            };
            let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
            for &us in &a_samples {
                a.record(Duration::from_micros(us));
            }
            for &us in &b_samples {
                b.record(Duration::from_micros(us));
            }
            let (a, b) = (a.snapshot(), b.snapshot());
            prop_assert_eq!(a.overflow(), expect(&a_samples));
            prop_assert_eq!(b.overflow(), expect(&b_samples));
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.overflow(), a.overflow() + b.overflow());
            prop_assert_eq!(merged.count(), a.count() + b.count());
        }

        /// Quantiles are monotone: p50 ≤ p95 ≤ p99 for arbitrary sample sets.
        #[test]
        fn quantiles_are_monotone(samples in proptest::collection::vec(0u64..10_000_000, 1..128)) {
            let hist = LatencyHistogram::new();
            for &us in &samples {
                hist.record(Duration::from_micros(us));
            }
            let snap = hist.snapshot();
            let (p50, p95, p99) = (
                snap.p50().unwrap(),
                snap.p95().unwrap(),
                snap.p99().unwrap(),
            );
            prop_assert!(p50 <= p95, "p50 {} > p95 {}", p50, p95);
            prop_assert!(p95 <= p99, "p95 {} > p99 {}", p95, p99);
            // Quantiles stay within one bucket (2×) of the true value.
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let true_p50 = sorted[(samples.len() - 1) / 2].max(1) as f64;
            prop_assert!(p50 >= true_p50 / 2.0 && p50 <= true_p50 * 2.0,
                "p50 estimate {} vs true {}", p50, true_p50);
        }
    }
}
