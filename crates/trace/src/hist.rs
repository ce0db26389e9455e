//! Log-linear histogram for latency-style values.
//!
//! Values (nanoseconds, microseconds, counts, …) are bucketed on a
//! log-linear grid: one major bucket per power of two of the value, each
//! subdivided into [`SUB_BUCKETS`] linear sub-buckets. This bounds the
//! relative quantile error at `1 / SUB_BUCKETS` (25%) per estimate. The
//! 256 × `u64` bucket array (2 KB) is allocated on the first
//! [`Histogram::record`], so an empty histogram, such as an idle
//! SLO-window slot, holds only its exact statistics.
//!
//! Every power of two is a bucket edge, so the number of observations
//! below `2^k` is exact ([`Histogram::count_below_pow2`]); the
//! Prometheus `le` ladder of [`crate::metrics::PromWriter::histogram`]
//! is placed on those edges.

/// Number of power-of-two major buckets (covers the full `u64` range).
pub const MAJOR_BUCKETS: usize = 64;
/// Linear subdivisions inside each major bucket.
pub const SUB_BUCKETS: usize = 4;
/// Total bucket count of a [`Histogram`].
pub const NUM_BUCKETS: usize = MAJOR_BUCKETS * SUB_BUCKETS;

/// Log-linear histogram with exact `count`/`sum`/`min`/`max`.
///
/// Quantiles ([`Histogram::quantile`]) are estimated from the bucket grid;
/// everything else is exact. The histogram is a plain value type — thread
/// safety is provided by the registry that owns it.
#[derive(Clone, Default)]
pub struct Histogram {
    /// `None` until the first observation.
    buckets: Option<Box<[u64; NUM_BUCKETS]>>,
    count: u64,
    sum: u64,
    /// Meaningful only while `count > 0`.
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create an empty histogram; it allocates nothing until the first
    /// [`Histogram::record`].
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket that `value` falls into.
    fn bucket_index(value: u64) -> usize {
        // Values below SUB_BUCKETS map 1:1 onto the first buckets.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize; // >= 2 here
        let major = msb - 1; // shift so small values occupy low majors
        let sub = ((value >> (msb - 2)) & (SUB_BUCKETS as u64 - 1)) as usize;
        let idx = major * SUB_BUCKETS + sub;
        idx.min(NUM_BUCKETS - 1)
    }

    /// Representative (lower-bound) value of bucket `idx`, used when
    /// estimating quantiles.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let major = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        let msb = major + 1;
        if msb >= 64 {
            // The top few bucket slots are unreachable from `bucket_index`
            // (it clamps at major 62); saturate instead of overflowing.
            return u64::MAX;
        }
        (1u64 << msb) + (sub << (msb - 2))
    }

    fn buckets_mut(&mut self) -> &mut [u64; NUM_BUCKETS] {
        self.buckets
            .get_or_insert_with(|| Box::new([0; NUM_BUCKETS]))
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets_mut()[Self::bucket_index(value)] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the bucket grid.
    ///
    /// The estimate is the floor of the bucket containing the target rank,
    /// clamped to the exact `[min, max]` range, so single-bucket
    /// distributions return exact values.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(buckets) = &self.buckets else {
            return 0;
        };
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation (1-based, rounded up).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Exact number of observations below `2^k` (`k` is capped at 63):
    /// `2^k` is a bucket edge, so no bucket straddles it.
    pub fn count_below_pow2(&self, k: u32) -> u64 {
        let edge = Self::bucket_index(1u64 << k.min(63));
        self.buckets.as_ref().map_or(0, |b| b[..edge].iter().sum())
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        let Some(theirs) = &other.buckets else {
            return;
        };
        for (a, b) in self.buckets_mut().iter_mut().zip(theirs.iter()) {
            *a += *b;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let mut h = Histogram::new();
        h.merge(&Histogram::new());
        assert!(h.buckets.is_none(), "no buckets before the first record");
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 9, 1000, 7, 42] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 3 + 9 + 1000 + 7 + 42);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        assert_eq!(h.quantile(0.5), 777);
        assert_eq!(h.quantile(0.95), 777);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p95 = h.quantile(0.95) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.30, "p50={p50}");
        assert!((p95 - 9_500.0).abs() / 9_500.0 < 0.30, "p95={p95}");
        // Monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn bucket_index_is_monotone_nondecreasing() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "v={v} idx={idx} last={last}");
            last = idx;
        }
        // Extremes don't panic and land in range.
        assert!(Histogram::bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_floor_is_consistent_with_index() {
        for idx in 0..NUM_BUCKETS {
            let floor = Histogram::bucket_floor(idx);
            if floor == u64::MAX {
                continue; // unreachable top slots saturate
            }
            // The floor of a bucket must map back into that bucket.
            assert_eq!(
                Histogram::bucket_index(floor),
                idx,
                "idx={idx} floor={floor}"
            );
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 111);
    }

    /// The `/metrics` rendering is exact: every `le` rung counts exactly
    /// the observations `≤ le`, the `+Inf` rung equals `_count`, and the
    /// exposition validates.
    #[test]
    fn prometheus_ladder_counts_are_exact() {
        let mut rng = crate::rng::Rng::seed(17);
        let mut values: Vec<u64> = (0..5_000)
            .map(|_| {
                // Log-uniform over 1 µs .. 16 s, so every rung is crossed.
                let v = 2f64.powf(24.0 * rng.unit()) as u64;
                // A third land on a rung or one past it: the edge cases.
                match rng.below(6) {
                    0 => v.next_power_of_two(),
                    1 => v.next_power_of_two() - 1,
                    _ => v,
                }
            })
            .collect();
        values.push(0);
        values.push(u64::MAX / 2);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut w = crate::metrics::PromWriter::new();
        w.histogram("gef_demo_us", "Demo latency (µs).", &h);
        let exposition = crate::metrics::validate(&w.finish()).expect("ladder validates");
        let rungs = exposition.named("gef_demo_us_bucket");
        assert!(rungs.len() > 10);
        for rung in &rungs {
            let le = rung.label("le").expect("le label");
            let want = match le {
                "+Inf" => values.len(),
                le => {
                    let le: u64 = le.parse().expect("integer le");
                    values.iter().filter(|&&v| v <= le).count()
                }
            };
            assert_eq!(rung.value, want as f64, "le={le}");
        }
        assert_eq!(rungs.last().and_then(|r| r.label("le")), Some("+Inf"));
        assert_eq!(
            exposition.value("gef_demo_us_count"),
            Some(rungs.last().map_or(0.0, |r| r.value))
        );
    }
}
