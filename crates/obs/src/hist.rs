//! Fixed-bucket log₂ HDR-style latency histogram.
//!
//! Values are converted to integer *ticks* (1/1024 of a unit, so
//! millisecond series resolve below a microsecond) and bucketed on a
//! hybrid linear/logarithmic grid: each power of two is split into
//! [`SUB_BUCKETS`] equal sub-buckets, giving a constant relative error
//! bound of `1 / SUB_BUCKETS` across the full `u64` tick range — the
//! HdrHistogram layout, sized down to a fixed 976-slot table so shards
//! can merge bucket-by-bucket with no reallocation and no precision
//! loss.
//!
//! Bucketing is fully deterministic: merging N shard histograms and then
//! asking for a percentile returns *exactly* the same value as recording
//! the pooled samples into one histogram, which is what the shard-merge
//! proptest in `tests/obs.rs` pins.

use crate::json::Json;

/// log₂ of the sub-bucket count per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two (relative error ≤ 1/16).
pub(crate) const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count covering every `u64` tick value.
const NBUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;
/// Ticks per recorded unit: 1/1024ths, so `record(0.5)` lands in a
/// distinct bucket from `record(0.51)` at millisecond scales.
const TICKS_PER_UNIT: f64 = 1024.0;

/// Maps a tick count to its bucket index (0-based, dense, monotone).
fn bucket_index(ticks: u64) -> usize {
    if ticks < SUB_BUCKETS as u64 {
        return ticks as usize;
    }
    let h = 63 - ticks.leading_zeros();
    let major = (h - SUB_BITS + 1) as usize;
    let sub = ((ticks >> (h - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    major * SUB_BUCKETS + sub
}

/// Lower tick bound of bucket `idx` (inverse of [`bucket_index`]).
fn bucket_low(idx: usize) -> u64 {
    let major = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u64;
    if major == 0 {
        sub
    } else {
        (SUB_BUCKETS as u64 + sub) << (major - 1)
    }
}

/// Tick width of bucket `idx`.
fn bucket_width(idx: usize) -> u64 {
    let major = idx / SUB_BUCKETS;
    if major == 0 {
        1
    } else {
        1 << (major - 1)
    }
}

/// Representative value (unit scale) reported for bucket `idx`: the
/// bucket midpoint, which bounds percentile error by half a bucket.
fn bucket_mid(idx: usize) -> f64 {
    (bucket_low(idx) as f64 + (bucket_width(idx) as f64 - 1.0) / 2.0) / TICKS_PER_UNIT
}

/// A recording histogram: one per `(shard, name)`, merged at report time.
#[derive(Clone)]
pub(crate) struct Hist {
    buckets: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            buckets: Box::new([0u64; NBUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.  Histograms measure durations and sizes, so
    /// negative and −Inf samples clamp to the **zero** bucket, while NaN
    /// and +Inf — a lost or overflowed measurement — clamp to the **top**
    /// bucket: over-reporting a tail percentile is recoverable,
    /// silently dragging it toward zero is how a stuck probe hides.
    /// Moments (`sum`/`min`/`max`) use the same clamped finite value, so
    /// snapshots never carry non-finite JSON.
    pub(crate) fn record(&mut self, value: f64) {
        /// Largest representable sample: the top tick, in unit scale.
        const TOP: f64 = u64::MAX as f64 / TICKS_PER_UNIT;
        let v = if value.is_nan() || value == f64::INFINITY {
            TOP
        } else {
            value.clamp(0.0, TOP)
        };
        // `as` saturates, so absurdly large samples land in the top bucket.
        let ticks = (v * TICKS_PER_UNIT) as u64;
        self.buckets[bucket_index(ticks)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds `other`'s buckets into `self` (exact: bucket-wise addition).
    pub(crate) fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Freezes into the sparse snapshot form reports carry.
    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count > 0 { self.min } else { 0.0 },
            max: if self.count > 0 { self.max } else { 0.0 },
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

/// An immutable histogram snapshot: sparse nonzero buckets plus moments,
/// as carried by [`Report`](crate::Report) and the v2 JSON schema.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (so `sum / count` is the exact mean).
    pub sum: f64,
    /// Smallest sample (exact, not bucketed); 0 when empty.
    pub min: f64,
    /// Largest sample (exact, not bucketed); 0 when empty.
    pub max: f64,
    /// `(bucket index, count)` for every nonzero bucket, ascending.
    buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`): the midpoint of the bucket
    /// holding the `ceil(q·count)`-th smallest sample.  Relative error is
    /// bounded by half a sub-bucket (≤ 1/32).  Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_mid(idx as usize);
            }
        }
        // Unreachable when the snapshot is consistent (bucket counts sum
        // to `count`, so the cumulative scan always reaches `rank`).  A
        // snapshot that gets here was corrupted in merge or
        // deserialization — fail loudly under test, fall back to the
        // exact max in release rather than poison a report.
        debug_assert!(
            false,
            "histogram inconsistent: bucket counts sum to {cum}, count is {}",
            self.count
        );
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// The sparse `(bucket index, count)` pairs, ascending by index.
    pub fn buckets(&self) -> &[(u32, u64)] {
        &self.buckets
    }

    /// Serializes to the v2 report-JSON member shape.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.percentile(0.50))),
            ("p90", Json::from(self.percentile(0.90))),
            ("p99", Json::from(self.percentile(0.99))),
            ("p999", Json::from(self.percentile(0.999))),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::from(u64::from(i)), Json::from(n)]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_grid_is_dense_and_monotone() {
        // Every bucket boundary maps to itself and the grid has no holes.
        let mut prev = 0usize;
        for ticks in 0u64..4096 {
            let idx = bucket_index(ticks);
            assert!(idx == prev || idx == prev + 1, "dense at {ticks}");
            assert!(bucket_low(idx) <= ticks);
            assert!(ticks < bucket_low(idx) + bucket_width(idx));
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < NBUCKETS);
    }

    #[test]
    fn percentiles_track_samples_within_bucket_error() {
        let mut h = Hist::new();
        for i in 1..=1000 {
            h.record(i as f64 * 0.1); // 0.1 .. 100.0
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.mean() - 50.05).abs() < 1e-9, "mean is exact");
        for (q, exact) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let got = s.percentile(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / 16.0,
                "p{q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 211) as f64 * 0.25).collect();
        let mut pooled = Hist::new();
        for &v in &samples {
            pooled.record(v);
        }
        let mut merged = Hist::new();
        for chunk in samples.chunks(7) {
            let mut shard = Hist::new();
            for &v in chunk {
                shard.record(v);
            }
            merged.merge(&shard);
        }
        let (a, b) = (pooled.snapshot(), merged.snapshot());
        assert_eq!(a, b, "bucket-exact merge");
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.percentile(q), b.percentile(q));
        }
    }

    #[test]
    fn hostile_inputs_clamp_to_histogram_range() {
        let mut h = Hist::new();
        h.record(-5.0); // negative → zero bucket
        h.record(f64::NEG_INFINITY); // −Inf → zero bucket
        h.record(f64::NAN); // lost measurement → top bucket
        h.record(f64::INFINITY); // overflowed measurement → top bucket
        h.record(1e300); // saturates to the top bucket, no panic
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        // The two negative samples sit in the zero bucket...
        assert_eq!(s.percentile(0.2), 0.0);
        assert_eq!(s.percentile(0.4), 0.0);
        // ...and the three hostile-large ones in the TOP bucket, so tail
        // percentiles over-report instead of collapsing to zero.
        let top = s.percentile(1.0);
        assert!(top > 1e15, "top-bucket midpoint, got {top}");
        // Moments stay finite for JSON.
        assert!(s.sum.is_finite() && s.min.is_finite() && s.max.is_finite());
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn percentile_on_corrupt_snapshot_falls_back_to_max() {
        // A snapshot whose bucket counts undershoot `count` (as a corrupt
        // merge or a hand-edited report could produce) must fail loudly
        // under debug assertions and fall back to `max` in release.
        let mut h = Hist::new();
        h.record(1.0);
        let mut s = h.snapshot();
        s.count = 10; // counts now inconsistent with the single bucket
        let check = std::panic::catch_unwind(move || s.percentile(0.99));
        if cfg!(debug_assertions) {
            assert!(check.is_err(), "debug build must assert");
        } else {
            assert_eq!(check.unwrap(), 1.0, "release build falls back to max");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Hist::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!((s.min, s.max), (0.0, 0.0));
    }
}
