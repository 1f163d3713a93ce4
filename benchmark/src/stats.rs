//! Order statistics for timing samples.

use std::time::{Duration, Instant};

/// Sample count, minimum, low decile and quartiles of one timing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    /// The tenth percentile.  On a shared host other tenants only ever add
    /// time to a computation, in bursts that last from milliseconds to a
    /// whole run, so the samples are the program's own time plus a noise
    /// that is never negative: the median moves with the share of the run
    /// the neighbours were busy, the low end of the samples much less.  The
    /// decile is taken and not the minimum, which one lucky sample sets.
    pub low: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            low: quantile(&s, 0.1),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// Quantile `q` of sorted samples, interpolating between neighbours.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Nearest-rank percentile `p` (0..100) of sorted samples: the smallest
/// sample with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 that still has at least ten of `n`
/// samples beyond it; `None` when even the median does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // Each percentile with the samples per thousand that lie beyond it.
    [(99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|(_, beyond)| n * beyond / 1000 >= 10)
        .map(|(p, _)| p)
}

/// Calls each of `variants` in turn, timing every call, until `budget` has
/// passed and each has `min` samples.  Interleaving spreads a slow stretch
/// of the host over all variants instead of charging it to one.
pub fn sample_interleaved(
    budget: Duration,
    min: usize,
    variants: &mut [&mut dyn FnMut()],
) -> Vec<Vec<f64>> {
    let deadline = Instant::now() + budget;
    let mut samples = vec![Vec::new(); variants.len()];
    while samples[0].len() < min || Instant::now() < deadline {
        for (v, out) in variants.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            v();
            out.push(t.elapsed().as_secs_f64());
        }
    }
    samples
}

/// [`sample_interleaved`] for a single operation.
pub fn sample(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    sample_interleaved(budget, min, &mut [&mut f]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_of_odd_and_even_counts() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.low, s.q1, s.median, s.q3), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn low_decile_ignores_a_slow_majority_and_a_lucky_sample() {
        // Three quiet samples among eight disturbed ones: the median is a
        // disturbed time, the decile a quiet one.
        let s = Summary::of(&[
            13.0, 10.0, 14.0, 15.0, 10.0, 13.5, 14.5, 10.0, 13.0, 16.0, 15.5,
        ]);
        assert_eq!((s.low, s.median), (10.0, 13.5));
        // One sample far below the rest of twenty-one does not set it.
        let mut v = vec![10.0; 20];
        v.push(1.0);
        assert_eq!(Summary::of(&v).low, 10.0);
        assert_eq!(Summary::of(&v).min, 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 99.9), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn sampling_honours_the_floor_and_interleaves() {
        let order = std::cell::RefCell::new(Vec::new());
        let samples = sample_interleaved(
            Duration::ZERO,
            3,
            &mut [&mut || order.borrow_mut().push('a'), &mut || {
                order.borrow_mut().push('b')
            }],
        );
        assert_eq!(samples[0].len(), 3);
        assert_eq!(samples[1].len(), 3);
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
    }
}
