//! Streaming statistics for Monte-Carlo estimates.
//!
//! Every Monte-Carlo loop in the workspace (device-level traversals,
//! circuit-level variation sampling, array-level strike simulation)
//! accumulates its observables through [`RunningStats`], which implements
//! Welford's numerically stable single-pass mean/variance update and
//! supports merging partial accumulators from worker threads.

/// Single-pass mean/variance accumulator (Welford), mergeable across threads.
///
/// # Examples
///
/// ```
/// use finrad_numerics::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds one observation only if it is finite, returning whether it was
    /// accepted. This is the NaN/Inf quarantine boundary for Monte-Carlo
    /// accumulators: a single poisoned sample pushed through [`push`]
    /// would corrupt the mean and variance irreversibly, so callers that
    /// cannot rule out poisoned inputs must use this and count rejections.
    ///
    /// [`push`]: RunningStats::push
    ///
    /// # Examples
    ///
    /// ```
    /// use finrad_numerics::stats::RunningStats;
    ///
    /// let mut s = RunningStats::new();
    /// assert!(s.push_finite(1.0));
    /// assert!(!s.push_finite(f64::NAN));
    /// assert!(!s.push_finite(f64::INFINITY));
    /// assert_eq!(s.count(), 1);
    /// assert_eq!(s.mean(), 1.0);
    /// ```
    pub fn push_finite(&mut self, x: f64) -> bool {
        if x.is_finite() {
            self.push(x);
            true
        } else {
            false
        }
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Normal-theory 95 % confidence half-width of the mean.
    pub fn ci95_half_width(&self) -> f64 {
        1.959_963_985 * self.standard_error()
    }

    /// Smallest observation, `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Counter for Bernoulli-style Monte-Carlo outcomes (hit / no-hit), with a
/// Wilson score interval for the estimated proportion.
///
/// # Examples
///
/// ```
/// use finrad_numerics::stats::BernoulliCounter;
///
/// let mut c = BernoulliCounter::new();
/// for i in 0..100 {
///     c.record(i % 4 == 0);
/// }
/// assert_eq!(c.trials(), 100);
/// assert!((c.proportion() - 0.25).abs() < 1e-12);
/// let (lo, hi) = c.wilson_ci95();
/// assert!(lo < 0.25 && 0.25 < hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BernoulliCounter {
    successes: u64,
    trials: u64,
}

impl BernoulliCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial.
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &BernoulliCounter) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Estimated success proportion; 0 when no trials were recorded.
    pub fn proportion(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson 95 % score interval for the proportion.
    pub fn wilson_ci95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let z = 1.959_963_985f64;
        let n = self.trials as f64;
        let p = self.proportion();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
        ((center - half).max(0.0), (center + half).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 * 0.11).collect();
        let s: RunningStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-8);
        assert_eq!(s.count(), 500);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64 * 0.7).sin()).collect();
        let all: RunningStats = data.iter().copied().collect();
        let a: RunningStats = data[..77].iter().copied().collect();
        let mut b: RunningStats = data[77..].iter().copied().collect();
        b.merge(&a);
        assert_eq!(b.count(), all.count());
        assert!((b.mean() - all.mean()).abs() < 1e-12);
        assert!((b.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(b.min(), all.min());
        assert_eq!(b.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_noop() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: RunningStats = (0..10).map(|i| (i % 3) as f64).collect();
        let large: RunningStats = (0..10000).map(|i| (i % 3) as f64).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn bernoulli_basics() {
        let mut c = BernoulliCounter::new();
        assert_eq!(c.wilson_ci95(), (0.0, 1.0));
        for _ in 0..30 {
            c.record(true);
        }
        for _ in 0..70 {
            c.record(false);
        }
        assert!((c.proportion() - 0.3).abs() < 1e-12);
        let (lo, hi) = c.wilson_ci95();
        assert!(lo > 0.2 && hi < 0.42);
        assert!(lo < 0.3 && hi > 0.3);
    }

    #[test]
    fn bernoulli_merge() {
        let mut a = BernoulliCounter::new();
        let mut b = BernoulliCounter::new();
        a.record(true);
        b.record(false);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.trials(), 3);
        assert_eq!(a.successes(), 2);
    }

    #[test]
    fn wilson_stays_in_unit_interval_at_extremes() {
        let mut all = BernoulliCounter::new();
        for _ in 0..50 {
            all.record(true);
        }
        let (lo, hi) = all.wilson_ci95();
        assert!(lo >= 0.0 && hi <= 1.0 && lo < hi);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    #[test]
    fn merge_is_order_independent() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x57A7);
        for _ in 0..200 {
            let n = 1 + (rng.next_u64() % 99) as usize;
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
            let split = (rng.next_u64() as usize % 100).min(xs.len());

            let mut ab: RunningStats = xs[..split].iter().copied().collect();
            let b: RunningStats = xs[split..].iter().copied().collect();
            ab.merge(&b);

            let mut ba = b;
            let a: RunningStats = xs[..split].iter().copied().collect();
            ba.merge(&a);

            assert_eq!(ab.count(), ba.count());
            assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            assert!((ab.sample_variance() - ba.sample_variance()).abs() < 1e-6);
        }
    }

    #[test]
    fn variance_nonnegative() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x7A2);
        for _ in 0..200 {
            let n = (rng.next_u64() % 200) as usize;
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0e6..1.0e6)).collect();
            let s: RunningStats = xs.iter().copied().collect();
            assert!(s.sample_variance() >= 0.0);
        }
    }

    #[test]
    fn proportion_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xBE2);
        for _ in 0..200 {
            let hits = rng.next_u64() % 200;
            let misses = rng.next_u64() % 200;
            let mut c = BernoulliCounter::new();
            for _ in 0..hits {
                c.record(true);
            }
            for _ in 0..misses {
                c.record(false);
            }
            let p = c.proportion();
            assert!((0.0..=1.0).contains(&p));
            let (lo, hi) = c.wilson_ci95();
            assert!(lo <= hi);
            assert!(lo >= 0.0 && hi <= 1.0);
        }
    }
}
