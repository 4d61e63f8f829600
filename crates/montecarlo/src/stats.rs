//! Streaming statistics.

use analytic::special::normal_cdf;
use std::fmt;

/// A Bernoulli (success/failure) estimate with confidence intervals.
///
/// # Example
///
/// ```
/// use montecarlo::BernoulliEstimate;
///
/// let mut est = BernoulliEstimate::new();
/// for i in 0..1000 { est.record(i % 4 == 0); }
/// assert_eq!(est.point(), 0.25);
/// let (lo, hi) = est.wilson_ci(0.95);
/// assert!(lo < 0.25 && 0.25 < hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BernoulliEstimate {
    successes: u64,
    trials: u64,
}

impl BernoulliEstimate {
    /// An empty estimate.
    #[must_use]
    pub fn new() -> BernoulliEstimate {
        BernoulliEstimate::default()
    }

    /// Builds directly from counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    #[must_use]
    pub fn from_counts(successes: u64, trials: u64) -> BernoulliEstimate {
        assert!(successes <= trials, "successes exceed trials");
        BernoulliEstimate { successes, trials }
    }

    /// Records one trial.
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        self.successes += u64::from(success);
    }

    /// Merges another estimate (for parallel reduction).
    pub fn merge(&mut self, other: &BernoulliEstimate) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Number of successes.
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate `successes / trials` (`NaN` with no trials).
    #[must_use]
    pub fn point(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// The Wilson score interval at the given two-sided confidence level.
    ///
    /// Returns `(0, 1)` when no trials have been recorded.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    #[must_use]
    pub fn wilson_ci(&self, confidence: f64) -> (f64, f64) {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let z = normal_quantile(0.5 + confidence / 2.0);
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    /// Standard error of the point estimate, `sqrt(p(1-p)/n)`
    /// (`NaN` with no trials).
    #[must_use]
    pub fn sem(&self) -> f64 {
        let n = self.trials as f64;
        let p = self.point();
        (p * (1.0 - p) / n).sqrt()
    }

    /// Whether the Wilson interval at `confidence` covers `value`.
    #[must_use]
    pub fn covers(&self, value: f64, confidence: f64) -> bool {
        let (lo, hi) = self.wilson_ci(confidence);
        lo <= value && value <= hi
    }
}

impl fmt::Display for BernoulliEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = self.wilson_ci(0.95);
        write!(
            f,
            "{:.6} [{:.6}, {:.6}] ({}/{})",
            self.point(),
            lo,
            hi,
            self.successes,
            self.trials
        )
    }
}

/// Standard normal quantile via bisection on [`normal_cdf`].
///
/// Accurate to ~1e-12, ample for confidence intervals.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1)");
    let (mut lo, mut hi) = (-40.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if normal_cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Welford's streaming mean/variance accumulator.
///
/// # Example
///
/// ```
/// use montecarlo::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { w.record(x); }
/// assert_eq!(w.mean(), 2.5);
/// assert!((w.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator (Chan's parallel formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw `(count, mean, m2)` state, with the floats as IEEE-754 bit
    /// patterns. Together with [`Welford::from_raw_parts`] this round-trips
    /// the accumulator bit-exactly (serialization must not reformat the
    /// floats: Chan's merge is not associative, so a reconstructed state has
    /// to be the *same* state, not a numerically-close one).
    #[must_use]
    pub fn raw_parts(&self) -> (u64, u64, u64) {
        (self.count, self.mean.to_bits(), self.m2.to_bits())
    }

    /// Rebuilds an accumulator from [`Welford::raw_parts`] output.
    #[must_use]
    pub fn from_raw_parts(count: u64, mean_bits: u64, m2_bits: u64) -> Welford {
        Welford {
            count,
            mean: f64::from_bits(mean_bits),
            m2: f64::from_bits(m2_bits),
        }
    }

    /// The sample mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// The unbiased sample variance (`NaN` with fewer than two samples).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn sem(&self) -> f64 {
        (self.sample_variance() / self.count as f64).sqrt()
    }

    /// Normal-approximation CI for the mean at the given confidence.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    #[must_use]
    pub fn ci(&self, confidence: f64) -> (f64, f64) {
        let z = normal_quantile(0.5 + confidence / 2.0);
        let half = z * self.sem();
        (self.mean() - half, self.mean() + half)
    }
}

impl fmt::Display for Welford {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} (n={})",
            self.mean(),
            self.sem(),
            self.count
        )
    }
}

/// One trial's observations at every point of a grid, in a fixed array:
/// a trial that returns one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSample {
    len: usize,
    values: [f64; GridSample::CAPACITY],
}

impl GridSample {
    /// Most points one sample holds.
    pub const CAPACITY: usize = 16;

    /// The sample whose point `i` is `value(i)`, for `i < len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`GridSample::CAPACITY`].
    #[must_use]
    pub fn from_fn(len: usize, mut value: impl FnMut(usize) -> f64) -> GridSample {
        assert!(
            len <= GridSample::CAPACITY,
            "{len} grid points exceed the capacity of {}",
            GridSample::CAPACITY
        );
        let mut values = [0.0; GridSample::CAPACITY];
        for (i, v) in values[..len].iter_mut().enumerate() {
            *v = value(i);
        }
        GridSample { len, values }
    }

    /// The observations, one per grid point.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

/// One [`Welford`] per grid point: the accumulator of trials that observe
/// every point of a grid at once. Each point folds and merges exactly as a
/// lone `Welford` fed that point's observations would, bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WelfordGrid {
    points: Vec<Welford>,
}

impl WelfordGrid {
    /// A grid of the given per-point accumulators.
    #[must_use]
    pub fn from_points(points: Vec<Welford>) -> WelfordGrid {
        WelfordGrid { points }
    }

    /// The per-point accumulators (empty before the first record).
    #[must_use]
    pub fn points(&self) -> &[Welford] {
        &self.points
    }

    /// Folds one trial's observations in, one per point.
    ///
    /// # Panics
    ///
    /// Panics if the sample's length differs from earlier samples'.
    pub fn record(&mut self, sample: &GridSample) {
        let values = sample.values();
        if self.points.is_empty() {
            self.points.resize(values.len(), Welford::new());
        }
        assert_eq!(self.points.len(), values.len(), "grid length changed");
        for (w, &x) in self.points.iter_mut().zip(values) {
            w.record(x);
        }
    }

    /// Merges a later grid point by point ([`Welford::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if both grids are non-empty and of different lengths.
    pub fn merge(&mut self, later: &WelfordGrid) {
        if self.points.is_empty() {
            self.points.resize(later.points.len(), Welford::new());
        }
        if later.points.is_empty() {
            return;
        }
        assert_eq!(self.points.len(), later.points.len(), "grid length changed");
        for (w, l) in self.points.iter_mut().zip(&later.points) {
            w.merge(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bernoulli_point_and_counts() {
        let est = BernoulliEstimate::from_counts(30, 100);
        assert_eq!(est.point(), 0.3);
        assert_eq!(est.successes(), 30);
        assert_eq!(est.trials(), 100);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn bernoulli_rejects_inverted_counts() {
        let _ = BernoulliEstimate::from_counts(5, 3);
    }

    #[test]
    fn wilson_shrinks_with_samples() {
        let narrow = BernoulliEstimate::from_counts(5_000, 10_000);
        let wide = BernoulliEstimate::from_counts(50, 100);
        let w = |e: &BernoulliEstimate| {
            let (lo, hi) = e.wilson_ci(0.95);
            hi - lo
        };
        assert!(w(&narrow) < w(&wide));
    }

    #[test]
    fn wilson_stays_in_unit_interval() {
        for (s, t) in [(0u64, 10u64), (10, 10), (1, 3)] {
            let (lo, hi) = BernoulliEstimate::from_counts(s, t).wilson_ci(0.99);
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
            assert!(lo <= hi);
        }
    }

    #[test]
    fn wilson_empty_is_vacuous() {
        assert_eq!(BernoulliEstimate::new().wilson_ci(0.95), (0.0, 1.0));
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-9);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.841_344_746_068_543) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn welford_small_sample() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.mean(), 5.0);
        assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert!(w.mean().is_nan());
        w.record(3.0);
        assert_eq!(w.mean(), 3.0);
        assert!(w.sample_variance().is_nan());
    }

    #[test]
    fn welford_grid_points_are_lone_welfords_bit_for_bit() {
        // Two "chunks" of three-point samples, merged into an empty run
        // value as the runner does, against one lone Welford per point.
        let chunks: [&[[f64; 3]]; 2] = [
            &[[0.5, 0.25, 1.0], [0.125, 0.75, 1.0]],
            &[[1.0, 1e-9, 1.0], [0.3, 0.1, 1.0], [0.7, 0.6, 1.0]],
        ];
        let mut run = WelfordGrid::default();
        let mut lone = [Welford::new(); 3];
        for chunk in chunks {
            let mut acc = WelfordGrid::default();
            let mut lone_chunk = [Welford::new(); 3];
            for row in chunk {
                acc.record(&GridSample::from_fn(3, |i| row[i]));
                for (w, &x) in lone_chunk.iter_mut().zip(row) {
                    w.record(x);
                }
            }
            run.merge(&acc);
            for (w, l) in lone.iter_mut().zip(&lone_chunk) {
                w.merge(l);
            }
        }
        let raw = |ws: &[Welford]| ws.iter().map(Welford::raw_parts).collect::<Vec<_>>();
        assert_eq!(raw(run.points()), raw(&lone));
        assert_eq!(run.points()[2].mean(), 1.0);
        run.merge(&WelfordGrid::default());
        assert_eq!(raw(run.points()), raw(&lone));
    }

    #[test]
    #[should_panic(expected = "exceed the capacity")]
    fn grid_sample_rejects_more_points_than_it_holds() {
        let _ = GridSample::from_fn(GridSample::CAPACITY + 1, |_| 1.0);
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
            split in 0usize..50,
        ) {
            let split = split.min(xs.len());
            let mut whole = Welford::new();
            for &x in &xs { whole.record(x); }
            let (mut a, mut b) = (Welford::new(), Welford::new());
            for &x in &xs[..split] { a.record(x); }
            for &x in &xs[split..] { b.record(x); }
            a.merge(&b);
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
            prop_assert_eq!(a.count(), whole.count());
            if xs.len() >= 2 {
                prop_assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-7);
            }
        }

        #[test]
        fn bernoulli_merge_adds_counts(s1 in 0u64..100, t1e in 0u64..100, s2 in 0u64..100, t2e in 0u64..100) {
            let (t1, t2) = (s1 + t1e, s2 + t2e);
            let mut a = BernoulliEstimate::from_counts(s1, t1);
            a.merge(&BernoulliEstimate::from_counts(s2, t2));
            prop_assert_eq!(a.successes(), s1 + s2);
            prop_assert_eq!(a.trials(), t1 + t2);
        }

        #[test]
        fn wilson_covers_truth_for_exact_p(t in 10u64..5000) {
            // The interval at 99.9% around s = t/2 must cover 1/2.
            let est = BernoulliEstimate::from_counts(t / 2, t);
            prop_assert!(est.covers(0.5, 0.999));
        }
    }
}
