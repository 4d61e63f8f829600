//! Convergence diagnostics for run results.
//!
//! A [`RunReport`] tells the caller *how many* trials ran; this module
//! answers *whether that was enough*. [`EstimatorStats`] abstracts the two
//! streaming estimators ([`BernoulliEstimate`], [`Welford`]) behind a
//! mean / standard-error / count view so that report-level diagnostics —
//! confidence half-widths, relative standard error — and the sequential
//! stop statistic ([`Accumulator::stop_rse`](crate::Accumulator::stop_rse))
//! are written once.
//!
//! # Relative standard error
//!
//! The RSE is `sem / |mean|`: the standard error of the estimator
//! expressed as a fraction of the quantity being estimated. It is the
//! natural scale-free stopping criterion for Monte-Carlo estimation — an
//! RSE of 0.01 means the one-sigma uncertainty is 1 % of the estimate,
//! regardless of whether the estimate is a probability near 1e-3 or a mean
//! settling time near 40. For a Bernoulli estimator the standard error is
//! `sqrt(p(1-p)/n)`, so the trials needed to reach a target RSE scale like
//! `(1-p)/(p · rse²)` — rare events need proportionally more trials, which
//! is exactly what a fixed trial budget gets wrong in both directions.
//!
//! An RSE is `NaN` when the mean is zero or no trials have run; `NaN`
//! compares false against any threshold, so sequential stopping treats
//! "degenerate so far" as "not converged" automatically.

use crate::stats::normal_quantile;
use crate::{BernoulliEstimate, RunReport, Welford};

/// Mean / standard-error / count view over a streaming estimator.
///
/// Implemented by the runner's scalar estimators, so [`RunReport`]
/// diagnostics and sequential stopping work uniformly over probabilities
/// and means.
pub trait EstimatorStats {
    /// The point estimate (`NaN` when empty).
    fn mean(&self) -> f64;
    /// The standard error of the point estimate (`NaN` when undefined).
    fn sem(&self) -> f64;
    /// Observations recorded so far.
    fn count(&self) -> u64;
    /// Relative standard error `sem / |mean|` (`NaN` when the mean is
    /// zero or no trials have run).
    fn rse(&self) -> f64 {
        self.sem() / self.mean().abs()
    }
}

impl EstimatorStats for BernoulliEstimate {
    fn mean(&self) -> f64 {
        self.point()
    }

    fn sem(&self) -> f64 {
        BernoulliEstimate::sem(self)
    }

    fn count(&self) -> u64 {
        self.trials()
    }
}

impl EstimatorStats for Welford {
    fn mean(&self) -> f64 {
        Welford::mean(self)
    }

    fn sem(&self) -> f64 {
        Welford::sem(self)
    }

    fn count(&self) -> u64 {
        self.count()
    }
}

impl<A: EstimatorStats> RunReport<A> {
    /// The point estimate of the merged accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.value.mean()
    }

    /// Half-width of the normal-approximation confidence interval at the
    /// given two-sided confidence level, so the result reads
    /// `mean ± ci_half_width(0.95)`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    #[must_use]
    pub fn ci_half_width(&self, confidence: f64) -> f64 {
        normal_quantile(0.5 + confidence / 2.0) * self.value.sem()
    }

    /// Relative standard error of the merged estimate.
    #[must_use]
    pub fn rse(&self) -> f64 {
        self.value.rse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Runner, Seed, CHUNK_WIDTH};
    use rand::Rng;

    #[test]
    fn bernoulli_estimator_stats_match_hand_formulas() {
        let est = BernoulliEstimate::from_counts(25, 100);
        assert_eq!(EstimatorStats::mean(&est), 0.25);
        let sem = (0.25f64 * 0.75 / 100.0).sqrt();
        assert!((EstimatorStats::sem(&est) - sem).abs() < 1e-15);
        assert!((est.rse() - sem / 0.25).abs() < 1e-15);
        assert_eq!(EstimatorStats::count(&est), 100);
    }

    #[test]
    fn welford_estimator_stats_delegate() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.record(x);
        }
        assert_eq!(EstimatorStats::mean(&w), 2.5);
        assert!((EstimatorStats::sem(&w) - w.sem()).abs() < 1e-15);
        assert_eq!(EstimatorStats::count(&w), 4);
    }

    #[test]
    fn degenerate_estimates_have_nan_rse() {
        // Empty, and all-failures (mean 0): both must read "not converged".
        assert!(BernoulliEstimate::new().rse().is_nan());
        assert!(BernoulliEstimate::from_counts(0, 500).rse().is_nan());
        assert!(Welford::new().rse().is_nan());
    }

    #[test]
    fn report_half_width_brackets_the_truth() {
        let report = Runner::new(Seed(41))
            .with_threads(2)
            .run::<BernoulliEstimate, _>(50_000, || (), |_, rng| rng.gen_bool(0.3), None)
            .unwrap()
            .0;
        let hw = report.ci_half_width(0.999);
        assert!(hw > 0.0 && hw < 0.05, "{hw}");
        assert!((report.mean() - 0.3).abs() < hw, "{} ± {hw}", report.mean());
        assert!(report.rse() > 0.0 && report.rse() < 0.05);
    }

    #[test]
    fn target_rse_stops_early_on_whole_chunks() {
        // A well-behaved p=0.5 estimate reaches 5% RSE within the first
        // checkpoint (4 chunks), far short of the 64 requested.
        let report = Runner::new(Seed(42))
            .with_threads(2)
            .with_target_rse(0.05)
            .run::<BernoulliEstimate, _>(64 * CHUNK_WIDTH, || (), |_, rng| rng.gen_bool(0.5), None)
            .unwrap()
            .0;
        assert!(report.converged_early);
        assert!(report.trials_completed < 64 * CHUNK_WIDTH);
        // Stopping rounds to whole chunks.
        assert_eq!(report.trials_completed % CHUNK_WIDTH, 0);
        assert!(report.rse() <= 0.05, "{}", report.rse());
        assert_eq!(report.value.trials(), report.trials_completed);
    }

    #[test]
    fn unreachable_target_runs_everything() {
        let trials = 6 * CHUNK_WIDTH;
        let report = Runner::new(Seed(43))
            .with_threads(3)
            .with_target_rse(1e-9)
            .run::<BernoulliEstimate, _>(trials, || (), |_, rng| rng.gen_bool(0.5), None)
            .unwrap()
            .0;
        assert!(!report.converged_early);
        assert_eq!(report.trials_completed, trials);
    }

    #[test]
    fn target_rse_leaves_results_identical_when_not_stopping() {
        // With a target too strict to ever fire, the chunked round loop
        // must produce bit-for-bit the plain runner's estimate.
        let trials = 5 * CHUNK_WIDTH + 321;
        let plain = Runner::new(Seed(44))
            .with_threads(2)
            .run::<BernoulliEstimate, _>(trials, || (), |_, rng| rng.gen_bool(0.25), None)
            .unwrap()
            .0;
        let gated = Runner::new(Seed(44))
            .with_threads(2)
            .with_target_rse(1e-12)
            .run::<BernoulliEstimate, _>(trials, || (), |_, rng| rng.gen_bool(0.25), None)
            .unwrap()
            .0;
        assert_eq!(plain.value, gated.value);
        assert_eq!(plain.trials_completed, gated.trials_completed);
    }

    #[test]
    fn stopping_point_is_thread_invariant() {
        let run = |threads| {
            Runner::new(Seed(45))
                .with_threads(threads)
                .with_target_rse(0.02)
                .run::<Welford, _>(
                    40 * CHUNK_WIDTH,
                    || (),
                    |_, rng| rng.gen_range(0.0..10.0),
                    None,
                )
                .unwrap()
                .0
        };
        let base = run(1);
        assert!(base.converged_early);
        for threads in [2, 3, 8] {
            let other = run(threads);
            assert_eq!(other, base, "threads={threads}");
        }
    }

    #[test]
    fn mean_entry_point_honours_target() {
        let report = Runner::new(Seed(46))
            .with_threads(2)
            .with_target_rse(0.05)
            .run::<Welford, _>(
                64 * CHUNK_WIDTH,
                || (),
                |_, rng| 5.0 + rng.gen_range(-1.0..1.0),
                None,
            )
            .unwrap()
            .0;
        assert!(report.converged_early);
        assert!(report.rse() <= 0.05);
        assert_eq!(report.value.count(), report.trials_completed);
    }

    #[test]
    fn trials_per_sec_is_positive_for_real_runs() {
        let report = Runner::new(Seed(47))
            .with_threads(1)
            .run::<BernoulliEstimate, _>(10_000, || (), |_, rng| rng.gen_bool(0.5), None)
            .unwrap()
            .0;
        assert!(report.trials_per_sec() > 0.0);
        let (zero, _) = Runner::new(Seed(48))
            .run::<BernoulliEstimate, _>(0, || (), |_, _| true, None)
            .unwrap();
        assert_eq!(zero.trials_per_sec(), 0.0);
    }
}
