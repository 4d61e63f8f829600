//! Survival-probability estimation, including the Rao-Blackwellised route.

use crate::ReliabilityModel;
use analytic::{thm62, thm63};
use memmodel::MemoryModel;
use montecarlo::{Runner, Seed, Welford};
use shiftproc::exchangeable;

/// A Rao-Blackwellised survival estimate (Theorem 6.1).
///
/// Direct simulation of the event `A` needs `≫ 1/Pr[A] = e^{+Θ(n²)}` trials;
/// instead we sample window vectors `Γ̄`, evaluate the *conditional*
/// disjointness term exactly, and average. The estimate is reported in
/// `log2` to survive the astronomically small probabilities at large `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbSurvival {
    /// `log2 Pr[A]`.
    pub log2_survival: f64,
    /// The sampled mean of the scaled per-vector factor.
    pub mean_factor: f64,
    /// Standard error of `mean_factor`.
    pub factor_sem: f64,
    /// Number of window vectors sampled.
    pub samples: u64,
}

impl RbSurvival {
    /// `Pr[A]` in linear space (0 when below `f64` range).
    #[must_use]
    pub fn survival(&self) -> f64 {
        2f64.powf(self.log2_survival)
    }

    /// The normalised exponent `−log2 Pr[A] / n²` of Theorem 6.3.
    #[must_use]
    pub fn normalized_exponent(&self, n: usize) -> f64 {
        -self.log2_survival / (n as f64 * n as f64)
    }
}

impl ReliabilityModel {
    /// Rao-Blackwellised estimate of `Pr[A]` from `trials` window vectors.
    ///
    /// # Panics
    ///
    /// Panics if every sampled factor is zero (cannot happen: factors are
    /// strictly positive).
    #[must_use]
    pub fn estimate_survival_rb(&self, trials: u64, seed: u64) -> RbSurvival {
        self.rb_runner(&Runner::new(Seed(seed)), trials)
    }

    /// [`estimate_survival_rb`](ReliabilityModel::estimate_survival_rb)
    /// with an explicit runner worker count. Speed only: the estimate is
    /// bit-for-bit identical for any `workers`.
    ///
    /// # Panics
    ///
    /// As [`estimate_survival_rb`](ReliabilityModel::estimate_survival_rb).
    #[must_use]
    pub fn estimate_survival_rb_with(&self, trials: u64, seed: u64, workers: usize) -> RbSurvival {
        self.rb_runner(&Runner::new(Seed(seed)).with_threads(workers), trials)
    }

    fn rb_runner(&self, runner: &Runner, trials: u64) -> RbSurvival {
        let stats: Welford = self
            .run_cached("rb", runner, trials, |m, scratch, rng| {
                m.rb_factor(scratch, rng)
            })
            .value;
        let mean = stats.mean();
        RbSurvival {
            log2_survival: exchangeable::log2_survival(
                u32::try_from(self.threads()).expect("thread count fits u32"),
                2,
                mean,
            ),
            mean_factor: mean,
            factor_sem: stats.sem(),
            samples: stats.count(),
        }
    }

    /// The paper's analytic bounds `(lo, hi)` on `Pr[A]`, where available:
    ///
    /// * `n = 2`, named models — the Theorem 6.2 constants (footnote-4 PSO
    ///   derived from the window series);
    /// * SC at any `n` — exact (Theorem 6.3's computation);
    /// * any other model at any `n` — the Claim B.2 sandwich
    ///   `[SC·2^-(n-1), SC]`.
    ///
    /// Returned in `log2`. `None` only for custom models at `n = 2` (no
    /// closed form).
    #[must_use]
    pub fn log2_survival_bounds(&self) -> Option<(f64, f64)> {
        let n = u32::try_from(self.threads()).expect("thread count fits u32");
        if n == 1 {
            return Some((0.0, 0.0));
        }
        if n == 2 {
            let (lo, hi) = thm62::survival_bounds(self.memory_model())?;
            return Some((lo.to_f64().log2(), hi.to_f64().log2()));
        }
        let sc = thm63::sc_log2_survival(n);
        match self.memory_model() {
            MemoryModel::Sc => Some((sc, sc)),
            _ => Some((thm63::universal_log2_survival_lower_bound(n), sc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };

    #[test]
    fn rb_matches_exact_for_sc() {
        // SC windows are deterministic, so the RB estimate is exact.
        for n in [2usize, 4, 8, 16] {
            let m = ReliabilityModel::new(MemoryModel::Sc, n);
            let est = m.estimate_survival_rb(100, 1);
            let exact = thm63::sc_log2_survival(n as u32);
            assert!(
                (est.log2_survival - exact).abs() < 1e-9,
                "n={n}: {} vs {exact}",
                est.log2_survival
            );
            assert_eq!(est.mean_factor, 1.0);
        }
    }

    #[test]
    fn rb_two_threads_reproduces_theorem_62() {
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 2);
            let est = m.estimate_survival_rb(TRIALS, 2);
            let (lo, hi) = m.log2_survival_bounds().unwrap();
            // Allow four standard errors of slack on the factor (the PSO
            // "bounds" are a point, so the whole tolerance is sampling noise).
            let slack = 4.0 * est.factor_sem / est.mean_factor / std::f64::consts::LN_2;
            assert!(
                est.log2_survival >= lo - slack - 1e-6 && est.log2_survival <= hi + slack + 1e-6,
                "{model}: log2 {} outside [{lo}, {hi}] ± {slack}",
                est.log2_survival
            );
        }
    }

    #[test]
    fn rb_agrees_with_direct_simulation_at_n2() {
        for model in [MemoryModel::Tso, MemoryModel::Wo] {
            let m = ReliabilityModel::new(model, 2);
            let rb = m.estimate_survival_rb(TRIALS, 3);
            let direct = m.simulate_survival(TRIALS, 4);
            let (lo, hi) = direct.wilson_ci(0.999);
            assert!(
                rb.survival() > lo - 0.005 && rb.survival() < hi + 0.005,
                "{model}: RB {} vs direct CI [{lo}, {hi}]",
                rb.survival()
            );
        }
    }

    #[test]
    fn bounds_sandwich_holds_at_larger_n() {
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 6);
            let est = m.estimate_survival_rb(TRIALS / 4, 5);
            let (lo, hi) = m.log2_survival_bounds().unwrap();
            assert!(
                est.log2_survival >= lo - 0.5 && est.log2_survival <= hi + 0.5,
                "{model}: {} outside sandwich [{lo}, {hi}]",
                est.log2_survival
            );
        }
    }

    #[test]
    fn normalized_exponent_is_order_three_halves() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 12);
        let est = m.estimate_survival_rb(100, 6);
        let e = est.normalized_exponent(12);
        assert!(e > 1.0 && e < 2.0, "exponent {e}");
    }

    #[test]
    fn single_thread_bounds_are_certainty() {
        let m = ReliabilityModel::new(MemoryModel::Wo, 1);
        assert_eq!(m.log2_survival_bounds(), Some((0.0, 0.0)));
    }

    #[test]
    fn custom_model_has_no_two_thread_closed_form() {
        let m = ReliabilityModel::new(MemoryModel::Custom(memmodel::ReorderMatrix::all()), 2);
        assert!(m.log2_survival_bounds().is_none());
        // But the sandwich applies at n >= 3.
        let m3 = ReliabilityModel::new(MemoryModel::Custom(memmodel::ReorderMatrix::all()), 3);
        assert!(m3.log2_survival_bounds().is_some());
    }
}
