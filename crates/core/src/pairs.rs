//! Pairwise-overlap statistics — the heuristic behind `e^{-n²}`.
//!
//! Theorem 6.3's shape has a one-line intuition: there are `C(n,2)` thread
//! pairs, each overlapping with constant probability, so survival should
//! fall like `exp(−C(n,2)·Pr[pair overlaps]) = e^{-Θ(n²)}`. This module
//! makes the intuition quantitative:
//!
//! * [`expected_overlapping_pairs`] — the exact mean number of overlapping
//!   pairs, `C(n,2)·(1 − Pr[A₂])` (linearity of expectation; pairwise
//!   survival is the Theorem 6.2 quantity);
//! * [`ReliabilityModel::overlap_count_histogram`] — the simulated full
//!   distribution of the overlap count;
//! * two classical approximations and their gaps: the Poisson heuristic
//!   `e^{-λ}` *overestimates* survival badly (pair overlaps are not rare —
//!   `1 − Pr[A₂] ≈ 0.83` — so `e^{-p} ≫ 1 − p` per pair), while the
//!   independent-pairs product `(Pr[A₂])^{C(n,2)}` is close at small `n`
//!   but still misses the true exponent (SC: `−1.29 n²` vs the exact
//!   `−1.5 n²` bits) — pair overlaps are dependent through shared shifts.

use crate::ReliabilityModel;
use analytic::thm62;
use memmodel::MemoryModel;
use montecarlo::{Histogram, Runner, Seed};
use shiftproc::{Segment, ShiftProcess};

/// The exact expected number of overlapping window pairs among `n` threads:
/// `C(n,2) · (1 − Pr[A₂])`, with the pairwise survival from the Theorem 6.2
/// machinery (series route; `None` for custom models).
#[must_use]
pub fn expected_overlapping_pairs(model: MemoryModel, n: usize) -> Option<f64> {
    let pair_survival = thm62::survival_from_window_series(model)?;
    let pairs = (n * n.saturating_sub(1) / 2) as f64;
    Some(pairs * (1.0 - pair_survival))
}

/// `log2` of the Poisson-heuristic survival `e^{-λ}` with
/// `λ = C(n,2)(1 − Pr[A₂])`.
#[must_use]
pub fn log2_poisson_heuristic(model: MemoryModel, n: usize) -> Option<f64> {
    Some(-expected_overlapping_pairs(model, n)? / std::f64::consts::LN_2)
}

/// `log2` of the independent-pairs product approximation
/// `(Pr[A₂])^{C(n,2)}`.
#[must_use]
pub fn log2_independent_pairs(model: MemoryModel, n: usize) -> Option<f64> {
    let pair_survival = thm62::survival_from_window_series(model)?;
    let pairs = (n * n.saturating_sub(1) / 2) as f64;
    Some(pairs * pair_survival.log2())
}

impl ReliabilityModel {
    /// Simulates the number of overlapping window pairs per run.
    #[must_use]
    pub fn overlap_count_histogram(&self, trials: u64, seed: u64) -> Histogram {
        let this = *self;
        Runner::new(Seed(seed)).histogram_scratch(
            trials,
            move || (this.scratch(), Vec::<Segment>::new()),
            move |state, rng| {
                let (scratch, segments) = state;
                let windows = this.sample_windows_scratch(scratch, rng);
                let proc = ShiftProcess::canonical();
                segments.clear();
                segments.extend(
                    windows
                        .iter()
                        .map(|&w| Segment::new(proc.sample_shift(rng), w)),
                );
                let mut overlaps = 0u64;
                for (i, a) in segments.iter().enumerate() {
                    for b in &segments[i + 1..] {
                        overlaps += u64::from(a.overlaps(b));
                    }
                }
                overlaps
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: u64 = if cfg!(debug_assertions) {
        30_000
    } else {
        150_000
    };

    #[test]
    fn expected_pairs_matches_simulation() {
        for model in MemoryModel::NAMED {
            for n in [2usize, 3, 5] {
                let expect = expected_overlapping_pairs(model, n).unwrap();
                let rm = ReliabilityModel::new(model, n);
                let h = rm.overlap_count_histogram(TRIALS, 21);
                let mean = h.mean();
                assert!(
                    (mean - expect).abs() < 0.05 * expect.max(0.2),
                    "{model} n={n}: simulated mean {mean} vs exact {expect}"
                );
            }
        }
    }

    #[test]
    fn zero_overlaps_iff_survival() {
        // Pr[#overlaps = 0] is exactly Pr[A]: cross-check the histogram's
        // zero bin against the direct estimator.
        let rm = ReliabilityModel::new(MemoryModel::Tso, 2);
        let h = rm.overlap_count_histogram(TRIALS, 22);
        let direct = rm.simulate_survival(TRIALS, 23);
        assert!(
            (h.pmf(0) - direct.point()).abs() < 0.01,
            "zero-overlap mass {} vs survival {}",
            h.pmf(0),
            direct.point()
        );
    }

    #[test]
    fn lambda_grows_quadratically() {
        let at = |n| expected_overlapping_pairs(MemoryModel::Sc, n).unwrap();
        // λ(2n) / λ(n) → 4.
        let ratio = at(32) / at(16);
        assert!((ratio - 4.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn poisson_heuristic_overestimates_but_product_is_close() {
        // Pair overlaps are NOT rare events (probability ~0.83 each), so the
        // Poisson form e^{-λ} grossly overestimates survival. The
        // independent-pairs product lands within a small factor at small n —
        // above actual for SC (shared shifts), below it for WO (a lucky
        // short window survives against *all* peers at once).
        let ns: &[usize] = if cfg!(debug_assertions) {
            &[3]
        } else {
            &[3, 4]
        };
        for model in [MemoryModel::Sc, MemoryModel::Wo] {
            for &n in ns {
                let poisson = 2f64.powf(log2_poisson_heuristic(model, n).unwrap());
                let product = 2f64.powf(log2_independent_pairs(model, n).unwrap());
                let rm = ReliabilityModel::new(model, n);
                let actual = rm.simulate_survival(TRIALS * 4, 24).point();
                assert!(
                    poisson > 3.0 * actual,
                    "{model} n={n}: Poisson {poisson} not ≫ actual {actual}"
                );
                assert!(
                    actual > product / 6.0 && actual < product * 6.0,
                    "{model} n={n}: product {product} far from actual {actual}"
                );
            }
        }
    }

    #[test]
    fn product_approximation_misses_the_exact_sc_exponent() {
        // (1/6)^C(n,2) decays like 2^{-1.29 n²}; the exact SC law decays
        // like 2^{-1.5 n²}: dependence between pairs costs a constant in the
        // exponent, visible already at moderate n.
        use analytic::thm63;
        for n in [8usize, 16, 32] {
            let product = log2_independent_pairs(MemoryModel::Sc, n).unwrap();
            let exact = thm63::sc_log2_survival(n as u32);
            assert!(
                exact < product - 1.0,
                "n={n}: exact {exact} not below product {product}"
            );
        }
    }

    #[test]
    fn custom_models_have_no_closed_form() {
        assert!(
            expected_overlapping_pairs(MemoryModel::Custom(memmodel::ReorderMatrix::all()), 3)
                .is_none()
        );
    }
}
