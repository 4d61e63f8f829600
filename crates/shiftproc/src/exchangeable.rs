//! The Theorem 6.1 exchangeable-lengths estimator.
//!
//! When the segment lengths `Γ̄` are identically distributed (they needn't be
//! independent — the joined model's windows share one random program),
//! Theorem 6.1 collapses the permutation sum:
//!
//! ```text
//! Pr[A(Γ̄)] = c(n) · 2^{-C(n+1,2)} · n! · E[Π_{i=1}^{n-1} 2^{-i·Γ_i}]
//! ```
//!
//! This yields a *Rao-Blackwellised* survival estimator: sample window
//! vectors `Γ̄` by Monte Carlo (cheap), evaluate the per-sample factor in
//! `O(n)`, and fold the enormous deterministic prefactor in log space. A
//! direct simulation of the event `A` would need `e^{+Θ(n²)}` samples to see
//! a single success; this estimator needs only enough samples to pin down
//! `E[Π 2^{-iΓ′_i}]`, a bounded quantity.

use crate::exact::exp2_neg;
use analytic::binom::ln_factorial;
use analytic::shift_law::{log2_prefactor, triangle};

/// The per-sample factor `Π_{i=1}^{n-1} 2^{-(n-i)(Γ_i − base)}`, with the
/// deterministic `2^{-base·C(n,2)}` part factored out so the result stays in
/// `(0, 1]` for any window vector with `Γ_i ≥ base`.
///
/// Positions are weighted `n−1, n−2, …, 1, 0` in input order — valid because
/// exchangeability makes every assignment of weights to threads equal in
/// expectation (that is Theorem 6.1's content).
///
/// # Panics
///
/// Panics if some length is below `base`.
#[must_use]
pub fn sample_factor(lengths: &[u64], base: u64) -> f64 {
    if let Some(&last) = lengths.last() {
        assert!(last >= base, "length {last} below baseline {base}");
    }
    sample_factor_with(lengths.len(), base, |i| lengths[i])
}

/// [`sample_factor`] over `n` lengths read on demand: `length(i)` is
/// called once for each weighted position `i < n − 1`, and never for the
/// last position, whose weight is 0.
///
/// The factor is `2^-K` for the integer `K = Σ (n−1−i)(Γ_i − base)`,
/// summed exactly (saturating: past `2^1074` it is 0 either way) and
/// assembled from exponent bits — what `2f64.powf(-K)` rounds to.
///
/// # Panics
///
/// Panics if a length read is below `base`.
#[must_use]
pub fn sample_factor_with(n: usize, base: u64, mut length: impl FnMut(usize) -> u64) -> f64 {
    let mut exponent = 0u64;
    for i in 0..n.saturating_sub(1) {
        let g = length(i);
        assert!(g >= base, "length {g} below baseline {base}");
        let weight = (n - 1 - i) as u64;
        exponent = exponent.saturating_add(weight.saturating_mul(g - base));
    }
    exp2_neg(exponent)
}

/// Assembles `log2 Pr[A]` from the empirical mean of [`sample_factor`]
/// values.
///
/// # Panics
///
/// Panics if `n == 0` or `mean_factor` is not positive.
#[must_use]
pub fn log2_survival(n: u32, base: u64, mean_factor: f64) -> f64 {
    assert!(n >= 1, "need at least one thread");
    assert!(mean_factor > 0.0, "mean factor must be positive");
    let ln2 = std::f64::consts::LN_2;
    let pairs = (triangle(u64::from(n)) - u64::from(n)) as f64; // C(n, 2)
    log2_prefactor(n) + ln_factorial(u64::from(n)) / ln2 - base as f64 * pairs + mean_factor.log2()
}

/// The fully deterministic special case: every window has length `base`
/// exactly (Sequential Consistency with `base = 2`).
#[must_use]
pub fn log2_survival_deterministic(n: u32, base: u64) -> f64 {
    log2_survival(n, base, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn factor_is_one_for_baseline_vector() {
        assert_eq!(sample_factor(&[2, 2, 2], 2), 1.0);
        assert_eq!(sample_factor(&[5], 5), 1.0);
    }

    #[test]
    fn factor_weights_by_position() {
        // n = 3: weights 2, 1, 0.
        let f = sample_factor(&[3, 4, 9], 2);
        assert!((f - 2f64.powi(-4)).abs() < 1e-15); // weights 2*1 + 1*2
                                                    // The last position never contributes.
        assert_eq!(sample_factor(&[2, 2, 100], 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "below baseline")]
    fn factor_rejects_sub_baseline() {
        let _ = sample_factor(&[1, 2], 2);
    }

    #[test]
    #[should_panic(expected = "below baseline")]
    fn factor_rejects_sub_baseline_in_the_unweighted_position() {
        let _ = sample_factor(&[2, 1], 2);
    }

    #[test]
    fn factor_is_the_powf_factor_bit_for_bit() {
        // Exponents from 0 through the subnormal range to underflow: the
        // f64 sum the factor was once computed from is exact there, so
        // `powf` of it is the reference.
        let mut rng = SmallRng::seed_from_u64(0x2f);
        for _ in 0..100_000 {
            let n = rng.gen_range(0..=24usize);
            let top = [3, 12, 40, 200][rng.gen_range(0..4)];
            let lengths: Vec<u64> = (0..n).map(|_| rng.gen_range(2..top)).collect();
            let mut log2_sum = 0.0;
            for (i, &g) in lengths.iter().enumerate() {
                log2_sum -= (n - 1 - i) as f64 * (g - 2) as f64;
            }
            let f = sample_factor(&lengths, 2);
            assert_eq!(f.to_bits(), 2f64.powf(log2_sum).to_bits(), "{lengths:?}");
        }
        assert_eq!(sample_factor_with(3, 0, |_| u64::MAX), 0.0);
    }

    #[test]
    fn factor_with_never_reads_the_unweighted_position() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in 0..=12usize {
            let lengths: Vec<u64> = (0..n).map(|_| rng.gen_range(2..40)).collect();
            let mut read = vec![false; n];
            let f = sample_factor_with(n, 2, |i| {
                read[i] = true;
                lengths[i]
            });
            // The eager sum over every position, zero weight included.
            let mut log2_sum = 0.0;
            for (i, &g) in lengths.iter().enumerate() {
                log2_sum -= (n - 1 - i) as f64 * (g - 2) as f64;
            }
            assert_eq!(f.to_bits(), 2f64.powf(log2_sum).to_bits(), "n={n}");
            assert_eq!(f.to_bits(), sample_factor(&lengths, 2).to_bits());
            assert!(
                read.iter().rev().skip(1).all(|&r| r),
                "n={n}: a weighted position unread"
            );
            assert!(
                !read.last().copied().unwrap_or(false),
                "n={n}: the last position was read"
            );
        }
    }

    #[test]
    fn deterministic_matches_exact_dp() {
        for n in 2..=10u32 {
            let lengths = vec![2u64; n as usize];
            let a = log2_survival_deterministic(n, 2);
            let b = exact::log2_pr_disjoint(&lengths);
            assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
        }
    }

    #[test]
    fn estimator_agrees_with_exact_on_random_exchangeable_lengths() {
        // Theorem 6.1 check: sample iid geometric-plus-2 lengths; compare
        // (a) the mean of exact Pr[A(γ̄)] over samples with
        // (b) the exchangeable estimator from the same samples.
        let n = 4usize;
        let mut rng = SmallRng::seed_from_u64(21);
        let samples = 200_000;
        let mut exact_mean = 0.0;
        let mut factor_mean = 0.0;
        for _ in 0..samples {
            let lengths: Vec<u64> = (0..n)
                .map(|_| {
                    let mut k = 2;
                    while rng.gen_bool(0.5) {
                        k += 1;
                    }
                    k
                })
                .collect();
            exact_mean += exact::pr_disjoint(&lengths);
            factor_mean += sample_factor(&lengths, 2);
        }
        exact_mean /= samples as f64;
        factor_mean /= samples as f64;
        let estimated = 2f64.powf(log2_survival(n as u32, 2, factor_mean));
        let rel = (estimated - exact_mean).abs() / exact_mean;
        assert!(
            rel < 0.02,
            "Theorem 6.1 estimator off by {rel}: {estimated} vs {exact_mean}"
        );
    }

    #[test]
    fn survival_shrinks_superexponentially_in_n() {
        let mut prev = 0.0;
        for n in 2..=16u32 {
            let cur = log2_survival_deterministic(n, 2);
            assert!(cur < prev - 2.5, "n={n}");
            prev = cur;
        }
    }
}
