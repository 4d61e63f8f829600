//! Theorem 6.3: `Pr[A] = e^{-n²(1+o(1))}` — the gap between memory models
//! vanishes as the thread count grows.
//!
//! For Sequential Consistency every window is exactly 2, so
//! `Pr[A] = c(n)·2^{-C(n+1,2)}·n!·2^{-2C(n,2)} = 2^{-n²(3/2 + o(1))}` —
//! computable exactly at any `n` with big rationals. For every other model
//! Claim B.2 (`Pr[B_0] ≥ 1/2` in any model) yields the matching lower bound
//! `Pr[A] ≥ c(n)·2^{-C(n+1,2)}·n!·2^{-2C(n,2)-(n-1)}`, and SC is an upper
//! bound, pinning all models to the same leading exponent.

use crate::bigq::BigRational;
use crate::binom::ln_factorial;
use crate::shift_law::{log2_prefactor, survival_identical_segments_exact, triangle};

/// Exact SC survival probability for `n` threads.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn sc_survival_exact(n: u32) -> BigRational {
    survival_identical_segments_exact(n, 2)
}

/// `log2 Pr[A]` for SC, in floating point (valid for very large `n`).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn sc_log2_survival(n: u32) -> f64 {
    let ln2 = std::f64::consts::LN_2;
    let pairs = (triangle(u64::from(n)) - u64::from(n)) as f64; // C(n,2)
    log2_prefactor(n) + ln_factorial(u64::from(n)) / ln2 - 2.0 * pairs
}

/// Claim B.2's universal lower bound on `log2 Pr[A]`, valid for **every**
/// memory model: each thread's window is 2 with probability at least `1/2`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn universal_log2_survival_lower_bound(n: u32) -> f64 {
    sc_log2_survival(n) - (f64::from(n) - 1.0)
}

/// The normalised exponent `−log2 Pr[A] / n²`; Theorem 6.3 says it tends to
/// `3/2` for SC and is sandwiched within `o(1)` of that for every model.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn sc_normalized_exponent(n: u32) -> f64 {
    -sc_log2_survival(n) / (f64::from(n) * f64::from(n))
}

/// The width of the model gap guaranteed by the sandwich, in normalised
/// exponent units: `(n − 1)/n² → 0`. Every memory model's normalised
/// exponent lies within this of SC's.
#[must_use]
pub fn sandwich_width(n: u32) -> f64 {
    (f64::from(n) - 1.0) / (f64::from(n) * f64::from(n))
}

/// `log2 Pr[A]` for `n` threads whose window growths are **independent**
/// draws from the law `pmf` — the "independent programs" variant of the
/// joined model:
///
/// `Pr[A] = prefactor(n) · n! · Π_{i=1}^{n-1} E[2^{-iΓ}]`,
/// with `E[2^{-iΓ}] = Σ_γ pmf(γ)·2^{-i(γ+2)}`.
///
/// For Weak Ordering this is *exact* even in the paper's shared-program
/// model (the WO window is independent of the program, see the Theorem 6.2
/// proof); for TSO/PSO it neglects the weak dependence induced by the
/// shared program, and serves as the paper-noted alternative model. Unlike
/// the sampled Theorem 6.1 estimator, it has no rare-event sampling floor
/// and is usable at any `n`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn log2_survival_iid_windows(n: u32, pmf: impl Fn(u64) -> f64, gamma_max: u64) -> f64 {
    assert!(n >= 1, "need at least one thread");
    let ln2 = std::f64::consts::LN_2;
    // One pmf evaluation per γ, shared by every i: the law is the costly
    // part (a series per point), the powers are exact.
    let law: Vec<f64> = (0..=gamma_max).map(pmf).collect();
    let mut log2_product = 0.0;
    for i in 1..n {
        let e: f64 = (0..=gamma_max)
            .zip(&law)
            .map(|(gamma, &p)| p * 2f64.powi(-((i as i32) * (gamma as i32 + 2))))
            .sum();
        log2_product += e.log2();
    }
    log2_prefactor(n) + ln_factorial(u64::from(n)) / ln2 + log2_product
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_log_formula() {
        for n in [2u32, 3, 5, 8, 16, 32] {
            let exact = sc_survival_exact(n).log2_abs();
            let fast = sc_log2_survival(n);
            assert!(
                (exact - fast).abs() < 1e-6 * exact.abs().max(1.0),
                "n={n}: {exact} vs {fast}"
            );
        }
    }

    #[test]
    fn n2_matches_theorem_62() {
        assert_eq!(sc_survival_exact(2), BigRational::ratio(1, 6));
    }

    #[test]
    fn normalized_exponent_tends_to_three_halves() {
        // The correction term is ≈ log2(n)/n (from Stirling), so convergence
        // is slow but monotone.
        let mut prev_gap = f64::INFINITY;
        for n in [4u32, 8, 16, 32, 64, 128, 256, 1024] {
            let gap = (sc_normalized_exponent(n) - 1.5).abs();
            assert!(gap < prev_gap, "gap not shrinking at n={n}");
            assert!(
                gap < 1.3 * (f64::from(n)).log2() / f64::from(n) + 0.2,
                "gap {gap} larger than the Stirling correction at n={n}"
            );
            prev_gap = gap;
        }
        assert!((sc_normalized_exponent(4096) - 1.5).abs() < 0.005);
    }

    #[test]
    fn sandwich_closes() {
        // (n-1)/n² → 0: by n = 100 every model is within 0.01 of SC's
        // normalised exponent.
        assert!(sandwich_width(2) > 0.2);
        assert!(sandwich_width(100) < 0.01);
        let mut prev = f64::INFINITY;
        for n in [2u32, 4, 8, 16, 32, 64, 128] {
            let w = sandwich_width(n);
            assert!(w < prev);
            prev = w;
        }
    }

    #[test]
    fn universal_bound_below_sc() {
        for n in 2..=40u32 {
            assert!(universal_log2_survival_lower_bound(n) <= sc_log2_survival(n));
        }
    }

    #[test]
    fn iid_windows_reduces_to_sc_for_point_mass() {
        // A point mass at γ = 0 is exactly the SC law.
        for n in [2u32, 5, 16, 48] {
            let iid = log2_survival_iid_windows(n, |g| f64::from(u8::from(g == 0)), 50);
            assert!(
                (iid - sc_log2_survival(n)).abs() < 1e-8,
                "n={n}: {iid} vs {}",
                sc_log2_survival(n)
            );
        }
    }

    #[test]
    fn iid_windows_matches_theorem_62_for_wo() {
        // n = 2, WO law: Pr[A] = 7/54 (independence is exact for WO).
        let wo = |g: u64| {
            if g == 0 {
                2.0 / 3.0
            } else {
                2f64.powi(-(g as i32)) / 3.0
            }
        };
        let got = log2_survival_iid_windows(2, wo, 200);
        assert!(((7.0f64 / 54.0).log2() - got).abs() < 1e-10);
    }

    #[test]
    fn iid_exponent_spread_vanishes() {
        // The WO-vs-SC normalised-exponent gap decays with n.
        let wo = |g: u64| {
            if g == 0 {
                2.0 / 3.0
            } else {
                2f64.powi(-(g as i32)) / 3.0
            }
        };
        let gap = |n: u32| {
            let nn = f64::from(n) * f64::from(n);
            (log2_survival_iid_windows(n, wo, 200) - sc_log2_survival(n)).abs() / nn
        };
        assert!(gap(64) < gap(16));
        assert!(gap(16) < gap(4));
        assert!(gap(64) < 0.015, "gap at n=64 is {}", gap(64));
    }

    #[test]
    fn survival_decays_superexponentially() {
        // log2 Pr[A] ≈ -1.5 n²: ratios between successive n grow.
        let mut prev = sc_log2_survival(2);
        for n in 3..=20u32 {
            let cur = sc_log2_survival(n);
            assert!(cur < prev - 2.0, "n={n}: not decaying fast enough");
            prev = cur;
        }
    }
}
