//! Lemma 4.2: the distribution of `L_µ` — exactly `µ` contiguous STs
//! immediately above the critical LD just before it settles.
//!
//! The paper proves `Pr[L_0] = 1/3` exactly and `Pr[L_µ] ≥ (4/7)·2^-µ` for
//! `µ ≥ 1`, via the bound `Pr[L_µ] ≥ 2^-µ · h(µ)` with `h` increasing and
//! `h(1) = 4/7`. We implement both the paper's closed-form bound and a
//! sharper *partition series* that evaluates the same conditional
//! decomposition with the exact `φ(δ, q, µ)` counts instead of the
//! `φ ≥ 1` relaxation.

use crate::bigq::BigRational;
use crate::binom::choose_f64;

/// `Pr[L_0] = 1/3` exactly (Claim 4.3: the settled instruction above the
/// critical LD is a LD with probability `1 − 2/3`).
#[must_use]
pub fn pr_l0() -> BigRational {
    BigRational::ratio(1, 3)
}

/// The paper's `h(µ) = 8/7 − (1 − 2^-(µ+1))⁻¹ + (2/3)(1 − 2^-(µ+2))⁻¹`.
///
/// `Pr[L_µ] ≥ 2^-µ · h(µ)` for `µ ≥ 1`, and `h` is increasing with
/// `h(1) = 4/7`.
///
/// # Panics
///
/// Panics if `µ == 0` (the lemma's bound starts at `µ = 1`).
#[must_use]
pub fn h(mu: u32) -> f64 {
    assert!(mu >= 1, "h(µ) is defined for µ >= 1");
    8.0 / 7.0 - 1.0 / (1.0 - 2f64.powi(-(mu as i32) - 1))
        + (2.0 / 3.0) / (1.0 - 2f64.powi(-(mu as i32) - 2))
}

/// `h(µ)` as an exact rational.
///
/// # Panics
///
/// Panics if `µ == 0`.
#[must_use]
pub fn h_exact(mu: u32) -> BigRational {
    assert!(mu >= 1, "h(µ) is defined for µ >= 1");
    let one = BigRational::one();
    let a = &one - &BigRational::pow2(-(mu as i32) - 1);
    let b = &one - &BigRational::pow2(-(mu as i32) - 2);
    let term1 = BigRational::ratio(8, 7);
    let term2 = a.recip();
    let term3 = &BigRational::ratio(2, 3) * &b.recip();
    &(&term1 - &term2) + &term3
}

/// The paper's lower bound: `(4/7)·2^-µ` for `µ ≥ 1`, `1/3` for `µ = 0`.
#[must_use]
pub fn pr_l_mu_lower_bound(mu: u32) -> f64 {
    if mu == 0 {
        1.0 / 3.0
    } else {
        (4.0 / 7.0) * 2f64.powi(-(mu as i32))
    }
}

/// The total probability mass the lower bound leaves unattributed:
/// `R = 1 − 1/3 − Σ_{µ≥1} (4/7)2^-µ = 2/21` (Claim B.1).
#[must_use]
pub fn remainder_r() -> BigRational {
    BigRational::ratio(2, 21)
}

/// `Pr[Ψ_µ = q] = 2^-µ · 2^-q · C(µ+q−1, q)`: the number of LDs initially
/// interspersed among the lowest `µ` non-critical STs (Step 2 of the proof).
///
/// # Panics
///
/// Panics if `µ == 0` (Ψ is defined relative to the µ-th lowest ST).
#[must_use]
pub fn pr_psi(mu: u32, q: u32) -> f64 {
    assert!(mu >= 1, "Ψ_µ needs µ >= 1");
    2f64.powi(-(mu as i32) - q as i32) * choose_f64(u64::from(mu) + u64::from(q) - 1, u64::from(q))
}

/// Row 0 of the weighted partition sums `G_µ(q; x) = Σ_δ φ(δ, q, µ)·x^δ`
/// for `q ≤ q_max`: `G_0(q) = [q = 0]` (zero parts: only `δ = 0`).
pub(crate) fn phi_row_zero(q_max: u32) -> Vec<f64> {
    let mut row = vec![0.0f64; q_max as usize + 1];
    row[0] = 1.0;
    row
}

/// Advances row `µ − 1` of `G_µ(q; x)` to row `µ` in place, given
/// `xpow = x^µ`, by the recurrence `G_µ(q) = G_{µ−1}(q) + x^µ·G_µ(q−1)`
/// (split on whether some part equals `µ`). Ascending `q`, so `row[q − 1]`
/// already holds row `µ`. A whole `(µ, q)` table costs `O(µ·q)`, with no
/// per-δ partition counting.
pub(crate) fn advance_phi_row(row: &mut [f64], xpow: f64) {
    for q in 1..row.len() {
        row[q] += xpow * row[q - 1];
    }
}

/// Row `µ` of `G_µ(q; 1/2)` for `q ≤ q_max`.
fn weighted_phi_row(mu: u32, q_max: u32) -> Vec<f64> {
    let mut row = phi_row_zero(q_max);
    for m in 1..=mu {
        advance_phi_row(&mut row, 2f64.powi(-(m as i32)));
    }
    row
}

/// The weighted partition sum `G_µ(q) = Σ_δ φ(δ, q, µ) · x^δ` at `x = 1/2`,
/// by the row recurrence `advance_phi_row`.
#[must_use]
pub fn weighted_phi_sum(mu: u32, q: u32) -> f64 {
    weighted_phi_row(mu, q)[q as usize]
}

/// `Pr[F_µ | Ψ_µ = q]` exactly (as an m→∞ limit):
/// `Σ_δ φ(δ, q, µ)·2^-δ / C(µ+q−1, q)` — the probability that all `q`
/// interspersed LDs settle out of the bottom µ-ST region.
///
/// # Panics
///
/// Panics if `µ == 0`.
#[must_use]
pub fn pr_f_given_psi(mu: u32, q: u32) -> f64 {
    assert!(mu >= 1, "F_µ needs µ >= 1");
    if q == 0 {
        return 1.0;
    }
    weighted_phi_sum(mu, q) / choose_f64(u64::from(mu) + u64::from(q) - 1, u64::from(q))
}

/// The paper's Claim 4.4 lower bound on `Pr[F_µ | Ψ_µ = q]`:
/// `(2^-(q−1) − 2^-µq) / C(µ+q−1, q)`.
///
/// # Panics
///
/// Panics if `µ == 0`.
#[must_use]
pub fn pr_f_given_psi_lower_bound(mu: u32, q: u32) -> f64 {
    assert!(mu >= 1, "F_µ needs µ >= 1");
    if q == 0 {
        return 1.0;
    }
    let numer = 2f64.powi(1 - q as i32) - 2f64.powi(-((mu * q) as i32));
    numer / choose_f64(u64::from(mu) + u64::from(q) - 1, u64::from(q))
}

/// `Pr[L_µ]` by the partition series (the proof's decomposition with exact
/// `φ` counts):
///
/// `Pr[L_µ] = Σ_q 2^-µ·2^-q·G_µ(q)·(1 − (2/3)·2^-q)`,
///
/// truncated at `q_max` (terms decay like `4^-q`, so `q_max = 64` is far
/// beyond f64 precision). `µ = 0` returns the exact `1/3`.
#[must_use]
pub fn pr_l_mu_series(mu: u32, q_max: u32) -> f64 {
    if mu == 0 {
        return 1.0 / 3.0;
    }
    series_term(mu, &weighted_phi_row(mu, q_max))
}

/// `Pr[L_µ]` from row `µ` of `G_µ(q; 1/2)`.
fn series_term(mu: u32, g: &[f64]) -> f64 {
    let mut total = 0.0;
    for (q, g) in g.iter().enumerate() {
        let two_q = 2f64.powi(-(q as i32));
        total += two_q * g * (1.0 - (2.0 / 3.0) * two_q);
    }
    total * 2f64.powi(-(mu as i32))
}

/// `Pr[L_µ]` for every `µ ≤ mu_max` in one pass: one weighted-φ row is
/// advanced in place, so the whole vector costs `O(µ_max · q_max)`.
#[must_use]
pub fn pr_l_mu_series_all(mu_max: u32, q_max: u32) -> Vec<f64> {
    let mut g = phi_row_zero(q_max);
    let mut out = Vec::with_capacity(mu_max as usize + 1);
    out.push(1.0 / 3.0); // µ = 0 is exact.
    for mu in 1..=mu_max {
        advance_phi_row(&mut g, 2f64.powi(-(mu as i32)));
        out.push(series_term(mu, &g));
    }
    out
}

/// Default series truncation depth used across the workspace.
pub const DEFAULT_Q_MAX: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitions::phi;

    /// FNV-1a over the bits of each value.
    fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn phi_recurrence_is_pinned_bit_for_bit() {
        // Captured from the (µ+1)×(q+1) table this crate filled before
        // lemma42 and `general::pr_l_mu_all` shared one in-place row.
        let grid = || (0..=40u32).flat_map(|mu| (0..=40u32).map(move |q| (mu, q)));
        let w = fnv(grid().map(|(mu, q)| weighted_phi_sum(mu, q)));
        let f = fnv(grid()
            .filter(|&(mu, _)| mu >= 1)
            .map(|(mu, q)| pr_f_given_psi(mu, q)));
        assert_eq!(w, 0xfda3_93ef_c151_17a4, "weighted_phi_sum drifted");
        assert_eq!(f, 0x37f2_fe21_562b_a907, "pr_f_given_psi drifted");
        assert_eq!(weighted_phi_sum(5, 7).to_bits(), 0x3f99_d0f9_7980_0000);
        assert_eq!(pr_f_given_psi(5, 7).to_bits(), 0x3f14_06f6_4888_8889);
        assert_eq!(weighted_phi_sum(40, 40).to_bits(), 0x3d8b_b3b4_7fe6_d3eb);
        assert_eq!(fnv(pr_l_mu_series_all(96, 64)), 0x69a7_adb7_0e47_acbf);
        let general = crate::general::pr_l_mu_all(64, 64, 0.5, 0.5)
            .into_iter()
            .chain(crate::general::pr_l_mu_all(64, 64, 0.3, 0.6));
        assert_eq!(
            fnv(general),
            0x09a2_dbee_b31c_7bd7,
            "general::pr_l_mu_all drifted"
        );
    }

    #[test]
    fn h1_is_four_sevenths() {
        assert!((h(1) - 4.0 / 7.0).abs() < 1e-15);
        assert_eq!(h_exact(1), BigRational::ratio(4, 7));
    }

    #[test]
    fn h_is_increasing_and_bounded() {
        let mut prev = h(1);
        for mu in 2..40 {
            let cur = h(mu);
            assert!(cur > prev, "h not increasing at µ={mu}");
            prev = cur;
        }
        // h(µ) → 8/7 − 1 + 2/3 = 17/21 as µ → ∞.
        assert!((h(60) - 17.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn h_exact_matches_float() {
        for mu in 1..=20 {
            assert!((h_exact(mu).to_f64() - h(mu)).abs() < 1e-14, "µ={mu}");
        }
    }

    #[test]
    fn remainder_claim_b1() {
        // 1 − 1/3 − Σ_{µ≥1} (4/7)·2^-µ = 2/3 − 4/7 = 2/21.
        let sum_lower: f64 = (1..200).map(pr_l_mu_lower_bound).sum();
        let r = 1.0 - 1.0 / 3.0 - sum_lower;
        assert!((r - 2.0 / 21.0).abs() < 1e-12);
        assert_eq!(remainder_r(), BigRational::ratio(2, 21));
    }

    #[test]
    fn psi_distribution_normalises() {
        for mu in 1..=8u32 {
            let total: f64 = (0..200).map(|q| pr_psi(mu, q)).sum();
            assert!((total - 1.0).abs() < 1e-10, "µ={mu} total={total}");
        }
    }

    #[test]
    fn weighted_phi_sum_matches_direct_phi() {
        for mu in 1..=6u32 {
            for q in 0..=6u32 {
                let direct: f64 = (0..=u64::from(mu) * u64::from(q))
                    .map(|d| phi(d, u64::from(q), u64::from(mu)) as f64 * 2f64.powi(-(d as i32)))
                    .sum();
                let fast = weighted_phi_sum(mu, q);
                assert!(
                    (direct - fast).abs() < 1e-12,
                    "µ={mu} q={q}: {direct} vs {fast}"
                );
            }
        }
    }

    #[test]
    fn pr_f_between_bound_and_one() {
        for mu in 1..=10u32 {
            for q in 0..=10u32 {
                let exact = pr_f_given_psi(mu, q);
                let lower = pr_f_given_psi_lower_bound(mu, q);
                assert!(exact <= 1.0 + 1e-12);
                assert!(
                    exact >= lower - 1e-12,
                    "Claim 4.4 violated at µ={mu} q={q}: {exact} < {lower}"
                );
            }
        }
    }

    #[test]
    fn series_dominates_paper_lower_bound() {
        for mu in 0..=20u32 {
            let series = pr_l_mu_series(mu, DEFAULT_Q_MAX);
            let bound = pr_l_mu_lower_bound(mu);
            assert!(
                series >= bound - 1e-12,
                "Lemma 4.2 bound violated at µ={mu}: {series} < {bound}"
            );
        }
    }

    #[test]
    fn series_normalises_over_mu() {
        // Σ_µ Pr[L_µ] = 1: the settled prefix above the critical LD ends in
        // some exact ST run length.
        let total: f64 = pr_l_mu_series_all(200, DEFAULT_Q_MAX).iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn batch_series_matches_single() {
        let all = pr_l_mu_series_all(20, DEFAULT_Q_MAX);
        for mu in 0..=20u32 {
            assert!(
                (all[mu as usize] - pr_l_mu_series(mu, DEFAULT_Q_MAX)).abs() < 1e-15,
                "µ={mu}"
            );
        }
    }

    #[test]
    fn series_truncation_converges() {
        for mu in 1..=8u32 {
            let coarse = pr_l_mu_series(mu, 24);
            let fine = pr_l_mu_series(mu, 96);
            assert!((coarse - fine).abs() < 1e-12, "µ={mu}");
        }
    }

    #[test]
    #[should_panic(expected = "µ >= 1")]
    fn h_zero_panics() {
        let _ = h(0);
    }
}
