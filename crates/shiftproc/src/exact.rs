//! Exact evaluation of `Pr[A(γ̄)]` (Theorem 5.1).
//!
//! The theorem factors the disjointness probability as
//! `prefactor(n) · T(γ̄)` where
//! `T(γ̄) = Σ_{σ∈Sym_n} Π_{i=1}^{n-1} 2^{-(n-i)·γ_{σ(i)}}`
//! is the permanent of the matrix `w[i][j] = 2^{-(n-i)γ_j}` (the `i = n`
//! factor is 1, so the product may run to `n`). Three evaluators:
//!
//! * [`pr_disjoint_perm_sum`] — literal `n!` enumeration (cross-check);
//! * [`pr_disjoint`] / [`log2_pr_disjoint`] — `O(2ⁿ·n)` subset DP with
//!   magnitude scaling, usable to `n = 22`;
//! * [`pr_disjoint_exact`] — the same DP over exact rationals.

use analytic::bigq::BigRational;
use analytic::shift_law::{log2_prefactor, prefactor_exact, triangle};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Largest `n` accepted by the subset-DP evaluators (memory `O(2ⁿ)`).
pub const MAX_SUBSET_N: usize = 22;

/// Largest `n` accepted by the permutation-sum evaluator (time `O(n!·n)`).
pub const MAX_PERM_N: usize = 10;

/// `Pr[A(γ̄)]` by literal enumeration of `Sym_n`.
///
/// # Panics
///
/// Panics if `γ̄` has more than [`MAX_PERM_N`] segments.
#[must_use]
pub fn pr_disjoint_perm_sum(lengths: &[u64]) -> f64 {
    let n = lengths.len();
    assert!(
        n <= MAX_PERM_N,
        "permutation sum limited to n <= {MAX_PERM_N}"
    );
    if n <= 1 {
        return 1.0;
    }
    let mut indices: Vec<usize> = (0..n).collect();
    let mut total = 0.0;
    permute(&mut indices, 0, &mut |perm| {
        let mut prod = 1.0;
        for (i, &j) in perm.iter().enumerate() {
            // Position i (0-based) holds the (i+1)-th largest shift; its
            // exponent weight is n - (i+1).
            let weight = (n - 1 - i) as f64;
            prod *= 2f64.powf(-weight * lengths[j] as f64);
        }
        total += prod;
    });
    let prefactor = 2f64.powf(log2_prefactor(n as u32));
    prefactor * total
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

thread_local! {
    /// The subset table of [`scaled_permanent`], reused across calls.
    static SUBSETS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `2^-k`, exactly: what `2f64.powf(-(k as f64))` rounds to, normal,
/// subnormal or 0 — assembled from the exponent bits, with no `powf`.
pub(crate) fn exp2_neg(k: u64) -> f64 {
    if k <= 1022 {
        f64::from_bits((1023 - k) << 52)
    } else if k <= 1074 {
        f64::from_bits(1 << (1074 - k))
    } else {
        0.0
    }
}

/// The permanent `T(γ̄)` with lengths reduced by `base` (`γ_j − base`), via
/// the subset dynamic program. Reducing by the minimum length keeps every
/// weight in `[0, 1]` and the accumulator within `n!`, far inside `f64`
/// range. The weights are exact powers of two, tabulated once per call
/// (`n²` of them, where the program reads `n·2ⁿ⁻¹`), and each subset sums
/// over its members in ascending order, so the sums are those of the
/// plain loop over `j` bit for bit. The table is reused, so a call neither
/// allocates (past the largest `n` seen on its thread) nor calls `powf`.
fn scaled_permanent(lengths: &[u64], base: u64) -> f64 {
    let n = lengths.len();
    let size = 1usize << n;
    SUBSETS.with_borrow_mut(|table| {
        table.resize(table.len().max(size + n * n), 0.0);
        let (f, weights) = table.split_at_mut(size);
        // Row k: the weights of a segment placed with k positions left to
        // fill after it.
        for (k, row) in weights[..n * n].chunks_exact_mut(n).enumerate() {
            for (w, &len) in row.iter_mut().zip(lengths) {
                *w = exp2_neg((k as u64).saturating_mul(len - base));
            }
        }
        f[0] = 1.0;
        for mask in 1..size {
            let left = n - mask.count_ones() as usize;
            let row = &weights[left * n..][..n];
            let mut acc = 0.0;
            let mut members = mask;
            while members != 0 {
                let j = members.trailing_zeros() as usize;
                acc += f[mask ^ (1 << j)] * row[j];
                members &= members - 1;
            }
            f[mask] = acc;
        }
        f[size - 1]
    })
}

/// `log2 Pr[A(γ̄)]`, stable for probabilities far below `f64`'s smallest
/// positive value.
///
/// # Panics
///
/// Panics if `γ̄` has more than [`MAX_SUBSET_N`] segments.
#[must_use]
pub fn log2_pr_disjoint(lengths: &[u64]) -> f64 {
    let n = lengths.len();
    assert!(
        n <= MAX_SUBSET_N,
        "subset DP limited to n <= {MAX_SUBSET_N}"
    );
    if n <= 1 {
        return 0.0;
    }
    let base = *lengths.iter().min().expect("nonempty");
    let pairs = (triangle(n as u64) - n as u64) as f64; // C(n, 2)
    subset_log2_prefactor(n) - base as f64 * pairs + scaled_permanent(lengths, base).log2()
}

/// [`log2_prefactor`]`(n)` for `1 ≤ n ≤ MAX_SUBSET_N`, computed once per
/// process: the same values, without a product and a `log2` per call.
fn subset_log2_prefactor(n: usize) -> f64 {
    static TABLE: OnceLock<[f64; MAX_SUBSET_N + 1]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|k| log2_prefactor(k.max(1) as u32)))[n]
}

/// `Pr[A(γ̄)]` via the subset DP.
///
/// # Panics
///
/// Panics if `γ̄` has more than [`MAX_SUBSET_N`] segments.
#[must_use]
pub fn pr_disjoint(lengths: &[u64]) -> f64 {
    2f64.powf(log2_pr_disjoint(lengths))
}

/// `Pr[A(γ̄)]` as an exact rational.
///
/// # Panics
///
/// Panics if `γ̄` has more than 14 segments (the exact DP is `O(2ⁿ)` big
/// rational operations) or if any length exceeds `i32::MAX`.
#[must_use]
pub fn pr_disjoint_exact(lengths: &[u64]) -> BigRational {
    let n = lengths.len();
    assert!(n <= 14, "exact DP limited to n <= 14");
    if n <= 1 {
        return BigRational::one();
    }
    let mut f = vec![BigRational::zero(); 1 << n];
    f[0] = BigRational::one();
    for mask in 1usize..(1 << n) {
        let filled = mask.count_ones() as usize;
        let weight = (n - filled) as i64;
        let mut acc = BigRational::zero();
        for j in 0..n {
            if mask & (1 << j) != 0 {
                let e = i32::try_from(weight * lengths[j] as i64).expect("exponent fits i32");
                let term = &f[mask ^ (1 << j)] * &BigRational::pow2(-e);
                acc = &acc + &term;
            }
        }
        f[mask] = acc;
    }
    &prefactor_exact(n as u32) * &f[(1 << n) - 1]
}

/// `Pr[A(γ̄)]` for a general geometric shift parameter `q` — Theorem 5.1
/// rerun with `Pr[s = k] = q(1−q)^k`. Writing `r = 1 − q`, the same
/// memorylessness argument gives
///
/// ```text
/// Pr[A(γ̄)] = Π_{i=1}^{n-1} [ q·r^{n-i} / (1 − r^{n+1-i}) ]
///            · Σ_{σ∈Sym_n} Π_{i=1}^{n-1} r^{(n-i)·γ_{σ(i)}}
/// ```
///
/// which reduces to the paper's formula at `q = 1/2`.
///
/// # Panics
///
/// Panics if `q ∉ (0, 1]` or `γ̄` has more than [`MAX_SUBSET_N`] segments.
#[must_use]
pub fn pr_disjoint_with_q(lengths: &[u64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let n = lengths.len();
    assert!(
        n <= MAX_SUBSET_N,
        "subset DP limited to n <= {MAX_SUBSET_N}"
    );
    if n <= 1 {
        return 1.0;
    }
    let r = 1.0 - q;
    if r == 0.0 {
        // Every shift is 0: segments all start at the origin and overlap.
        return 0.0;
    }
    let mut prefactor = 1.0;
    for i in 1..n {
        let w = (n - i) as i32;
        prefactor *= q * r.powi(w) / (1.0 - r.powi(w + 1));
    }
    // Permanent of w[i][j] = r^{(n-i)·γ_j}, by the same subset DP.
    let mut f = vec![0.0f64; 1 << n];
    f[0] = 1.0;
    for mask in 1usize..(1 << n) {
        let filled = mask.count_ones() as usize;
        let weight = (n - filled) as f64;
        let mut acc = 0.0;
        for j in 0..n {
            if mask & (1 << j) != 0 {
                acc += f[mask ^ (1 << j)] * r.powf(weight * lengths[j] as f64);
            }
        }
        f[mask] = acc;
    }
    prefactor * f[(1 << n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use analytic::bigq::BigRational;
    use proptest::prelude::*;

    #[test]
    fn trivial_cases_are_certain() {
        assert_eq!(pr_disjoint(&[]), 1.0);
        assert_eq!(pr_disjoint(&[7]), 1.0);
        assert_eq!(pr_disjoint_perm_sum(&[7]), 1.0);
        assert_eq!(pr_disjoint_exact(&[7]), BigRational::one());
    }

    #[test]
    fn two_segments_closed_form() {
        // Pr[A(γ1, γ2)] = (1/3)(2^-γ1 + 2^-γ2) (Theorem 6.2's derivation).
        for (g1, g2) in [(2u64, 2u64), (2, 5), (3, 3), (0, 4)] {
            let expect = (2f64.powi(-(g1 as i32)) + 2f64.powi(-(g2 as i32))) / 3.0;
            assert!(
                (pr_disjoint(&[g1, g2]) - expect).abs() < 1e-12,
                "({g1},{g2})"
            );
        }
    }

    #[test]
    fn sc_two_threads_is_one_sixth() {
        assert!((pr_disjoint(&[2, 2]) - 1.0 / 6.0).abs() < 1e-12);
        let exact = pr_disjoint_exact(&[2, 2]);
        assert_eq!(exact, BigRational::ratio(1, 6));
    }

    #[test]
    fn all_evaluators_agree() {
        let cases: &[&[u64]] = &[
            &[2, 2],
            &[2, 3, 4],
            &[0, 0, 0],
            &[5, 1, 3, 2],
            &[2, 2, 2, 2, 2],
            &[1, 6, 2, 4, 3, 5],
        ];
        for lengths in cases {
            let a = pr_disjoint_perm_sum(lengths);
            let b = pr_disjoint(lengths);
            let c = pr_disjoint_exact(lengths).to_f64();
            assert!((a - b).abs() < 1e-10, "{lengths:?}: perm {a} vs dp {b}");
            assert!((b - c).abs() < 1e-10, "{lengths:?}: dp {b} vs exact {c}");
        }
    }

    #[test]
    fn probability_decreases_in_each_length() {
        let mut prev = pr_disjoint(&[2, 2, 2]);
        for g in 3..10u64 {
            let cur = pr_disjoint(&[g, 2, 2]);
            assert!(cur < prev);
            prev = cur;
        }
    }

    #[test]
    fn log_space_survives_huge_lengths() {
        let lengths = vec![1000u64; 12];
        let lp = log2_pr_disjoint(&lengths);
        assert!(lp < -60_000.0);
        assert!(lp.is_finite());
    }

    #[test]
    fn log_space_matches_linear_where_representable() {
        let lengths = [2u64, 3, 5, 2, 4];
        let lin = pr_disjoint(&lengths);
        assert!((log2_pr_disjoint(&lengths) - lin.log2()).abs() < 1e-9);
    }

    #[test]
    fn sc_n_threads_matches_shift_law() {
        use analytic::shift_law::survival_identical_segments_exact;
        for n in 2..=10u32 {
            let lengths = vec![2u64; n as usize];
            let dp = log2_pr_disjoint(&lengths);
            let exact = survival_identical_segments_exact(n, 2).log2_abs();
            assert!((dp - exact).abs() < 1e-8, "n={n}: {dp} vs {exact}");
        }
    }

    #[test]
    fn exact_powers_of_two_are_powf_bit_for_bit() {
        // Normal, subnormal and underflowing powers alike.
        for k in 0..=1100u64 {
            assert_eq!(
                exp2_neg(k).to_bits(),
                2f64.powf(-(k as f64)).to_bits(),
                "k = {k}"
            );
        }
        assert_eq!(exp2_neg(u64::MAX), 0.0);
    }

    /// The subset DP as it was written with `powf` weights and a fresh
    /// table per call: the reference the table-reusing one must match.
    fn scaled_permanent_powf(lengths: &[u64], base: u64) -> f64 {
        let n = lengths.len();
        let mut f = vec![0.0f64; 1 << n];
        f[0] = 1.0;
        for mask in 1usize..(1 << n) {
            let weight_exp = (n - mask.count_ones() as usize) as f64;
            let mut acc = 0.0;
            for j in 0..n {
                if mask & (1 << j) != 0 {
                    let e = (lengths[j] - base) as f64;
                    acc += f[mask ^ (1 << j)] * 2f64.powf(-weight_exp * e);
                }
            }
            f[mask] = acc;
        }
        f[(1 << n) - 1]
    }

    #[test]
    fn scaled_permanent_is_the_powf_dp_bit_for_bit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5ca1);
        for case in 0..20_000 {
            // Mostly small n, with a larger one now and then, so the
            // reused table is read both at and below its full size; lengths
            // reach far past underflow.
            let n = if case % 100 == 99 {
                rng.gen_range(9..=12)
            } else {
                rng.gen_range(1..=6)
            };
            let top = [4u64, 64, 2_000][rng.gen_range(0..3)];
            let lengths: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=top)).collect();
            let base = *lengths.iter().min().expect("nonempty");
            for b in [0, base] {
                let (new, old) = (
                    scaled_permanent(&lengths, b),
                    scaled_permanent_powf(&lengths, b),
                );
                assert_eq!(new.to_bits(), old.to_bits(), "{lengths:?} base {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn perm_sum_guards_n() {
        let _ = pr_disjoint_perm_sum(&[1; 11]);
    }

    #[test]
    fn general_q_reduces_to_canonical_at_half() {
        for lengths in [&[2u64, 2][..], &[2, 3, 4], &[0, 1, 5, 2]] {
            let canonical = pr_disjoint(lengths);
            let general = pr_disjoint_with_q(lengths, 0.5);
            assert!(
                (canonical - general).abs() < 1e-12,
                "{lengths:?}: {canonical} vs {general}"
            );
        }
    }

    #[test]
    fn general_q_two_segments_closed_form() {
        // Pr[A] = (1-q)/(2-q) · ((1-q)^γ1 + (1-q)^γ2).
        for q in [0.2f64, 0.5, 0.8] {
            let r = 1.0 - q;
            for (g1, g2) in [(2u64, 2u64), (1, 4)] {
                let expect = r / (2.0 - q) * (r.powi(g1 as i32) + r.powi(g2 as i32));
                let got = pr_disjoint_with_q(&[g1, g2], q);
                assert!((got - expect).abs() < 1e-12, "q={q} ({g1},{g2})");
            }
        }
    }

    #[test]
    fn general_q_degenerate_ends() {
        // q = 1: all shifts zero, everything collides.
        assert_eq!(pr_disjoint_with_q(&[2, 2], 1.0), 0.0);
        // One segment is always fine.
        assert_eq!(pr_disjoint_with_q(&[7], 0.3), 1.0);
        // Small q spreads segments out: survival increases as q decreases.
        let mut prev = 0.0;
        for q in [0.9, 0.6, 0.3, 0.1] {
            let cur = pr_disjoint_with_q(&[2, 2, 2], q);
            assert!(cur > prev, "q={q}");
            prev = cur;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dp_matches_perm_sum(lengths in proptest::collection::vec(0u64..8, 2..7)) {
            let a = pr_disjoint_perm_sum(&lengths);
            let b = pr_disjoint(&lengths);
            prop_assert!((a - b).abs() < 1e-10);
        }

        #[test]
        fn exact_matches_dp(lengths in proptest::collection::vec(0u64..8, 2..6)) {
            let a = pr_disjoint_exact(&lengths).to_f64();
            let b = pr_disjoint(&lengths);
            prop_assert!((a - b).abs() < 1e-10);
        }

        #[test]
        fn permutation_invariance(mut lengths in proptest::collection::vec(0u64..8, 2..7)) {
            let a = pr_disjoint(&lengths);
            lengths.rotate_left(1);
            prop_assert!((pr_disjoint(&lengths) - a).abs() < 1e-12);
        }

        #[test]
        fn is_a_probability(lengths in proptest::collection::vec(0u64..10, 2..7)) {
            let p = pr_disjoint(&lengths);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        }
    }
}
