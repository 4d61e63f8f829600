//! Claim 4.3: the steady-state bottom-of-program store fraction under TSO.
//!
//! After settling stage `i`, the bottom instruction is a ST either because it
//! started as one (probability `p`; stores never move under TSO), or because
//! it started as a LD (probability `1 − p`), the instruction above had
//! settled to a ST (probability `X_{i-1}`), and the swap succeeded
//! (probability `s`). This yields `X_i = p + (1 − p)·s·X_{i-1}`, whose fixed
//! point is `p / (1 − (1 − p)s)` — `2/3` at the canonical `p = s = 1/2`.

use crate::bigq::BigRational;

/// The canonical steady-state store fraction, `2/3` (Claim 4.3).
#[must_use]
pub fn bottom_store_fraction_limit_canonical() -> BigRational {
    BigRational::ratio(2, 3)
}

/// The fixed point `p / (1 − (1 − p)s)` of the Claim 4.3 recurrence, for
/// general store probability `p` and swap probability `s`.
///
/// # Panics
///
/// Panics if `p` or `s` lies outside `[0, 1]`.
///
/// ```
/// let l = analytic::recurrence::bottom_store_fraction_limit(0.5, 0.5);
/// assert!((l - 2.0 / 3.0).abs() < 1e-15);
/// ```
#[must_use]
pub fn bottom_store_fraction_limit(p: f64, s: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!((0.0..=1.0).contains(&s), "s must be a probability");
    p / (1.0 - (1.0 - p) * s)
}

/// The finite-`i` value `X_i` of the Claim 4.3 recurrence
/// `X_i = p + (1 − p)·s·X_{i-1}` with `X_1 = p`.
///
/// The paper solves this in closed form as
/// `X_i = L + a^{i-1}(X_1 − L)` with `a = (1−p)s`, `L` the fixed point; we
/// iterate directly, which doubles as a check of that closed form in tests.
///
/// # Panics
///
/// Panics if `i == 0` or the probabilities are invalid.
#[must_use]
pub fn bottom_store_fraction(p: f64, s: f64, i: u64) -> f64 {
    assert!(i >= 1, "the recurrence starts at i = 1");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!((0.0..=1.0).contains(&s), "s must be a probability");
    let mut x = p;
    for _ in 1..i {
        x = p + (1.0 - p) * s * x;
    }
    x
}

/// Exact rational `X_i` for the canonical `p = s = 1/2`:
/// `X_i = 1/2 + X_{i-1}/4`.
///
/// # Panics
///
/// Panics if `i == 0`.
#[must_use]
pub fn bottom_store_fraction_exact(i: u64) -> BigRational {
    assert!(i >= 1, "the recurrence starts at i = 1");
    let half = BigRational::ratio(1, 2);
    let quarter = BigRational::ratio(1, 4);
    let mut x = half.clone();
    for _ in 1..i {
        x = &half + &(&quarter * &x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_limit_is_two_thirds() {
        assert_eq!(
            bottom_store_fraction_limit_canonical(),
            BigRational::ratio(2, 3)
        );
        assert!((bottom_store_fraction_limit(0.5, 0.5) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn iteration_converges_to_limit() {
        for (p, s) in [(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)] {
            let limit = bottom_store_fraction_limit(p, s);
            let x60 = bottom_store_fraction(p, s, 60);
            assert!((x60 - limit).abs() < 1e-12, "p={p} s={s}: {x60} vs {limit}");
        }
    }

    #[test]
    fn matches_paper_closed_form() {
        // X_i = L + a^{i-1}(X_1 - L) with a = 1/4, X_1 = 1/2, L = 2/3.
        for i in 1..=20u64 {
            let closed = 2.0 / 3.0 + 0.25f64.powi(i as i32 - 1) * (0.5 - 2.0 / 3.0);
            assert!(
                (bottom_store_fraction(0.5, 0.5, i) - closed).abs() < 1e-14,
                "i={i}"
            );
        }
    }

    #[test]
    fn exact_rational_matches_float() {
        for i in 1..=12u64 {
            let exact = bottom_store_fraction_exact(i).to_f64();
            let float = bottom_store_fraction(0.5, 0.5, i);
            assert!((exact - float).abs() < 1e-14, "i={i}");
        }
        // X_1 = 1/2, X_2 = 5/8, X_3 = 21/32.
        assert_eq!(bottom_store_fraction_exact(1), BigRational::ratio(1, 2));
        assert_eq!(bottom_store_fraction_exact(2), BigRational::ratio(5, 8));
        assert_eq!(bottom_store_fraction_exact(3), BigRational::ratio(21, 32));
    }

    #[test]
    fn edge_probabilities() {
        // p = 1: always a store.
        assert_eq!(bottom_store_fraction_limit(1.0, 0.5), 1.0);
        // s = 0: nothing moves, the fraction is just p.
        assert_eq!(bottom_store_fraction_limit(0.4, 0.0), 0.4);
        // p = 0: no stores at all.
        assert_eq!(bottom_store_fraction_limit(0.0, 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "starts at i = 1")]
    fn zero_index_panics() {
        let _ = bottom_store_fraction(0.5, 0.5, 0);
    }
}
