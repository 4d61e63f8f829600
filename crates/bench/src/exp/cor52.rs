//! EXP-COR52: Corollary 5.2 — `c(n) ∈ [2, 4]`, `c(2) = 8/3`.

use crate::{verdict, Ctx};
use analytic::shift_law;
use analytic::BigRational;
use std::fmt::Write as _;
use textplot::sparkline;

/// Evaluates `c(n)` exactly over a wide range of `n` and checks the
/// corollary's claims.
pub fn run(_ctx: &Ctx) -> String {
    let mut out = String::new();

    let c2 = shift_law::c_n_exact(2);
    let c2_ok = c2 == BigRational::ratio(8, 3);
    let _ = writeln!(
        out,
        "c(2) = {c2} (paper: 8/3 exactly) -> {}",
        verdict(c2_ok)
    );

    let values: Vec<f64> = (1..=64).map(shift_law::c_n).collect();
    let range_ok = values.iter().all(|&c| (2.0..=4.0).contains(&c));
    let monotone = values.windows(2).all(|w| w[0] <= w[1]);
    let _ = writeln!(
        out,
        "c(n) for n = 1..64: min {:.6}, max {:.6}, limit c(inf) = {:.9}",
        values.first().unwrap(),
        values.last().unwrap(),
        shift_law::c_infinity()
    );
    let _ = writeln!(out, "  {}", sparkline(&values));
    let _ = writeln!(
        out,
        "c(n) in [2, 4] for all n (paper's claim): {}",
        verdict(range_ok)
    );
    let _ = writeln!(out, "c(n) increasing: {}", verdict(monotone));

    // Exact rationals agree with floats out to n = 32.
    let exact_ok =
        (1..=32u32).all(|n| (shift_law::c_n_exact(n).to_f64() - shift_law::c_n(n)).abs() < 1e-12);
    let _ = writeln!(
        out,
        "exact rationals match floats (n <= 32): {}",
        verdict(exact_ok)
    );

    // The paper's derivation bound: the product term is at least 1/2.
    let product: f64 = 2.0 / shift_law::c_infinity();
    let half_ok = product > 0.5;
    let _ = writeln!(
        out,
        "prod (1 - 2^-i) = {product:.6} > 1/2 (Appendix B.2): {}",
        verdict(half_ok)
    );

    let ok = c2_ok && range_ok && monotone && exact_ok && half_ok;
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_corollary_52() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
