//! EXP-THM61: Theorem 6.1 — the exchangeability reduction.

use crate::diag::{self, EstimatorDiag};
use crate::{verdict, Ctx};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The thread counts of each model's grid.
const NS: [usize; 3] = [2, 3, 4];

/// Validates that for exchangeable window vectors, averaging the full exact
/// `Pr[A(Γ̄)]` equals the `n!·E[Π 2^{-iΓᵢ}]` single-term estimator on real
/// TSO and WO window vectors (TSO's are dependent through the shared
/// program, exactly the case the theorem covers), and that the factor's
/// expectation does not depend on the order of the windows.
///
/// One shared-draw grid per model serves every estimator at every `n`
/// ([`ReliabilityModel::estimate_exchangeability_grid_with`]): the exact
/// mean and the estimator, and the forward and reversed factors, are
/// paired over the same window vectors.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let mut ok = true;
    let mut tso = Vec::new();
    let mut tso_elapsed = Duration::ZERO;

    for (label, model) in [
        ("TSO windows", MemoryModel::Tso),
        ("WO windows", MemoryModel::Wo),
    ] {
        let start = Instant::now();
        let grid = ReliabilityModel::new(model, 4).estimate_exchangeability_grid_with(
            &NS,
            ctx.trials / 2,
            ctx.seed ^ 0x61,
            ctx.threads,
        );
        for point in &grid {
            let (exact_mean, est) = (point.exact.mean(), point.rb().survival());
            let rel = (est - exact_mean).abs() / exact_mean;
            let pass = rel < 0.08;
            ok &= pass;
            let _ = writeln!(
                out,
                "{label} n={}: E[exact Pr[A(G)]] = {exact_mean:.6}, Thm 6.1 estimator = {est:.6} (rel err {rel:.4}) -> {}",
                point.n,
                verdict(pass)
            );
        }
        if model == MemoryModel::Tso {
            (tso, tso_elapsed) = (grid, start.elapsed());
        }
    }

    // Position-invariance: the single-term factor must be exchangeable —
    // permuting a window vector changes the factor but not its expectation.
    let point = tso.iter().find(|p| p.n == 3).expect("the grid holds n = 3");
    for (name, stats) in [
        ("thm61.factor_forward", &point.factor),
        ("thm61.factor_reversed", &point.reversed),
    ] {
        diag::record(EstimatorDiag::from_stats(name, stats, tso_elapsed));
    }
    let (forward, reversed) = (point.factor.mean(), point.reversed.mean());
    let rel = (forward - reversed).abs() / forward;
    let sym_ok = rel < 0.05;
    ok &= sym_ok;
    let _ = writeln!(
        out,
        "\nexchangeability: E[factor] forward {forward:.6} vs reversed {reversed:.6} (rel {rel:.4}) -> {}",
        verdict(sym_ok)
    );

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_theorem_61() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
