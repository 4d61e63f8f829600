//! EXP-THM51: Theorem 5.1 — exact shift-process disjointness.

use crate::{verdict, Ctx};
use montecarlo::{Runner, Seed};
use shiftproc::{exact, ShiftProcess, ShiftScratch};
use std::fmt::Write as _;
use textplot::Table;

/// Cross-checks the three `Pr[A(γ̄)]` evaluators (permutation sum, subset
/// DP, exact rationals) and validates them against direct simulation across
/// assorted segment vectors.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let cases: &[&[u64]] = &[
        &[2, 2],
        &[2, 5],
        &[2, 2, 2],
        &[1, 3, 5],
        &[2, 2, 2, 2],
        &[0, 1, 2, 3, 4],
        &[2, 2, 2, 2, 2, 2],
    ];
    let mut table = Table::new(vec![
        "segments",
        "perm-sum",
        "subset-DP",
        "exact",
        "simulated",
        "covered",
    ]);
    let mut ok = true;
    for (i, &lengths) in cases.iter().enumerate() {
        let perm = exact::pr_disjoint_perm_sum(lengths);
        let dp = exact::pr_disjoint(lengths);
        let rational = exact::pr_disjoint_exact(lengths).to_f64();
        let agree = (perm - dp).abs() < 1e-10 && (dp - rational).abs() < 1e-10;
        let proc = ShiftProcess::canonical();
        let report = Runner::new(Seed(ctx.seed.wrapping_add(i as u64)))
            .with_threads(ctx.threads)
            .try_bernoulli_scratch(
                ctx.trials,
                move || ShiftScratch::with_capacity(lengths.len()),
                move |scratch, rng| proc.simulate_disjoint_into(lengths, scratch, rng),
            )
            .expect("panic-free simulation");
        crate::diag::record_report(format!("thm51.case{i}"), &report);
        let est = report.value;
        let covered = est.covers(dp, 0.999);
        ok &= agree && covered;
        table.row(vec![
            format!("{lengths:?}"),
            format!("{perm:.6}"),
            format!("{dp:.6}"),
            format!("{rational:.6}"),
            format!("{:.6}", est.point()),
            covered.to_string(),
        ]);
    }
    out.push_str(&table.render());

    // The theorem's structure: Pr factors into prefactor times a permanent.
    let _ = writeln!(
        out,
        "\ntwo-segment closed form (1/3)(2^-g1 + 2^-g2) check: {}",
        verdict(
            (exact::pr_disjoint(&[3, 4]) - (2f64.powi(-3) + 2f64.powi(-4)) / 3.0).abs() < 1e-12
        )
    );

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_theorem_51() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
