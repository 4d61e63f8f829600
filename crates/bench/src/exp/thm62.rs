//! EXP-THM62: Theorem 6.2 — the headline two-thread survival table.

use crate::{verdict, Ctx};
use analytic::thm62;
use memmodel::MemoryModel;
use mmr_core::ModelComparison;
use std::fmt::Write as _;
use textplot::BarChart;

/// Reproduces the paper's central table:
///
/// | model | paper `Pr[A]` |
/// |---|---|
/// | SC  | `1/6 ≈ 0.1666` |
/// | TSO | `(0.1315, 0.1369)` |
/// | WO  | `7/54 ≈ 0.1296` |
///
/// by exact constants, the window-law series, and end-to-end simulation.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();

    // Exact constants.
    let _ = writeln!(out, "paper constants (exact rationals):");
    let _ = writeln!(
        out,
        "  SC  Pr[A] = {} = {:.6}",
        thm62::sc_survival(),
        thm62::sc_survival().to_f64()
    );
    let (lo, hi) = thm62::tso_survival_bounds();
    let _ = writeln!(
        out,
        "  TSO Pr[A] in ({lo}, {hi}) = ({:.6}, {:.6})",
        lo.to_f64(),
        hi.to_f64()
    );
    let _ = writeln!(
        out,
        "  WO  Pr[A] = {} = {:.6}",
        thm62::wo_survival(),
        thm62::wo_survival().to_f64()
    );
    let _ = writeln!(
        out,
        "  SC/WO ratio = {} (paper: 9/7)\n",
        thm62::sc_over_wo_ratio()
    );

    // End-to-end simulation of every named model.
    let started = std::time::Instant::now();
    let cmp = ModelComparison::run_with(2, ctx.trials, ctx.seed ^ 0x62, ctx.threads);
    let cmp_elapsed = started.elapsed();
    for row in cmp.rows() {
        crate::diag::record(crate::diag::EstimatorDiag::from_stats(
            format!("thm62.{}", row.model.short_name()),
            &row.estimate,
            cmp_elapsed,
        ));
    }
    out.push_str(&cmp.to_string());

    let mut ok = cmp.rows().iter().all(|r| r.consistent(0.999));

    // Window-series cross-check.
    out.push_str("\nwindow-series route (Pr[A] = (2/3) E[2^-Gamma]):\n");
    for model in MemoryModel::NAMED {
        let s = thm62::survival_from_window_series(model).expect("named model");
        let _ = writeln!(out, "  {:<4} {s:.6}", model.short_name());
    }

    // Qualitative claims, judged at interval resolution: adjacent models
    // can be nearly tied (TSO and WO differ by under 0.005, below one
    // standard error at quick-mode trial counts), so "A > B" is only
    // refuted when the intervals are disjoint in the wrong direction.
    let p = |m| cmp.row(m).unwrap().estimate.point();
    let ci = |m| cmp.row(m).unwrap().estimate.wilson_ci(0.999);
    let upholds_gt = |a: MemoryModel, b: MemoryModel| ci(a).1 >= ci(b).0;
    let order_ok = upholds_gt(MemoryModel::Sc, MemoryModel::Pso)
        && upholds_gt(MemoryModel::Pso, MemoryModel::Tso)
        && upholds_gt(MemoryModel::Tso, MemoryModel::Wo);
    let closer_ok = (p(MemoryModel::Tso) - p(MemoryModel::Wo)).abs()
        < (p(MemoryModel::Tso) - p(MemoryModel::Sc)).abs();
    ok &= order_ok && closer_ok;
    let _ = writeln!(
        out,
        "\nsurvival ordering SC > PSO > TSO > WO: {}",
        verdict(order_ok)
    );
    let _ = writeln!(
        out,
        "TSO closer to WO than to SC (paper's observation): {}",
        verdict(closer_ok)
    );

    let mut bars = BarChart::new(40);
    for row in cmp.rows() {
        bars.bar(row.model.short_name(), row.estimate.point());
    }
    out.push('\n');
    out.push_str(&bars.render());

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_theorem_62() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
