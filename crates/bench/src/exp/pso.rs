//! EXP-PSO: footnote 4 — the Partial Store Order result the paper omits.

use crate::{verdict, Ctx};
use analytic::thm62;
use analytic::window_law::WindowLaws;
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use std::fmt::Write as _;
use textplot::Table;

/// Derives the PSO window law (TSO law + critical-store climb-back) and the
/// two-thread survival number, verifying footnote 4's claim that "a very
/// similar analysis achieves a similar result for PSO" — and pinning down
/// where PSO lands: *between SC and TSO*, because the extra ST/ST
/// relaxation lets the critical store shrink the window.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let laws = WindowLaws::new();

    let mut table = Table::new(vec!["gamma", "TSO law", "PSO law (derived)"]);
    for gamma in 0..=6u64 {
        table.row(vec![
            gamma.to_string(),
            format!("{:.6}", laws.pmf(MemoryModel::Tso, gamma).unwrap()),
            format!("{:.6}", laws.pmf(MemoryModel::Pso, gamma).unwrap()),
        ]);
    }
    out.push_str(&table.render());

    let pso = thm62::survival_from_window_series(MemoryModel::Pso).expect("named model");
    let sc = thm62::sc_survival().to_f64();
    let (tso_lo, _) = thm62::tso_survival_bounds();
    let _ = writeln!(
        out,
        "\nPSO two-thread survival (series): {pso:.6}; SC {sc:.6}, TSO > {:.6}",
        tso_lo.to_f64()
    );

    // End-to-end simulation agreement.
    let rm = ReliabilityModel::new(MemoryModel::Pso, 2);
    let est = rm.simulate_survival_with(ctx.trials, ctx.seed ^ 0x50, ctx.threads);
    let covered = est.covers(pso, 0.999);
    let _ = writeln!(out, "end-to-end simulation: {est} -> {}", verdict(covered));

    // Placement between SC and TSO.
    let tso = thm62::survival_from_window_series(MemoryModel::Tso).expect("named model");
    let placed = pso < sc && pso > tso;
    let _ = writeln!(
        out,
        "PSO sits strictly between SC and TSO: {}",
        verdict(placed)
    );

    let ok = covered && placed;
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_pso_extension() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
