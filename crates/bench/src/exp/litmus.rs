//! EXP-LITMUS: the SB/MP/LB litmus matrix — operational semantics match
//! the Table 1 relaxations.

use crate::{verdict, Ctx};
use execsim::litmus;
use execsim::SimParams;
use memmodel::MemoryModel;
use montecarlo::task_rng;
use montecarlo::Seed;
use std::fmt::Write as _;
use textplot::Table;

/// Runs the three classic litmus tests under every model and checks the
/// allow/forbid matrix implied by Table 1:
///
/// * SB needs ST→LD (TSO and weaker),
/// * MP needs ST→ST or LD→LD (PSO and weaker),
/// * LB needs LD→ST (WO only).
pub fn run(ctx: &Ctx) -> String {
    let trials = (ctx.trials / 10).max(2_000);
    let expected: [(&str, [bool; 4]); 3] = [
        ("SB", [false, true, true, true]),
        ("MP", [false, false, true, true]),
        ("LB", [false, false, false, true]),
    ];

    let mut out = String::new();
    let _ = writeln!(
        out,
        "relaxed-outcome frequency over {trials} unstaggered runs (0 = forbidden):\n"
    );
    let mut table = Table::new(vec!["test", "SC", "TSO", "PSO", "WO", "matrix"]);
    let mut ok = true;
    for (ti, test) in litmus::all().into_iter().enumerate() {
        let mut cells = vec![test.name.to_string()];
        let mut observed = [false; 4];
        for (mi, model) in MemoryModel::NAMED.into_iter().enumerate() {
            let params = SimParams::for_model(model).without_stagger();
            let mut rng = task_rng(Seed(ctx.seed), (ti * 10 + mi) as u64);
            let count = test.relaxed_outcome_count(params, trials, &mut rng);
            observed[mi] = count > 0;
            cells.push(format!("{:.4}", count as f64 / trials as f64));
        }
        let (name, expect) = expected[ti];
        debug_assert_eq!(name, test.name);
        let row_ok = observed == expect;
        ok &= row_ok;
        cells.push(verdict(row_ok).to_string());
        table.row(cells);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\npaper matrix: SB needs ST/LD; MP needs ST/ST or LD/LD; LB needs LD/ST"
    );
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_litmus_matrix() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
