//! EXP-F1: Figure 1 — a settling-process instantiation under TSO.

use crate::{verdict, Ctx};
use memmodel::MemoryModel;
use montecarlo::{task_rng, Seed};
use progmodel::ProgramGenerator;
use settle::SettleTrace;
use std::fmt::Write as _;

/// Renders a round-by-round TSO settling run in the style of Figure 1:
/// columns are rounds, rows are program positions, the critical pair is
/// marked `*`, and the final column's bottom run forms the critical window.
pub fn run(ctx: &Ctx) -> String {
    let mut rng = task_rng(Seed(ctx.seed), 0xF1);
    // A small program like the figure's (the paper draws m = 6).
    let program = ProgramGenerator::new(6).generate(&mut rng);
    let trace = SettleTrace::run(MemoryModel::Tso, &program, &mut rng);

    let mut out = String::new();
    let _ = writeln!(out, "initial program: {program}\n");
    let _ = writeln!(out, "columns: S_0 then S_r after each settling round\n");
    let len = program.len();
    for pos in 0..len {
        let mut row = String::new();
        // Initial order column.
        let _ = write!(row, "{:>7}", cell(&program, pos));
        for round in trace.rounds() {
            let idx = round.order[pos];
            let _ = write!(row, "{:>7}", cell_idx(&program, idx));
        }
        let _ = writeln!(out, "{row}");
    }
    let settled = trace.final_settled();
    let gamma = settled.gamma();
    let _ = writeln!(
        out,
        "\ntotal positions climbed: {}, final critical window gamma = {gamma} (Gamma = {})",
        trace.total_climb(),
        settled.window_len()
    );

    // Figure-1 invariants: under TSO only LDs move, and they only move up.
    let mut ok = true;
    for round in trace.rounds() {
        let instr = program[round.settling];
        if round.climbed > 0 && instr.op_type() != Some(memmodel::OpType::Ld) {
            ok = false;
            let _ = writeln!(out, "  non-LD climbed in round {}", round.settling);
        }
    }
    let _ = writeln!(out, "only LDs settle upward under TSO: {}", verdict(ok));
    out
}

fn cell(program: &progmodel::Program, pos: usize) -> String {
    cell_idx(program, pos)
}

fn cell_idx(program: &progmodel::Program, idx: usize) -> String {
    let instr = program[idx];
    match instr.op_type() {
        Some(t) => {
            if instr.is_critical() {
                format!("{t}*")
            } else {
                t.to_string()
            }
        }
        None => instr.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_figure_and_invariants_hold() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("REPRODUCED"));
        assert!(out.contains("LD*"));
        assert!(out.contains("ST*"));
        assert!(out.contains("gamma"));
    }
}
