//! EXP-T1: Table 1 — the memory-model relaxation matrix.

use crate::{verdict, Ctx};
use memmodel::OpType::{Ld, St};
use memmodel::{render_table1, MemoryModel};
use std::fmt::Write as _;

/// Renders Table 1 from the implemented models and checks every cell
/// against the paper's row definitions.
pub fn run(_ctx: &Ctx) -> String {
    let mut out = String::new();
    out.push_str("Paper Table 1 (X = ordering restriction relaxed):\n\n");
    out.push_str(&render_table1());

    // The paper's rows, column order ST/ST, ST/LD, LD/ST, LD/LD.
    let expected = [
        (MemoryModel::Sc, [false, false, false, false]),
        (MemoryModel::Tso, [false, true, false, false]),
        (MemoryModel::Pso, [true, true, false, false]),
        (MemoryModel::Wo, [true, true, true, true]),
    ];
    let mut ok = true;
    for (model, cells) in expected {
        let m = model.matrix();
        let got = [
            m.allows(St, St),
            m.allows(St, Ld),
            m.allows(Ld, St),
            m.allows(Ld, Ld),
        ];
        if got != cells {
            ok = false;
            let _ = writeln!(out, "  cell mismatch for {model}: {got:?} vs {cells:?}");
        }
    }
    let _ = writeln!(out, "\nall 16 cells match the paper: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_all_cells() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("REPRODUCED"));
        assert!(!out.contains("MISMATCH"));
    }
}
