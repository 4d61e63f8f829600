//! EXP-OPSIM: operational multiprocessor ground truth for the §2.2 bug.

use crate::{verdict, Ctx};
use execsim::{IncrementMachine, SimParams};
use memmodel::MemoryModel;
use montecarlo::{BernoulliEstimate, Runner, Seed};
use std::fmt::Write as _;
use textplot::Table;

const FILLER: usize = 8;

fn bug_rate(ctx: &Ctx, model: MemoryModel, n: usize, salt: u64) -> BernoulliEstimate {
    let params = SimParams::for_model(model);
    let report = Runner::new(Seed(ctx.seed.wrapping_add(salt)))
        .with_threads(ctx.threads)
        .run::<BernoulliEstimate, _>(
            ctx.trials / 4,
            move || IncrementMachine::new(n, FILLER, params),
            |machine, rng| {
                machine
                    .run(rng)
                    .expect("the increment workload quiesces")
                    .bug_manifested()
            },
            None,
        )
        .expect("panic-free simulation")
        .0;
    crate::diag::record_report(format!("opsim.n{n}.{}", model.short_name()), &report);
    report.value
}

/// Runs the canonical increment on the operational machine (store buffers,
/// OoO windows, geometric start stagger) and compares its bug rates with
/// the abstract model's predictions.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();

    let mut table = Table::new(vec!["n", "SC", "PSO", "TSO", "WO"]);
    let mut rates = std::collections::HashMap::new();
    for (ni, n) in [2usize, 3, 4].into_iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (mi, model) in [
            MemoryModel::Sc,
            MemoryModel::Pso,
            MemoryModel::Tso,
            MemoryModel::Wo,
        ]
        .into_iter()
        .enumerate()
        {
            let est = bug_rate(ctx, model, n, (ni * 10 + mi) as u64);
            row.push(format!("{:.4}", est.point()));
            rates.insert((n, model), est.point());
        }
        table.row(row);
    }
    let _ = writeln!(out, "operational bug-manifestation rate (x != n):\n");
    out.push_str(&table.render());

    // Shape checks mirroring the abstract model.
    let r = |n, m| rates[&(n, m)];
    let sc_safest = [MemoryModel::Tso, MemoryModel::Pso, MemoryModel::Wo]
        .iter()
        .all(|&m| r(2, MemoryModel::Sc) < r(2, m));
    let pso_le_tso = r(2, MemoryModel::Pso) <= r(2, MemoryModel::Tso) + 0.01;
    let sc_matches_thm62 = (r(2, MemoryModel::Sc) - 5.0 / 6.0).abs() < 0.02;
    let gap2 = r(2, MemoryModel::Wo) - r(2, MemoryModel::Sc);
    let gap4 = r(4, MemoryModel::Wo) - r(4, MemoryModel::Sc);
    let gap_shrinks = gap4 < gap2 && gap4 < 0.02;

    let _ = writeln!(
        out,
        "\nSC is strictly safest at n = 2: {}",
        verdict(sc_safest)
    );
    let _ = writeln!(
        out,
        "PSO <= TSO (critical store jumps the drain queue): {}",
        verdict(pso_le_tso)
    );
    let _ = writeln!(
        out,
        "SC operational rate {:.4} matches Theorem 6.2's 5/6 = {:.4}: {}",
        r(2, MemoryModel::Sc),
        5.0 / 6.0,
        verdict(sc_matches_thm62)
    );
    let _ = writeln!(
        out,
        "SC-vs-WO gap shrinks with n ({:.4} -> {:.4}): {}",
        gap2,
        gap4,
        verdict(gap_shrinks)
    );
    let _ = writeln!(
        out,
        "\nnote: TSO-vs-WO ordering is parameter-dependent operationally — the drain\n\
         latency and the issue-window size widen the racy window by different\n\
         amounts; the abstract model fixes both knobs to the same s = 1/2."
    );

    let ok = sc_safest && pso_le_tso && sc_matches_thm62 && gap_shrinks;
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_operational_shape() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
