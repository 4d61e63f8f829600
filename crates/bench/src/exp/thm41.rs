//! EXP-THM41: Theorem 4.1 — the critical-window growth laws.

use crate::{verdict, Ctx};
use analytic::window_law::{self, WindowLaws};
use memmodel::{MemoryModel, OpType};
use montecarlo::{chi_square_gof, Histogram, Runner, Seed};
use progmodel::{Program, ProgramGenerator};
use settle::{ProgramShape, SettleScratch, Settler};
use std::fmt::Write as _;
use textplot::Table;

const M: usize = 64;

/// Seeded window histogram through the allocation-free keyed settle
/// kernel; draw-for-draw identical to the `generate` + `sample_gamma`
/// route.
fn gamma_histogram(
    settler: Settler,
    m: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Histogram {
    let gen = ProgramGenerator::new(m);
    Runner::new(Seed(seed))
        .with_threads(threads)
        .histogram_scratch(
            trials,
            move || {
                let program =
                    Program::from_filler_types(&vec![OpType::Ld; m]).expect("canonical shape");
                (
                    ProgramShape::new(&program),
                    SettleScratch::with_capacity(m + 2),
                )
            },
            move |(shape, scratch), rng| {
                let mut gamma = [0];
                let key = gen.draw_key(rng);
                settler.sample_gammas_keyed(
                    shape,
                    gen.store_threshold(),
                    key,
                    &mut gamma,
                    scratch,
                    rng,
                );
                gamma[0]
            },
        )
}

/// Per model: Monte-Carlo window histogram vs the closed-form / series law,
/// with a chi-square verdict, plus an `m`-truncation ablation.
pub fn run(ctx: &Ctx) -> String {
    let laws = WindowLaws::new();
    let mut out = String::new();
    let mut all_ok = true;

    let mut table = Table::new(vec!["model", "gamma", "paper Pr[B_gamma]", "measured", ""]);
    for (mi, model) in MemoryModel::NAMED.into_iter().enumerate() {
        let settler = Settler::for_model(model);
        let h = gamma_histogram(
            settler,
            M,
            ctx.trials,
            ctx.seed.wrapping_add(mi as u64),
            ctx.threads,
        );
        for gamma in 0..=4u64 {
            let paper = laws.pmf(model, gamma).expect("named model");
            let measured = h.pmf(gamma);
            table.row(vec![
                model.short_name().into(),
                gamma.to_string(),
                format!("{paper:.6}"),
                format!("{measured:.6}"),
                String::new(),
            ]);
        }
        if model == MemoryModel::Sc {
            // Point mass: chi-square is degenerate; check the support directly.
            let ok = h.count(0) == h.total();
            all_ok &= ok;
            let _ = writeln!(
                out,
                "SC : window never grew in {} runs -> {}",
                h.total(),
                verdict(ok)
            );
        } else {
            let gof = chi_square_gof(&h, |g| laws.pmf(model, g).expect("named model"), 5.0);
            let ok = gof.consistent_at(0.001);
            all_ok &= ok;
            let _ = writeln!(
                out,
                "{}: chi-square = {:.2} (dof {}), p = {:.4} -> {}",
                model.short_name(),
                gof.statistic,
                gof.dof,
                gof.p_value,
                verdict(ok)
            );
        }
    }
    out.push('\n');
    out.push_str(&table.render());

    // The paper's TSO bounds for a few gamma values.
    out.push_str("\nTSO bounds (Theorem 4.1): (6/7)4^-g <= Pr[B_g] <= (6/7)4^-g + (2/21)2^-g\n");
    let tso = laws.tso();
    let mut bounds_ok = true;
    for gamma in 1..=6u64 {
        let (lo, hi) = window_law::tso_pmf_bounds(gamma);
        let series = tso.pmf(gamma);
        bounds_ok &= series >= lo - 1e-10 && series <= hi + 1e-10;
        let _ = writeln!(
            out,
            "  gamma={gamma}: [{lo:.6}, {hi:.6}] series {series:.6}"
        );
    }
    all_ok &= bounds_ok;
    let _ = writeln!(out, "series within paper bounds: {}", verdict(bounds_ok));

    // Ablation: finite-m truncation (DESIGN.md decision 2).
    out.push_str("\nablation: WO tail mass Pr[gamma >= 5] vs filler length m\n");
    let exact_tail: f64 = (5..200).map(window_law::wo_pmf).sum();
    for m in [8usize, 16, 32, 64] {
        let settler = Settler::for_model(MemoryModel::Wo);
        let h = gamma_histogram(settler, m, ctx.trials / 4, ctx.seed ^ 0xAB, ctx.threads);
        let _ = writeln!(
            out,
            "  m={m:<3} tail {:.6} (exact m->inf: {exact_tail:.6})",
            h.tail(5)
        );
    }

    let _ = writeln!(out, "\noverall: {}", verdict(all_ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_window_laws() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
