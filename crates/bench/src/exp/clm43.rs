//! EXP-CLM43: Claim 4.3 — the steady-state bottom store fraction.

use crate::{verdict, Ctx};
use analytic::recurrence;
use memmodel::MemoryModel;
use montecarlo::{BernoulliEstimate, Runner, Seed};
use progmodel::ProgramGenerator;
use settle::{events, Settler};
use std::fmt::Write as _;
use textplot::Table;

/// Measures `Pr[S_{ST,i}(i)]` under TSO at increasing `i` against the exact
/// recurrence `X_i = 1/2 + X_{i-1}/4` and its `2/3` limit, plus the
/// generalised fixed point `p / (1 − (1−p)s)` at other parameters.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let settler = Settler::for_model(MemoryModel::Tso);
    let mut ok = true;

    let mut table = Table::new(vec!["i", "paper X_i", "measured", "covered"]);
    for (k, i) in [1usize, 2, 3, 4, 8, 16, 48].into_iter().enumerate() {
        let gen = ProgramGenerator::new(48);
        let report = Runner::new(Seed(ctx.seed.wrapping_add(k as u64)))
            .with_threads(ctx.threads)
            .run::<BernoulliEstimate, _>(
                ctx.trials,
                || super::keyed_scratch(48),
                move |(shape, scratch), rng| {
                    let key = gen.draw_key(rng);
                    events::bottom_store_keyed(
                        &settler,
                        shape,
                        key,
                        gen.store_threshold(),
                        i,
                        scratch,
                        rng,
                    )
                    .expect("i is within the program")
                },
                None,
            )
            .expect("panic-free simulation")
            .0;
        crate::diag::record_report(format!("clm43.i{i}"), &report);
        let est = report.value;
        let paper = recurrence::bottom_store_fraction(0.5, 0.5, i as u64);
        let covered = est.covers(paper, 0.999);
        ok &= covered;
        table.row(vec![
            i.to_string(),
            format!("{paper:.6}"),
            format!("{:.6}", est.point()),
            covered.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nlimit: 2/3 = {:.6} (exact rational {})",
        2.0 / 3.0,
        recurrence::bottom_store_fraction_limit_canonical()
    );

    // Generalised parameters (footnote 3 model).
    out.push_str("\ngeneralised fixed point p / (1 - (1-p)s):\n");
    for (p, s) in [(0.3f64, 0.5f64), (0.7, 0.5), (0.5, 0.8)] {
        let limit = recurrence::bottom_store_fraction_limit(p, s);
        let gen = ProgramGenerator::new(48)
            .with_store_probability(p)
            .expect("valid p");
        let settler_g = Settler::new(
            MemoryModel::Tso.matrix(),
            memmodel::SettleProbs::uniform(s).expect("valid s"),
        );
        let est = Runner::new(Seed(ctx.seed ^ ((p * 100.0) as u64) ^ ((s * 10.0) as u64)))
            .with_threads(ctx.threads)
            .run::<BernoulliEstimate, _>(
                ctx.trials / 2,
                || super::keyed_scratch(48),
                move |(shape, scratch), rng| {
                    let key = gen.draw_key(rng);
                    events::bottom_store_keyed(
                        &settler_g,
                        shape,
                        key,
                        gen.store_threshold(),
                        48,
                        scratch,
                        rng,
                    )
                    .expect("i is within the program")
                },
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        let covered = est.covers(limit, 0.999);
        ok &= covered;
        let _ = writeln!(
            out,
            "  p={p} s={s}: limit {limit:.6}, measured {:.6} -> {}",
            est.point(),
            verdict(covered)
        );
    }

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_claim_43() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
