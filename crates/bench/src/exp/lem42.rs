//! EXP-LEM42: Lemma 4.2 — `Pr[L_µ]` bounds and the partition series.

use crate::{verdict, Ctx};
use analytic::lemma42;
use memmodel::MemoryModel;
use montecarlo::{chi_square_gof, Histogram, Runner, Seed};
use progmodel::ProgramGenerator;
use settle::{events, Settler};
use std::fmt::Write as _;
use textplot::Table;

/// Measures the `L_µ` distribution under TSO against (a) the paper's lower
/// bound `(4/7)·2^-µ` (µ ≥ 1) and `Pr[L_0] = 1/3`, and (b) the exact
/// partition series, plus the `h(µ)` bookkeeping of the proof.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let settler = Settler::for_model(MemoryModel::Tso);
    let gen = ProgramGenerator::new(64);
    let h = Runner::new(Seed(ctx.seed ^ 0x42))
        .with_threads(ctx.threads)
        .run::<Histogram, _>(
            ctx.trials,
            || super::keyed_scratch(64),
            move |(shape, scratch), rng| {
                let key = gen.draw_key(rng);
                events::l_mu_keyed(&settler, shape, key, gen.store_threshold(), scratch, rng)
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;

    let series = lemma42::pr_l_mu_series_all(96, lemma42::DEFAULT_Q_MAX);
    let mut table = Table::new(vec!["mu", "paper lower bound", "series", "measured"]);
    let mut bound_ok = true;
    for mu in 0..=8u64 {
        let lower = lemma42::pr_l_mu_lower_bound(mu as u32);
        let s = series[mu as usize];
        let measured = h.pmf(mu);
        // The measured value (up to MC noise) must respect the bound.
        let est = montecarlo::BernoulliEstimate::from_counts(h.count(mu), h.total());
        bound_ok &= est.wilson_ci(0.999).1 >= lower;
        table.row(vec![
            mu.to_string(),
            format!("{lower:.6}"),
            format!("{s:.6}"),
            format!("{measured:.6}"),
        ]);
    }
    out.push_str(&table.render());

    let gof = chi_square_gof(
        &h,
        |mu| series.get(mu as usize).copied().unwrap_or(0.0),
        5.0,
    );
    let gof_ok = gof.consistent_at(0.001);
    let _ = writeln!(
        out,
        "\npartition series chi-square = {:.2} (dof {}), p = {:.4} -> {}",
        gof.statistic,
        gof.dof,
        gof.p_value,
        verdict(gof_ok)
    );

    // Proof bookkeeping: h(1) = 4/7, h increasing, remainder R = 2/21.
    let h1 = lemma42::h_exact(1);
    let h_ok = h1 == analytic::BigRational::ratio(4, 7)
        && (1..30).all(|mu| lemma42::h(mu + 1) > lemma42::h(mu))
        && lemma42::remainder_r() == analytic::BigRational::ratio(2, 21);
    let _ = writeln!(
        out,
        "h(1) = {h1} (paper 4/7), h increasing, R = {} (paper 2/21): {}",
        lemma42::remainder_r(),
        verdict(h_ok)
    );

    // Claim 4.4 check: exact Pr[F | Psi = q] dominates the paper's bound.
    let mut f_ok = true;
    for mu in 1..=10u32 {
        for q in 0..=10u32 {
            f_ok &= lemma42::pr_f_given_psi(mu, q)
                >= lemma42::pr_f_given_psi_lower_bound(mu, q) - 1e-12;
        }
    }
    let _ = writeln!(
        out,
        "Claim 4.4 partition bound holds on mu,q <= 10: {}",
        verdict(f_ok)
    );

    let ok = bound_ok && gof_ok && h_ok && f_ok;
    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_lemma_42() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
