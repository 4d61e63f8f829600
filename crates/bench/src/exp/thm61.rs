//! EXP-THM61: Theorem 6.1 — the exchangeability reduction.

use crate::{verdict, Ctx};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::{Runner, Seed};
use shiftproc::{exact, exchangeable};
use std::fmt::Write as _;

/// Validates that for exchangeable window vectors, averaging the full exact
/// `Pr[A(Γ̄)]` equals the `n!·E[Π 2^{-iΓᵢ}]` single-term estimator — on both
/// synthetic iid lengths and real TSO window vectors (which are dependent
/// through the shared program, exactly the case the theorem covers).
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let mut ok = true;

    for (label, model) in [
        ("TSO windows", MemoryModel::Tso),
        ("WO windows", MemoryModel::Wo),
    ] {
        for n in [2usize, 3, 4] {
            let rm = ReliabilityModel::new(model, n);
            // Mean of exact conditional probabilities.
            let exact_mean = Runner::new(Seed(ctx.seed ^ (n as u64) << 3))
                .with_threads(ctx.threads)
                .mean_scratch(
                    ctx.trials / 2,
                    move || rm.scratch(),
                    move |scratch, rng| {
                        let w = rm.sample_windows_scratch(scratch, rng);
                        exact::pr_disjoint(w)
                    },
                );
            // Exchangeable estimator from the same distribution.
            let est = rm.estimate_survival_rb_with(ctx.trials / 2, ctx.seed ^ 0x61, ctx.threads);
            let rel = (est.survival() - exact_mean.mean()).abs() / exact_mean.mean();
            let pass = rel < 0.08;
            ok &= pass;
            let _ = writeln!(
                out,
                "{label} n={n}: E[exact Pr[A(G)]] = {:.6}, Thm 6.1 estimator = {:.6} (rel err {:.4}) -> {}",
                exact_mean.mean(),
                est.survival(),
                rel,
                verdict(pass)
            );
        }
    }

    // Position-invariance: the single-term factor must be exchangeable —
    // permuting a window vector changes the factor but not its expectation.
    let rm = ReliabilityModel::new(MemoryModel::Tso, 3);
    let forward_report = Runner::new(Seed(ctx.seed ^ 0x611))
        .with_threads(ctx.threads)
        .try_mean_scratch(
            ctx.trials / 2,
            move || rm.scratch(),
            move |scratch, rng| {
                let w = rm.sample_windows_scratch(scratch, rng);
                exchangeable::sample_factor(w, 2)
            },
        )
        .expect("panic-free simulation");
    crate::diag::record_report("thm61.factor_forward", &forward_report);
    let forward = forward_report.value;
    let reversed_report = Runner::new(Seed(ctx.seed ^ 0x612))
        .with_threads(ctx.threads)
        .try_mean_scratch(
            ctx.trials / 2,
            move || (rm.scratch(), Vec::new()),
            move |(scratch, buf), rng| {
                let w = rm.sample_windows_scratch(scratch, rng);
                buf.clear();
                buf.extend_from_slice(w);
                buf.reverse();
                exchangeable::sample_factor(buf, 2)
            },
        )
        .expect("panic-free simulation");
    crate::diag::record_report("thm61.factor_reversed", &reversed_report);
    let reversed = reversed_report.value;
    let rel = (forward.mean() - reversed.mean()).abs() / forward.mean();
    let sym_ok = rel < 0.05;
    ok &= sym_ok;
    let _ = writeln!(
        out,
        "\nexchangeability: E[factor] forward {:.6} vs reversed {:.6} (rel {:.4}) -> {}",
        forward.mean(),
        reversed.mean(),
        rel,
        verdict(sym_ok)
    );

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_theorem_61() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
