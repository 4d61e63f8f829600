//! EXP-FENCE: §7 — fences shrink windows and raise survival.

use crate::{verdict, Ctx};
use memmodel::fence::FenceKind;
use memmodel::{MemoryModel, OpType};
use mmr_core::{direct_trial, TrialScratch};
use montecarlo::{BernoulliEstimate, Histogram, Runner, Seed};
use progmodel::{Program, ProgramGenerator};
use settle::{ProgramShape, SettleScratch, Settler};
use shiftproc::ShiftProcess;
use std::fmt::Write as _;
use textplot::Table;

const M: usize = 48;

/// A program of `M` fillers with `fence` (if any) just before the critical
/// load — the keyed kernels settle fresh programs over its shape, matching
/// the per-trial `generate` + `with_fence_at` route draw for draw (fence
/// insertion consumes no randomness).
fn template(fence: Option<FenceKind>) -> Program {
    let program = Program::from_filler_types(&[OpType::Ld; M]).expect("canonical shape");
    match fence {
        Some(kind) => program.with_fence_at(program.critical_load_index(), kind),
        None => program,
    }
}

/// Settles fenced programs and measures end-to-end survival, checking the
/// paper's conjecture: "fences make concurrency bugs less likely to
/// manifest, as programs with fences have fewer legal reorderings" — and
/// that an acquire before the critical load restores the SC window exactly.
pub fn run(ctx: &Ctx) -> String {
    let mut out = String::new();
    let mut ok = true;

    let mut table = Table::new(vec!["model", "variant", "mean gamma", "survival (n=2)"]);
    for (mi, model) in [MemoryModel::Tso, MemoryModel::Wo].into_iter().enumerate() {
        let settler = Settler::for_model(model);
        for (vi, (variant, fence)) in [
            ("unfenced", None),
            ("acquire before critical LD", Some(FenceKind::Acquire)),
            ("full fence before critical LD", Some(FenceKind::Full)),
        ]
        .into_iter()
        .enumerate()
        {
            let gen = ProgramGenerator::new(M);
            let seed = ctx.seed.wrapping_add((mi * 10 + vi) as u64) ^ 0xFE;
            // Window distribution.
            let h = Runner::new(Seed(seed))
                .with_threads(ctx.threads)
                .run::<Histogram, _>(
                    ctx.trials / 2,
                    move || (ProgramShape::new(&template(fence)), SettleScratch::new()),
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
                    None,
                )
                .expect("panic-free simulation")
                .0
                .value;
            // End-to-end survival.
            let report = Runner::new(Seed(seed ^ 1))
                .with_threads(ctx.threads)
                .run::<BernoulliEstimate, _>(
                    ctx.trials / 2,
                    move || TrialScratch::new(&template(fence), 2),
                    move |scratch, rng| {
                        direct_trial(&settler, &gen, &ShiftProcess::canonical(), 2, scratch, rng)
                    },
                    None,
                )
                .expect("panic-free simulation")
                .0;
            crate::diag::record_report(format!("fence.{}.v{vi}", model.short_name()), &report);
            let est = report.value;
            if fence.is_some() {
                // Fenced windows must be pinned at gamma = 0 for these
                // placements (nothing can hoist past the barrier).
                ok &= h.count(0) == h.total();
            }
            table.row(vec![
                model.short_name().into(),
                variant.into(),
                format!("{:.4}", h.mean()),
                format!("{:.6}", est.point()),
            ]);
        }
    }
    out.push_str(&table.render());

    // Survival with the fence must reach the SC level (1/6).
    let sc = 1.0 / 6.0;
    let _ = writeln!(
        out,
        "\nfenced variants pin gamma to 0, i.e. the SC window: {}",
        verdict(ok)
    );
    let _ = writeln!(
        out,
        "(their survival column should therefore read ~{sc:.4}, the SC constant)"
    );

    // A release fence in the middle of the fillers does NOT protect the
    // critical window (operations may still hoist above it).
    let settler = Settler::for_model(MemoryModel::Wo);
    let gen = ProgramGenerator::new(M);
    let h = Runner::new(Seed(ctx.seed ^ 0xFEE))
        .with_threads(ctx.threads)
        .run::<Histogram, _>(
            ctx.trials / 2,
            move || {
                (
                    ProgramShape::new(&template(Some(FenceKind::Release))),
                    SettleScratch::new(),
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
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    let leaky = h.tail(1) > 0.0;
    ok &= leaky;
    let _ = writeln!(
        out,
        "a *release* fence there still leaks (one-way barrier, hoisting allowed): {}",
        verdict(leaky)
    );

    let _ = writeln!(out, "\noverall: {}", verdict(ok));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_fence_conjecture() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("overall: REPRODUCED"), "{out}");
    }
}
