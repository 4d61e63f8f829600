//! Statistical validation of the settling process against the paper's
//! closed-form laws (Theorem 4.1, Claim 4.3, Lemma 4.2).
//!
//! These tests run moderate Monte-Carlo sample sizes and use chi-square
//! goodness-of-fit / Wilson intervals at conservative significance levels,
//! so spurious failures are vanishingly unlikely (and deterministic anyway:
//! all seeds are fixed).

use analytic::lemma42;
use analytic::recurrence;
use analytic::window_law::{self, TsoLaw, WindowLaws};
use memmodel::MemoryModel;
use montecarlo::{chi_square_gof, BernoulliEstimate, Histogram, Runner, Seed};
use progmodel::ProgramGenerator;
use settle::{events, Settler};

const M: usize = 64; // filler length; truncation error ~2^-M

/// Debug builds run ~20x slower; use a smaller (still ample) sample size so
/// `cargo test --workspace` stays quick. Release/bench runs use the full
/// count.
const N_SAMPLES: u64 = if cfg!(debug_assertions) {
    30_000
} else {
    200_000
};

fn window_histogram(model: MemoryModel, seed: u64) -> montecarlo::Histogram {
    let settler = Settler::for_model(model);
    let gen = ProgramGenerator::new(M);
    Runner::new(Seed(seed))
        .run::<Histogram, _>(
            N_SAMPLES,
            || (),
            move |_, rng| {
                let program = gen.generate(rng);
                settler.sample_gamma(&program, rng)
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value
}

#[test]
fn sc_window_never_grows() {
    let h = window_histogram(MemoryModel::Sc, 101);
    assert_eq!(h.count(0), h.total());
}

#[test]
fn wo_window_matches_theorem_41() {
    let h = window_histogram(MemoryModel::Wo, 102);
    let gof = chi_square_gof(&h, window_law::wo_pmf, 5.0);
    assert!(
        gof.consistent_at(0.001),
        "WO window law rejected: χ²={} dof={} p={}",
        gof.statistic,
        gof.dof,
        gof.p_value
    );
}

#[test]
fn tso_window_matches_partition_series() {
    let h = window_histogram(MemoryModel::Tso, 103);
    let law = TsoLaw::new();
    let gof = chi_square_gof(&h, |g| law.pmf(g), 5.0);
    assert!(
        gof.consistent_at(0.001),
        "TSO window law rejected: χ²={} dof={} p={}",
        gof.statistic,
        gof.dof,
        gof.p_value
    );
}

#[test]
fn tso_window_within_paper_bounds() {
    let h = window_histogram(MemoryModel::Tso, 104);
    for gamma in 0..6u64 {
        let (lo, hi) = window_law::tso_pmf_bounds(gamma);
        let est = montecarlo::BernoulliEstimate::from_counts(h.count(gamma), h.total());
        let (ci_lo, ci_hi) = est.wilson_ci(0.999);
        assert!(
            ci_hi >= lo && ci_lo <= hi,
            "γ={gamma}: CI [{ci_lo}, {ci_hi}] misses bounds [{lo}, {hi}]"
        );
    }
}

#[test]
fn pso_window_matches_climbback_series() {
    let h = window_histogram(MemoryModel::Pso, 105);
    let laws = WindowLaws::new();
    let gof = chi_square_gof(&h, |g| laws.pmf(MemoryModel::Pso, g).unwrap(), 5.0);
    assert!(
        gof.consistent_at(0.001),
        "PSO window law rejected: χ²={} dof={} p={}",
        gof.statistic,
        gof.dof,
        gof.p_value
    );
}

#[test]
fn claim_43_bottom_store_fraction() {
    // Pr[S_{ST,i}(i)] → 2/3 under TSO; check at i = M (steady state).
    let settler = Settler::for_model(MemoryModel::Tso);
    let gen = ProgramGenerator::new(M);
    let est = Runner::new(Seed(106))
        .run::<BernoulliEstimate, _>(
            N_SAMPLES,
            || (),
            move |_, rng| {
                let program = gen.generate(rng);
                events::observe_bottom_store(&settler, &program, M, rng)
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert!(
        est.covers(2.0 / 3.0, 0.999),
        "Claim 4.3 limit not covered: {est}"
    );
}

#[test]
fn claim_43_finite_i_recurrence() {
    // At small i the exact finite recurrence applies, not just the limit.
    let settler = Settler::for_model(MemoryModel::Tso);
    for i in [1usize, 2, 3, 5] {
        let gen = ProgramGenerator::new(8);
        let est = Runner::new(Seed(200 + i as u64))
            .run::<BernoulliEstimate, _>(
                N_SAMPLES / 2,
                || (),
                move |_, rng| {
                    let program = gen.generate(rng);
                    events::observe_bottom_store(&settler, &program, i, rng)
                },
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        let expected = recurrence::bottom_store_fraction(0.5, 0.5, i as u64);
        assert!(
            est.covers(expected, 0.999),
            "i={i}: expected {expected}, got {est}"
        );
    }
}

#[test]
fn lemma_42_l_mu_distribution() {
    let settler = Settler::for_model(MemoryModel::Tso);
    let gen = ProgramGenerator::new(M);
    let h = Runner::new(Seed(107))
        .run::<Histogram, _>(
            N_SAMPLES,
            || (),
            move |_, rng| {
                let program = gen.generate(rng);
                events::observe_l_mu(&settler, &program, rng)
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    // Chi-square against the partition series.
    let l = lemma42::pr_l_mu_series_all(96, lemma42::DEFAULT_Q_MAX);
    let gof = chi_square_gof(&h, |mu| l.get(mu as usize).copied().unwrap_or(0.0), 5.0);
    assert!(
        gof.consistent_at(0.001),
        "Pr[L_µ] series rejected: χ²={} dof={} p={}",
        gof.statistic,
        gof.dof,
        gof.p_value
    );
    // And the paper's lower bound holds empirically.
    for mu in 0..8u64 {
        let est = montecarlo::BernoulliEstimate::from_counts(h.count(mu), h.total());
        let (_, ci_hi) = est.wilson_ci(0.999);
        assert!(
            ci_hi >= lemma42::pr_l_mu_lower_bound(mu as u32),
            "Lemma 4.2 bound violated at µ={mu}"
        );
    }
}

#[test]
fn window_law_is_insensitive_to_m_truncation() {
    // DESIGN.md ablation: the finite-m truncation error decays geometrically.
    let settler = Settler::for_model(MemoryModel::Wo);
    let mut prev_gap = f64::INFINITY;
    for m in [8usize, 16, 32] {
        let gen = ProgramGenerator::new(m);
        let h = Runner::new(Seed(108))
            .run::<Histogram, _>(
                N_SAMPLES,
                || (),
                move |_, rng| {
                    let program = gen.generate(rng);
                    settler.sample_gamma(&program, rng)
                },
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        // Compare tail mass beyond γ = 4 with the exact law.
        let exact_tail: f64 = (5..200).map(window_law::wo_pmf).sum();
        let gap = (h.tail(5) - exact_tail).abs();
        assert!(gap <= prev_gap + 0.01, "m={m}: truncation gap grew");
        prev_gap = gap;
    }
}

#[test]
fn custom_model_ld_st_only_never_grows_the_window() {
    // A custom model relaxing only LD/ST (stores may pass earlier loads)
    // cannot grow the window: the critical LD is not allowed to move, the
    // critical ST is blocked by the critical LD directly above it, and the
    // critical ST settles last so nothing can be inserted between them.
    use memmodel::ReorderMatrix;
    let settler = Settler::new(
        ReorderMatrix::new(false, false, true, false),
        memmodel::SettleProbs::canonical(),
    );
    let gen = ProgramGenerator::new(16);
    let est = Runner::new(Seed(109))
        .run::<BernoulliEstimate, _>(
            20_000,
            || (),
            move |_, rng| {
                let program = gen.generate(rng);
                settler.sample_gamma(&program, rng) == 0
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert_eq!(est.point(), 1.0);
}

#[test]
fn gamma_route_matches_exact_enumeration_at_small_m() {
    // The lazy γ kernel behind `sample_gamma` against the exhaustive
    // settling law of each fixed program (`settle::exact`), over named and
    // custom matrices, off-canonical probabilities, and fences. One
    // chi-square test per case; the family-wise false-alarm budget of
    // 1e-3 is split evenly across the cases (Bonferroni).
    use memmodel::fence::FenceKind;
    use memmodel::OpType::{Ld, St};
    use memmodel::{ReorderMatrix, SettleProbs};
    use progmodel::Program;
    use settle::exact;

    const FAMILY_ALPHA: f64 = 1e-3;
    let canonical = |model: MemoryModel| Settler::for_model(model);
    let custom = Settler::new(
        ReorderMatrix::new(true, false, true, true),
        SettleProbs::per_pair(0.7, 0.3, 0.9, 0.4).expect("valid"),
    )
    .with_fence_pass_probability(0.6)
    .expect("valid");
    let high = Settler::new(
        MemoryModel::Wo.matrix(),
        SettleProbs::uniform(0.9).expect("valid"),
    );
    let short = Program::from_filler_types(&[St, Ld, St]).expect("valid");
    let mixed = Program::from_filler_types(&[St, Ld, St, St, Ld]).expect("valid");
    let stores = Program::from_filler_types(&[St, St, Ld, St, St]).expect("valid");
    let fenced = Program::from_filler_types(&[St, Ld, St, Ld])
        .expect("valid")
        .with_fence_at(2, FenceKind::Release);
    let cases = [
        (canonical(MemoryModel::Tso), mixed.clone()),
        (canonical(MemoryModel::Pso), mixed.clone()),
        (canonical(MemoryModel::Wo), mixed.clone()),
        (canonical(MemoryModel::Wo), short.clone()),
        (canonical(MemoryModel::Pso), stores.clone()),
        (canonical(MemoryModel::Wo), fenced.clone()),
        (custom, mixed),
        (custom, fenced),
        (high, stores),
        (high, short),
    ];
    let alpha = FAMILY_ALPHA / cases.len() as f64;
    for (i, (settler, program)) in cases.into_iter().enumerate() {
        let pmf = exact::window_pmf_for_program(&settler, &program);
        let prog = program.clone();
        let h = Runner::new(Seed(200 + i as u64))
            .run::<Histogram, _>(
                N_SAMPLES,
                || (),
                move |_, rng| settler.sample_gamma(&prog, rng),
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        let gof = chi_square_gof(&h, |g| pmf.get(g as usize).copied().unwrap_or(0.0), 5.0);
        assert!(
            gof.consistent_at(alpha),
            "case {i} ({settler:?} on {program:?}): χ²={} dof={} p={}",
            gof.statistic,
            gof.dof,
            gof.p_value
        );
    }
}
