//! Cross-crate integration: the full pipeline (program → settle → shift →
//! survival) reproduces the paper's Theorem 6.2 constants, and the abstract
//! and operational routes agree where they should.

use mmreliab::montecarlo::default_threads;
use mmreliab::{MemoryModel, ModelComparison, ReliabilityModel};

const TRIALS: u64 = if cfg!(debug_assertions) {
    40_000
} else {
    250_000
};

#[test]
fn theorem_62_headline_constants_reproduce() {
    let cmp = ModelComparison::run_with(2, TRIALS, 2, default_threads());
    for row in cmp.rows() {
        assert!(
            row.consistent(0.999),
            "{}: measured {} vs paper bounds {:?}",
            row.model,
            row.estimate,
            row.bounds
        );
    }
    // The point estimates land near the paper's numbers.
    let p = |m| cmp.row(m).unwrap().estimate.point();
    assert!((p(MemoryModel::Sc) - 1.0 / 6.0).abs() < 0.01);
    assert!((p(MemoryModel::Wo) - 7.0 / 54.0).abs() < 0.01);
    assert!(p(MemoryModel::Tso) > 0.1315 - 0.01 && p(MemoryModel::Tso) < 0.1369 + 0.01);
}

#[test]
fn direct_and_rao_blackwell_estimators_agree() {
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, 3);
        let direct = rm.simulate_survival_with(TRIALS, 2, default_threads());
        let rb = rm.estimate_survival_rb_with(TRIALS, 3, default_threads());
        let (lo, hi) = direct.wilson_ci(0.999);
        assert!(
            rb.survival() >= lo - 5e-4 && rb.survival() <= hi + 5e-4,
            "{model}: RB {} outside direct CI [{lo}, {hi}]",
            rb.survival()
        );
    }
}

#[test]
fn abstract_and_operational_sc_agree() {
    // The operational machine's SC bug rate equals the abstract 5/6 within
    // Monte-Carlo noise — the two substrates model the same process.
    use execsim::{IncrementMachine, SimParams};
    use montecarlo::{BernoulliEstimate, Runner, Seed};
    let params = SimParams::for_model(MemoryModel::Sc);
    let est = Runner::new(Seed(4))
        .run::<BernoulliEstimate, _>(
            TRIALS / 4,
            move || IncrementMachine::new(2, 8, params),
            |machine, rng| {
                machine
                    .run(rng)
                    .expect("the increment workload quiesces")
                    .bug_manifested()
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert!(
        (est.point() - 5.0 / 6.0).abs() < 0.02,
        "operational SC bug rate {} far from 5/6",
        est.point()
    );
}

#[test]
fn fenced_settling_restores_sc_survival_under_wo() {
    use montecarlo::{BernoulliEstimate, Runner, Seed};
    use progmodel::ProgramGenerator;
    use settle::Settler;
    use shiftproc::ShiftProcess;

    let settler = Settler::for_model(MemoryModel::Wo);
    let gen = ProgramGenerator::new(32);
    let est = Runner::new(Seed(5))
        .run::<BernoulliEstimate, _>(
            TRIALS / 2,
            || (),
            move |_, rng| {
                let program = gen.generate(rng).with_acquire_before_critical();
                let windows: Vec<u64> = (0..2)
                    .map(|_| settler.settle(&program, rng).window_len())
                    .collect();
                ShiftProcess::canonical().simulate_disjoint(&windows, rng)
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    // With the window pinned to 2, survival is exactly the SC constant 1/6.
    assert!(est.covers(1.0 / 6.0, 0.999), "fenced WO survival {est}");
}

#[test]
fn facade_reexports_cover_the_pipeline() {
    // Compile-time shape check of the public API plus a tiny smoke run.
    use mmreliab::{Program, ProgramGenerator, Settler, ShiftProcess};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut rng = SmallRng::seed_from_u64(6);
    let program: Program = ProgramGenerator::new(8).generate(&mut rng);
    let settled = Settler::for_model(MemoryModel::Tso).settle(&program, &mut rng);
    let windows = vec![settled.window_len(), settled.window_len()];
    let _ = ShiftProcess::canonical().simulate_disjoint(&windows, &mut rng);
    let table = mmreliab::memmodel::render_table1();
    assert!(table.contains("Weak Ordering"));
}
