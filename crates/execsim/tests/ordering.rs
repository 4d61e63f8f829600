//! EXP-OPSIM ground truth: the operational simulator's bug-manifestation
//! rates must order across memory models the same way the abstract model's
//! survival probabilities do: SC safest, then PSO, then TSO, then WO.
//!
//! (PSO sits *above* TSO here for the same reason its analytic window law
//! is tighter: the critical store can jump the store-buffer queue and become
//! visible sooner, shrinking the racy window.)

use execsim::{increment_workload_fenced, run_increment_trial, Machine, SimParams};
use memmodel::fence::FenceKind;
use memmodel::MemoryModel;
use montecarlo::{BernoulliEstimate, Runner, Seed};

const TRIALS: u64 = if cfg!(debug_assertions) {
    6_000
} else {
    40_000
};
const FILLER: usize = 8;

fn bug_rate(model: MemoryModel, n: usize, seed: u64) -> montecarlo::BernoulliEstimate {
    let params = SimParams::for_model(model);
    Runner::new(Seed(seed))
        .run::<BernoulliEstimate, _>(
            TRIALS,
            || (),
            move |_, rng| run_increment_trial(n, FILLER, params, rng),
            None,
        )
        .expect("panic-free simulation")
        .0
        .value
}

#[test]
fn two_thread_bug_rates_order_by_model_strictness() {
    let sc = bug_rate(MemoryModel::Sc, 2, 400);
    let pso = bug_rate(MemoryModel::Pso, 2, 401);
    let tso = bug_rate(MemoryModel::Tso, 2, 402);
    let wo = bug_rate(MemoryModel::Wo, 2, 403);
    // SC is strictly safest; every relaxed model manifests the bug more
    // often. (TSO-vs-WO ordering is parameter-dependent operationally: the
    // store-buffer drain latency and the issue-window size widen the racy
    // window by different amounts, so only the SC gap and the PSO <= TSO
    // relation are mechanism-guaranteed.)
    for (name, relaxed) in [("TSO", &tso), ("PSO", &pso), ("WO", &wo)] {
        assert!(
            sc.point() < relaxed.point(),
            "SC {} !< {name} {}",
            sc.point(),
            relaxed.point()
        );
    }
    // PSO lets the critical store jump the drain queue, shrinking its
    // visibility window relative to TSO.
    assert!(
        pso.point() <= tso.point() + 0.01,
        "PSO {} !<= TSO {}",
        pso.point(),
        tso.point()
    );
    // The abstract model's SC prediction (Theorem 6.2: bug rate 5/6) is
    // reproduced almost exactly by the operational machine.
    assert!(
        (sc.point() - 5.0 / 6.0).abs() < 0.02,
        "SC operational rate {} far from 5/6",
        sc.point()
    );
}

#[test]
fn bug_rate_rises_with_thread_count_in_every_model() {
    for model in MemoryModel::NAMED {
        let two = bug_rate(model, 2, 410);
        let four = bug_rate(model, 4, 411);
        assert!(
            four.point() > two.point(),
            "{model}: 4-thread rate {} not above 2-thread rate {}",
            four.point(),
            two.point()
        );
    }
}

#[test]
fn model_gap_shrinks_as_threads_grow() {
    // The paper's headline: the SC-vs-WO reliability gap becomes
    // insignificant as n grows. Survival probabilities collapse like
    // e^{-n^2}, so by n = 3..4 every model is at bug rate ~1 and the
    // absolute gap between the strictest and weakest model vanishes.
    let gap = |n: usize, s1: u64, s2: u64| {
        bug_rate(MemoryModel::Wo, n, s1).point() - bug_rate(MemoryModel::Sc, n, s2).point()
    };
    let gap2 = gap(2, 420, 421);
    let gap3 = gap(3, 422, 423);
    let gap4 = gap(4, 424, 425);
    assert!(gap3 < gap2, "gap did not shrink: n=2 {gap2}, n=3 {gap3}");
    assert!(
        gap4 <= gap3 + 1e-3,
        "gap did not shrink: n=3 {gap3}, n=4 {gap4}"
    );
    assert!(gap4 < 0.01, "gap at n=4 still large: {gap4}");
}

#[test]
fn full_fence_restores_reliability_under_weak_models() {
    // §7: fences make the bug less likely. A full fence before the critical
    // load under WO should cut the bug rate at least near the SC level.
    let unfenced = bug_rate(MemoryModel::Wo, 2, 430);
    let params = SimParams::for_model(MemoryModel::Wo);
    let fenced = Runner::new(Seed(431))
        .run::<BernoulliEstimate, _>(
            TRIALS,
            || (),
            move |_, rng| {
                let programs = increment_workload_fenced(2, FILLER, FenceKind::Full, rng);
                let mut machine = Machine::new(programs, params, rng);
                machine.run(rng).expect("quiesces").bug_manifested()
            },
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert!(
        fenced.point() < unfenced.point(),
        "fence did not reduce bug rate: {} vs {}",
        fenced.point(),
        unfenced.point()
    );
}
