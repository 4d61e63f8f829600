//! Statistical validation of Theorem 5.1: Monte-Carlo disjointness
//! frequencies must match the exact permutation-sum probabilities.

use montecarlo::{BernoulliEstimate, Runner, Seed};
use shiftproc::{exact, ShiftProcess};

// Debug builds still need enough trials for the 99.9% CI check to have
// power on the rarest events tested here (Pr ~ 1e-6): at 40k trials a
// single lucky hit puts the Wilson interval entirely above the exact
// value, and typical-seed noise sits within one interval width of it.
const TRIALS: u64 = if cfg!(debug_assertions) {
    200_000
} else {
    300_000
};

fn check(lengths: &'static [u64], seed: u64) {
    let expect = exact::pr_disjoint(lengths);
    let proc = ShiftProcess::canonical();
    let est = Runner::new(Seed(seed))
        .run::<BernoulliEstimate, _>(
            TRIALS,
            || (),
            move |_, rng| proc.simulate_disjoint(lengths, rng),
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert!(
        est.covers(expect, 0.999),
        "γ̄={lengths:?}: exact {expect}, observed {est}"
    );
}

#[test]
fn theorem_51_two_segments() {
    check(&[2, 2], 301);
    check(&[2, 5], 302);
    check(&[0, 0], 303);
}

#[test]
fn theorem_51_three_segments() {
    check(&[2, 2, 2], 304);
    check(&[1, 3, 5], 305);
}

#[test]
fn theorem_51_four_to_six_segments() {
    check(&[2, 2, 2, 2], 306);
    check(&[0, 1, 2, 3, 4], 307);
    check(&[1, 1, 1, 1, 1, 1], 308);
}

#[test]
fn heterogeneous_vs_homogeneous_at_equal_total_length() {
    // With total length fixed, spreading length unevenly helps: the short
    // segments are easy to tuck into gaps. Verify the exact ordering and
    // that MC agrees on the direction.
    let hetero = exact::pr_disjoint(&[0, 4]);
    let homo = exact::pr_disjoint(&[2, 2]);
    assert!(hetero > homo);
    let proc = ShiftProcess::canonical();
    let h = Runner::new(Seed(309))
        .run::<BernoulliEstimate, _>(
            TRIALS,
            || (),
            move |_, rng| proc.simulate_disjoint(&[0, 4], rng),
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    let m = Runner::new(Seed(310))
        .run::<BernoulliEstimate, _>(
            TRIALS,
            || (),
            move |_, rng| proc.simulate_disjoint(&[2, 2], rng),
            None,
        )
        .expect("panic-free simulation")
        .0
        .value;
    assert!(h.point() > m.point());
}

#[test]
fn general_q_formula_matches_simulation() {
    for q in [0.25f64, 0.7] {
        let lengths: &[u64] = &[2, 3, 2];
        let expect = exact::pr_disjoint_with_q(lengths, q);
        let proc = ShiftProcess::with_q(q).expect("valid q");
        let est = Runner::new(Seed(900 + (q * 100.0) as u64))
            .run::<BernoulliEstimate, _>(
                TRIALS,
                || (),
                move |_, rng| proc.simulate_disjoint(lengths, rng),
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        assert!(
            est.covers(expect, 0.999),
            "q={q}: exact {expect}, observed {est}"
        );
    }
}
