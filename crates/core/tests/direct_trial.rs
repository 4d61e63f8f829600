//! The lazy direct trial against the eager route it replaced.
//!
//! `direct_trial` draws the settle keys first and settles a window only
//! when the shift test reads it. The eager route settles every window
//! (`sample_gammas_keyed`), adds 2, and runs the shift test on the known
//! lengths (`simulate_disjoint_into`). For one RNG state both must give
//! the same outcome and leave the RNG in the same state. Since
//! `simulate_disjoint_into` shares its code with the lazy shift test, the
//! outcome is also checked against segment placement with
//! `Segment::overlaps`.

use memmodel::fence::FenceKind;
use memmodel::{MemoryModel, OpType, ReorderMatrix, SettleProbs};
use mmr_core::{direct_trial, TrialScratch};
use progmodel::{Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use settle::{ProgramShape, SettleScratch, Settler};
use shiftproc::{Segment, ShiftProcess, ShiftScratch};

/// A probability biased toward the edge cases 0, 1 and ½.
fn probability(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..5) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        _ => rng.gen(),
    }
}

/// A settler over a named or random custom matrix, with canonical or
/// random per-pair probabilities and a fence-pass probability in
/// {0, ½, 1}.
fn settler(rng: &mut SmallRng) -> Settler {
    let matrix = match rng.gen_range(0..6) {
        i @ 0..=3 => MemoryModel::NAMED[i].matrix(),
        _ => ReorderMatrix::new(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
    };
    let probs = if rng.gen_bool(0.3) {
        SettleProbs::canonical()
    } else {
        SettleProbs::per_pair(
            probability(rng),
            probability(rng),
            probability(rng),
            probability(rng),
        )
        .expect("valid probabilities")
    };
    Settler::new(matrix, probs)
        .with_fence_pass_probability([0.0, 0.5, 1.0][rng.gen_range(0..3)])
        .expect("valid fence probability")
}

/// A template of `m` fillers: unfenced, or with an acquire, full or
/// release fence before the critical load, or a release fence anywhere.
fn template(rng: &mut SmallRng, m: usize) -> Program {
    let program = Program::from_filler_types(&vec![OpType::Ld; m]).expect("valid program");
    let ld = program.critical_load_index();
    match rng.gen_range(0..5) {
        0 => program,
        1 => program.with_fence_at(ld, FenceKind::Acquire),
        2 => program.with_fence_at(ld, FenceKind::Full),
        3 => program.with_fence_at(ld, FenceKind::Release),
        _ => program.with_fence_at(rng.gen_range(0..=program.len()), FenceKind::Release),
    }
}

/// Places shifted segments of `lengths` one by one, stopping at the first
/// overlap.
fn placed_disjoint(proc: &ShiftProcess, lengths: &[u64], rng: &mut SmallRng) -> bool {
    let mut placed: Vec<Segment> = Vec::with_capacity(lengths.len());
    for &len in lengths {
        let seg = Segment::new(proc.sample_shift(rng), len);
        if placed.iter().any(|p| p.overlaps(&seg)) {
            return false;
        }
        placed.push(seg);
    }
    true
}

#[test]
fn lazy_direct_trial_is_the_eager_route() {
    // 10^4 templates × 10 (settler, p, q, n, RNG state) draws = 10^5 cases.
    let mut rng = SmallRng::seed_from_u64(0xd17e);
    let (mut settle, mut shift) = (SettleScratch::new(), ShiftScratch::new());
    let mut windows = [0u64; 8];
    let (mut cases, mut survived) = (0u64, 0u64);
    for _ in 0..10_000 {
        let m = if rng.gen_bool(0.2) {
            rng.gen_range(0..=64)
        } else {
            rng.gen_range(0..=16)
        };
        let program = template(&mut rng, m);
        let shape = ProgramShape::new(&program);
        let mut scratch = TrialScratch::new(&program, 8);
        for _ in 0..10 {
            let settler = settler(&mut rng);
            let gen = ProgramGenerator::new(m)
                .with_store_probability(probability(&mut rng))
                .expect("valid probability");
            let q = match rng.gen_range(0..4) {
                0 => 1.0,
                1 => 0.5,
                _ => 1.0 - rng.gen::<f64>(),
            };
            let proc = ShiftProcess::with_q(q).expect("q in (0, 1]");
            let n = rng.gen_range(1..=8);
            let mut eager_rng = SmallRng::seed_from_u64(rng.gen());
            let mut lazy_rng = eager_rng.clone();

            let key = gen.draw_key(&mut eager_rng);
            let lengths = &mut windows[..n];
            settler.sample_gammas_keyed(
                &shape,
                gen.store_threshold(),
                key,
                lengths,
                &mut settle,
                &mut eager_rng,
            );
            for w in lengths.iter_mut() {
                *w += 2;
            }
            let placed = placed_disjoint(&proc, lengths, &mut eager_rng.clone());
            let eager = proc.simulate_disjoint_into(lengths, &mut shift, &mut eager_rng);
            let lazy = direct_trial(&settler, &gen, &proc, n, &mut scratch, &mut lazy_rng);

            assert_eq!(eager, placed, "{proc} on {lengths:?}");
            assert_eq!(lazy, eager, "{settler:?} {gen} {proc} n={n} on {program:?}");
            assert_eq!(
                lazy_rng, eager_rng,
                "RNG end states differ: {settler:?} {gen} {proc} n={n} on {program:?}"
            );
            survived += u64::from(lazy);
            cases += 1;
        }
    }
    assert_eq!(cases, 100_000);
    // Both outcomes occur, so neither branch of the shift test is vacuous.
    assert!(
        survived > 0 && survived < cases,
        "{survived} of {cases} survived"
    );
}
