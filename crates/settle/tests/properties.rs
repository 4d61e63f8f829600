//! Property-based invariants of the settling process over *arbitrary*
//! reorder matrices, probabilities, and programs.

use memmodel::fence::FenceKind;
use memmodel::{MemoryModel, OpType, ReorderMatrix, SettleProbs};
use progmodel::Program;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use settle::Settler;

fn arb_matrix() -> impl Strategy<Value = ReorderMatrix> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>())
        .prop_map(|(a, b, c, d)| ReorderMatrix::new(a, b, c, d))
}

fn arb_types(max: usize) -> impl Strategy<Value = Vec<OpType>> {
    proptest::collection::vec(prop_oneof![Just(OpType::Ld), Just(OpType::St)], 0..max)
}

fn arb_prob() -> impl Strategy<Value = f64> {
    (0u32..=10).prop_map(|i| f64::from(i) / 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The settled order is always a valid permutation, whatever the model.
    #[test]
    fn output_is_a_permutation(
        matrix in arb_matrix(),
        s in arb_prob(),
        types in arb_types(16),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(matrix, SettleProbs::uniform(s).unwrap());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        let perm = settled.permutation();
        prop_assert_eq!(perm.len(), program.len());
        for i in 0..program.len() {
            prop_assert_eq!(perm.at_position(perm.position_of(i)), i);
        }
    }

    /// The critical pair never reorders, under any matrix and probability.
    #[test]
    fn critical_pair_order_is_invariant(
        matrix in arb_matrix(),
        s in arb_prob(),
        types in arb_types(16),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(matrix, SettleProbs::uniform(s).unwrap());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        prop_assert!(
            settled.position_of(program.critical_load_index())
                < settled.position_of(program.critical_store_index())
        );
    }

    /// Settling respects the matrix: an inversion of two memory operations
    /// can only appear if the matrix relaxes that ordered pair, or some
    /// transitive chain of allowed swaps produced it. The *direct* pairwise
    /// check: if NO pair is relaxed, the output is the identity.
    #[test]
    fn empty_matrix_is_identity(
        s in arb_prob(),
        types in arb_types(16),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(ReorderMatrix::none(), SettleProbs::uniform(s).unwrap());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        prop_assert!(settled.permutation().is_identity());
    }

    /// Under TSO specifically, the relative order of same-type operations
    /// is preserved for any swap probability.
    #[test]
    fn tso_same_type_order_preserved(
        s in arb_prob(),
        types in arb_types(16),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(
            MemoryModel::Tso.matrix(),
            SettleProbs::uniform(s).unwrap(),
        );
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        for ty in [OpType::Ld, OpType::St] {
            let positions: Vec<usize> = (0..program.len())
                .filter(|&i| program[i].op_type() == Some(ty))
                .map(|i| settled.position_of(i))
                .collect();
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]), "{ty} reordered");
        }
    }

    /// An acquire fence directly before the critical load pins the window
    /// at zero for every matrix and probability.
    #[test]
    fn acquire_fence_pins_window_for_any_model(
        matrix in arb_matrix(),
        s in arb_prob(),
        types in arb_types(12),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types)
            .unwrap()
            .with_acquire_before_critical();
        let settler = Settler::new(matrix, SettleProbs::uniform(s).unwrap());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(settled.gamma(), 0);
    }

    /// Fences never move upward: a fence's settled position is at least its
    /// initial position.
    #[test]
    fn fences_never_climb(
        matrix in arb_matrix(),
        s in arb_prob(),
        types in arb_types(10),
        fence_pos in 0usize..10,
        seed in 0u64..1000,
    ) {
        let base = Program::from_filler_types(&types).unwrap();
        let pos = fence_pos.min(base.len());
        let program = base.with_fence_at(pos, FenceKind::Release);
        let settler = Settler::new(matrix, SettleProbs::uniform(s).unwrap());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        prop_assert!(settled.position_of(pos) >= pos);
    }

    /// Window length is always `gamma + 2` and bounded by the program size.
    #[test]
    fn window_bounds(
        matrix in arb_matrix(),
        types in arb_types(16),
        seed in 0u64..1000,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(matrix, SettleProbs::canonical());
        let settled = settler.settle(&program, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(settled.window_len(), settled.gamma() + 2);
        prop_assert!(settled.window_len() <= program.len() as u64);
    }

    /// The exact single-round β distribution integrates to 1 for arbitrary
    /// models and orders reachable by settling.
    #[test]
    fn beta_distribution_normalises(
        matrix in arb_matrix(),
        s in arb_prob(),
        types in arb_types(8),
        round_pick in 0usize..10,
    ) {
        let program = Program::from_filler_types(&types).unwrap();
        let settler = Settler::new(matrix, SettleProbs::uniform(s).unwrap());
        let order: Vec<usize> = (0..program.len()).collect();
        let round = round_pick.min(program.len() - 1);
        let beta = settle::beta::BetaDistribution::for_round(&settler, &program, &order, round);
        let total: f64 = beta.dense().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
    }
}
