//! Round-by-round settling traces (the paper's Figure 1).

use crate::{Permutation, Settled, Settler};
use progmodel::Program;
use rand::Rng;

/// One round of a [`SettleTrace`]: the order after settling instruction
/// `settling` (by initial index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRound {
    /// Initial index of the instruction settled this round.
    pub settling: usize,
    /// How many positions it climbed.
    pub climbed: usize,
    /// The full order after the round: position → initial index.
    pub order: Vec<usize>,
}

/// A complete settling trace: the initial order plus one [`TraceRound`] per
/// instruction, exactly the information visualised in the paper's Figure 1.
///
/// # Example
///
/// ```
/// use memmodel::MemoryModel;
/// use progmodel::ProgramGenerator;
/// use settle::SettleTrace;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let program = ProgramGenerator::new(6).generate(&mut rng);
/// let trace = SettleTrace::run(MemoryModel::Tso, &program, &mut rng);
/// assert_eq!(trace.rounds().len(), program.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SettleTrace {
    program: Program,
    rounds: Vec<TraceRound>,
}

impl SettleTrace {
    /// Runs a traced settling of `program` under `model`'s canonical
    /// settler.
    pub fn run<R: Rng + ?Sized>(
        model: memmodel::MemoryModel,
        program: &Program,
        rng: &mut R,
    ) -> SettleTrace {
        SettleTrace::run_with(&Settler::for_model(model), program, rng)
    }

    /// Runs a traced settling with an explicit [`Settler`].
    pub fn run_with<R: Rng + ?Sized>(
        settler: &Settler,
        program: &Program,
        rng: &mut R,
    ) -> SettleTrace {
        let mut order: Vec<usize> = (0..program.len()).collect();
        let mut rounds = Vec::with_capacity(program.len());
        // An inert settle reads no attempt, so its key is never used.
        let key = settler.settle_key(program, rng).unwrap_or(0);
        for r in 0..program.len() {
            let before = order.iter().position(|&i| i == r).expect("index present");
            settler.settle_one(program, &mut order, r, key);
            let after = order.iter().position(|&i| i == r).expect("index present");
            rounds.push(TraceRound {
                settling: r,
                climbed: before - after,
                order: order.clone(),
            });
        }
        SettleTrace {
            program: program.clone(),
            rounds,
        }
    }

    /// The traced program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The per-round snapshots.
    #[must_use]
    pub fn rounds(&self) -> &[TraceRound] {
        &self.rounds
    }

    /// The final settled outcome, identical to running
    /// [`Settler::settle`] with the same RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (zero-length program).
    #[must_use]
    pub fn final_settled(&self) -> Settled {
        let last = self.rounds.last().expect("nonempty trace");
        let permutation =
            Permutation::from_settled_order(&last.order).expect("trace orders are permutations");
        Settled::from_parts(self.program.clone(), permutation)
    }

    /// Total positions climbed over all rounds (a reordering-intensity
    /// measure; zero under SC).
    #[must_use]
    pub fn total_climb(&self) -> usize {
        self.rounds.iter().map(|r| r.climbed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::MemoryModel;
    use progmodel::ProgramGenerator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn trace_matches_untraced_settle() {
        let p = ProgramGenerator::new(20).generate(&mut rng(1));
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let traced = SettleTrace::run_with(&settler, &p, &mut rng(42)).final_settled();
            let plain = settler.settle(&p, &mut rng(42));
            assert_eq!(traced, plain, "{model}");
        }
    }

    #[test]
    fn sc_trace_never_climbs() {
        let p = ProgramGenerator::new(16).generate(&mut rng(2));
        let t = SettleTrace::run(MemoryModel::Sc, &p, &mut rng(3));
        assert_eq!(t.total_climb(), 0);
        for r in t.rounds() {
            assert_eq!(r.climbed, 0);
        }
    }

    #[test]
    fn each_round_settles_the_right_instruction() {
        let p = ProgramGenerator::new(10).generate(&mut rng(4));
        let t = SettleTrace::run(MemoryModel::Wo, &p, &mut rng(5));
        for (i, r) in t.rounds().iter().enumerate() {
            assert_eq!(r.settling, i);
            assert_eq!(r.order.len(), p.len());
        }
    }

    #[test]
    fn climb_counts_are_consistent_with_orders() {
        let p = ProgramGenerator::new(12).generate(&mut rng(6));
        let t = SettleTrace::run(MemoryModel::Wo, &p, &mut rng(7));
        for r in t.rounds() {
            let pos = r.order.iter().position(|&i| i == r.settling).unwrap();
            assert_eq!(pos, r.settling - r.climbed);
        }
    }
}
