//! The `β` insertion-point distribution of Appendix A.2, Definition 2.
//!
//! Round `i` of the settling process inserts instruction `x_i` into the
//! permuted prefix by repeated swaps; Definition 2 names the distribution
//! `β_i` of its final position. [`BetaDistribution`] computes it exactly for
//! any current order — the single-round building block that
//! [`crate::exact`] chains into whole-process distributions, exposed
//! separately because it is the paper's own unit of definition.

use crate::Settler;
use progmodel::Program;

/// The exact stopping-position distribution of one settling round.
///
/// # Example
///
/// ```
/// use memmodel::MemoryModel;
/// use memmodel::OpType::St;
/// use progmodel::Program;
/// use settle::{beta::BetaDistribution, Settler};
///
/// // Settling the critical LD above three stores under TSO: it climbs k
/// // positions with probability 2^-(k+1), and all the way with 2^-3.
/// let program = Program::from_filler_types(&[St, St, St]).unwrap();
/// let settler = Settler::for_model(MemoryModel::Tso);
/// let beta = BetaDistribution::for_round(&settler, &program, &[0, 1, 2, 3, 4], 3);
/// assert_eq!(beta.start(), 3);
/// assert!((beta.pmf(3) - 0.5).abs() < 1e-12);
/// assert!((beta.pmf(0) - 0.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BetaDistribution {
    /// `pmf[k]` = probability of stopping at position `k` (0 = top).
    pmf: Vec<f64>,
    start: usize,
}

impl BetaDistribution {
    /// Computes `β` for settling instruction `round` (by initial index) in
    /// the given current order.
    ///
    /// # Panics
    ///
    /// Panics if `round` is not present in `order` or `order` doesn't match
    /// the program's length.
    #[must_use]
    pub fn for_round(
        settler: &Settler,
        program: &Program,
        order: &[usize],
        round: usize,
    ) -> BetaDistribution {
        assert_eq!(order.len(), program.len(), "order length mismatch");
        let start = order
            .iter()
            .position(|&i| i == round)
            .expect("instruction present in order");
        let mover = &program[round];
        let mut pmf = vec![0.0; order.len()];
        let mut climb_prob = 1.0;
        let mut pos = start;
        loop {
            let p_swap = if pos == 0 {
                0.0
            } else {
                settler.swap_probability(&program[order[pos - 1]], mover)
            };
            pmf[pos] += climb_prob * (1.0 - p_swap);
            if p_swap <= 0.0 {
                break;
            }
            climb_prob *= p_swap;
            pos -= 1;
            if pos == 0 {
                pmf[0] += climb_prob;
                break;
            }
        }
        BetaDistribution { pmf, start }
    }

    /// The starting position of the settling instruction.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// `Pr[final position = k]`.
    #[must_use]
    pub fn pmf(&self, position: usize) -> f64 {
        self.pmf.get(position).copied().unwrap_or(0.0)
    }

    /// Expected number of positions climbed.
    #[must_use]
    pub fn expected_climb(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &p)| (self.start - k.min(self.start)) as f64 * p)
            .sum()
    }

    /// The support as a dense slice (index = position).
    #[must_use]
    pub fn dense(&self) -> &[f64] {
        &self.pmf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::MemoryModel;
    use memmodel::OpType::{Ld, St};

    fn identity(len: usize) -> Vec<usize> {
        (0..len).collect()
    }

    #[test]
    fn sc_never_moves() {
        let program = Program::from_filler_types(&[St, Ld, St]).unwrap();
        let settler = Settler::for_model(MemoryModel::Sc);
        for round in 0..program.len() {
            let beta =
                BetaDistribution::for_round(&settler, &program, &identity(program.len()), round);
            assert_eq!(beta.pmf(round), 1.0, "round {round}");
            assert_eq!(beta.expected_climb(), 0.0);
        }
    }

    #[test]
    fn normalises_for_every_model_and_round() {
        let program = Program::from_filler_types(&[St, Ld, St, St, Ld]).unwrap();
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            for round in 0..program.len() {
                let beta = BetaDistribution::for_round(
                    &settler,
                    &program,
                    &identity(program.len()),
                    round,
                );
                let total: f64 = beta.dense().iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "{model} round {round}");
            }
        }
    }

    #[test]
    fn tso_load_above_store_run_is_truncated_geometric() {
        // The doc-example case, spelled out: β over positions 3,2,1,0 is
        // 1/2, 1/4, 1/8, 1/8.
        let program = Program::from_filler_types(&[St, St, St]).unwrap();
        let settler = Settler::for_model(MemoryModel::Tso);
        let beta = BetaDistribution::for_round(&settler, &program, &identity(program.len()), 3);
        assert!((beta.pmf(3) - 0.5).abs() < 1e-12);
        assert!((beta.pmf(2) - 0.25).abs() < 1e-12);
        assert!((beta.pmf(1) - 0.125).abs() < 1e-12);
        assert!((beta.pmf(0) - 0.125).abs() < 1e-12);
        assert!((beta.expected_climb() - (0.25 + 2.0 * 0.125 + 3.0 * 0.125)).abs() < 1e-12);
    }

    #[test]
    fn blocked_mover_is_a_point_mass() {
        // A TSO store never moves, wherever it is.
        let program = Program::from_filler_types(&[Ld, Ld, St]).unwrap();
        let settler = Settler::for_model(MemoryModel::Tso);
        let beta = BetaDistribution::for_round(&settler, &program, &identity(program.len()), 2);
        assert_eq!(beta.pmf(2), 1.0);
    }

    #[test]
    fn critical_store_stops_at_critical_load() {
        let program = Program::from_filler_types(&[]).unwrap(); // LD*, ST*
        let settler = Settler::for_model(MemoryModel::Wo);
        let beta = BetaDistribution::for_round(&settler, &program, &identity(2), 1);
        assert_eq!(beta.pmf(1), 1.0);
        assert_eq!(beta.pmf(0), 0.0);
    }
}
