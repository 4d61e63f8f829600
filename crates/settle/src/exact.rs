//! Exact finite-`m` settling distributions by exhaustive enumeration.
//!
//! For small programs the settling process can be evaluated *exactly*: the
//! distribution over orders after round `r` is propagated symbolically, each
//! round expanding every order into its possible stopping positions with
//! their probabilities (the `β` distribution of Appendix A.2, Definition 2).
//! Averaging over all `2^m` filler type strings then gives the exact finite-
//! `m` window law — an independent check of both the Monte-Carlo sampler
//! and the analytic `m → ∞` series, and a direct quantification of the
//! truncation ablation in DESIGN.md.
//!
//! Complexity is `O(#reachable orders · len)` per round; practical for
//! `len = m + 2 ≲ 12`.

use crate::Settler;
use memmodel::OpType;
use progmodel::Program;
use std::collections::HashMap;

/// The exact distribution over settled orders of `program` under `settler`.
///
/// Keys are orders (position → initial index); values are probabilities
/// summing to 1.
///
/// # Panics
///
/// Panics if the program is longer than 12 instructions (the enumeration
/// would be enormous).
#[must_use]
pub fn order_distribution(settler: &Settler, program: &Program) -> HashMap<Vec<usize>, f64> {
    assert!(
        program.len() <= 12,
        "exact enumeration limited to 12 instructions, got {}",
        program.len()
    );
    let mut dist: HashMap<Vec<usize>, f64> = HashMap::new();
    dist.insert((0..program.len()).collect(), 1.0);
    for round in 0..program.len() {
        let mut next: HashMap<Vec<usize>, f64> = HashMap::new();
        for (order, prob) in &dist {
            for (stopped, p_stop) in settle_outcomes(settler, program, order, round) {
                *next.entry(stopped).or_insert(0.0) += prob * p_stop;
            }
        }
        dist = next;
    }
    dist
}

/// All stopping outcomes of settling the instruction at position `round`
/// (which, before its round, still sits at its initial index) with their
/// probabilities — Definition 2's `β` distribution made explicit.
fn settle_outcomes(
    settler: &Settler,
    program: &Program,
    order: &[usize],
    round: usize,
) -> Vec<(Vec<usize>, f64)> {
    let start = order
        .iter()
        .position(|&i| i == round)
        .expect("instruction present");
    let mover = &program[round];
    let mut outcomes = Vec::new();
    let mut climb_prob = 1.0; // probability of having reached this position
    let mut current = order.to_vec();
    let mut pos = start;
    loop {
        let p_swap = if pos == 0 {
            0.0
        } else {
            settler.swap_probability(&program[current[pos - 1]], mover)
        };
        // Stop here with probability (1 - p_swap).
        let p_stop = climb_prob * (1.0 - p_swap);
        if p_stop > 0.0 {
            outcomes.push((current.clone(), p_stop));
        }
        if p_swap <= 0.0 {
            break;
        }
        climb_prob *= p_swap;
        current.swap(pos - 1, pos);
        pos -= 1;
        if pos == 0 {
            // Reached the top: certain stop.
            outcomes.push((current.clone(), climb_prob));
            break;
        }
    }
    outcomes
}

/// Exact `Pr[B_γ]` for a *fixed* program.
#[must_use]
pub fn window_pmf_for_program(settler: &Settler, program: &Program) -> Vec<f64> {
    let ld = program.critical_load_index();
    let st = program.critical_store_index();
    let mut pmf = vec![0.0; program.len()];
    for (order, prob) in order_distribution(settler, program) {
        let pos_ld = order.iter().position(|&i| i == ld).expect("load present");
        let pos_st = order.iter().position(|&i| i == st).expect("store present");
        assert!(pos_st > pos_ld, "critical pair reordered");
        pmf[pos_st - pos_ld - 1] += prob;
    }
    pmf
}

/// Exact finite-`m` window law: `Pr[B_γ]` averaged over all `2^m` equally
/// likely filler type strings (`p = 1/2`).
///
/// # Panics
///
/// Panics if `m > 10`.
#[must_use]
pub fn window_pmf_finite_m(settler: &Settler, m: usize) -> Vec<f64> {
    assert!(m <= 10, "2^m programs enumerated; m capped at 10");
    let mut pmf = vec![0.0; m + 2];
    let weight = 1.0 / (1u64 << m) as f64;
    for bits in 0u64..(1 << m) {
        let types: Vec<OpType> = (0..m)
            .map(|i| {
                if bits >> i & 1 == 1 {
                    OpType::St
                } else {
                    OpType::Ld
                }
            })
            .collect();
        let program = Program::from_filler_types(&types).expect("valid program");
        for (cell, p) in pmf
            .iter_mut()
            .zip(window_pmf_for_program(settler, &program))
        {
            *cell += weight * p;
        }
    }
    pmf
}

#[cfg(test)]
mod tests {
    use super::*;
    use analytic::window_law::{self, TsoLaw, WindowLaws};
    use memmodel::MemoryModel;
    use memmodel::OpType::{Ld, St};
    use montecarlo::{Histogram, Runner, Seed};

    fn settler(model: MemoryModel) -> Settler {
        Settler::for_model(model)
    }

    #[test]
    fn distributions_normalise() {
        let program = Program::from_filler_types(&[St, Ld, St, St]).unwrap();
        for model in MemoryModel::NAMED {
            let dist = order_distribution(&settler(model), &program);
            let total: f64 = dist.values().sum();
            assert!((total - 1.0).abs() < 1e-12, "{model}: total {total}");
            let pmf_total: f64 = window_pmf_for_program(&settler(model), &program)
                .iter()
                .sum();
            assert!((pmf_total - 1.0).abs() < 1e-12, "{model}");
        }
    }

    #[test]
    fn sc_distribution_is_a_point_mass_on_identity() {
        let program = Program::from_filler_types(&[St, Ld, St]).unwrap();
        let dist = order_distribution(&settler(MemoryModel::Sc), &program);
        assert_eq!(dist.len(), 1);
        let (order, p) = dist.iter().next().unwrap();
        assert_eq!(order, &vec![0, 1, 2, 3, 4]);
        assert!((p - 1.0).abs() < 1e-15);
    }

    #[test]
    fn all_stores_program_has_closed_form_tso_window() {
        // With j stores above the critical LD, Pr[B_γ] = 2^-(γ+1) for
        // γ < j and 2^-j at γ = j (pure climb, no interspersed LDs).
        let program = Program::from_filler_types(&[St; 5]).unwrap();
        let pmf = window_pmf_for_program(&settler(MemoryModel::Tso), &program);
        for (gamma, &p) in pmf.iter().enumerate().take(5) {
            assert!(
                (p - 2f64.powi(-(gamma as i32) - 1)).abs() < 1e-12,
                "γ={gamma}"
            );
        }
        assert!((pmf[5] - 2f64.powi(-5)).abs() < 1e-12);
    }

    #[test]
    fn all_loads_program_never_grows_tso_window() {
        let program = Program::from_filler_types(&[Ld; 5]).unwrap();
        let pmf = window_pmf_for_program(&settler(MemoryModel::Tso), &program);
        assert!((pmf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_matches_monte_carlo_per_program() {
        let trials: u64 = if cfg!(debug_assertions) {
            40_000
        } else {
            200_000
        };
        let program = Program::from_filler_types(&[St, Ld, St, St, Ld]).unwrap();
        for model in [MemoryModel::Tso, MemoryModel::Wo, MemoryModel::Pso] {
            let s = settler(model);
            let exact = window_pmf_for_program(&s, &program);
            let prog = program.clone();
            let h = Runner::new(Seed(31))
                .run::<Histogram, _>(
                    trials,
                    || (),
                    move |_, rng| s.sample_gamma(&prog, rng),
                    None,
                )
                .expect("panic-free simulation")
                .0
                .value;
            for (gamma, &p) in exact.iter().enumerate() {
                let observed = h.pmf(gamma as u64);
                assert!(
                    (observed - p).abs() < 0.01,
                    "{model} γ={gamma}: exact {p} vs MC {observed}"
                );
            }
        }
    }

    #[test]
    fn finite_m_law_converges_to_series() {
        // Exact finite-m TSO law approaches the m→∞ partition series, with
        // error shrinking in m (the DESIGN.md truncation ablation, exactly).
        let law = TsoLaw::new();
        let mut prev_err = f64::INFINITY;
        for m in [4usize, 6, 8] {
            let pmf = window_pmf_finite_m(&settler(MemoryModel::Tso), m);
            let err: f64 = (0..=3u64)
                .map(|g| (pmf[g as usize] - law.pmf(g)).abs())
                .sum();
            assert!(err < prev_err + 1e-9, "m={m}: error {err} grew");
            prev_err = err;
        }
        assert!(prev_err < 0.02, "residual error {prev_err}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "WO's reachable-order space is factorial; the exhaustive enumeration is only tractable in release builds"
    )]
    fn finite_m_wo_law_matches_closed_form() {
        // WO's law is exact already at moderate m for small γ.
        let pmf = window_pmf_finite_m(&settler(MemoryModel::Wo), 8);
        assert!((pmf[0] - window_law::wo_pmf(0)).abs() < 5e-3);
        assert!((pmf[1] - window_law::wo_pmf(1)).abs() < 5e-3);
    }

    #[test]
    fn finite_m_pso_matches_climbback_series() {
        let laws = WindowLaws::new();
        let pmf = window_pmf_finite_m(&settler(MemoryModel::Pso), 8);
        for g in 0..=2u64 {
            let series = laws.pmf(MemoryModel::Pso, g).unwrap();
            assert!(
                (pmf[g as usize] - series).abs() < 0.01,
                "γ={g}: finite-m {} vs series {series}",
                pmf[g as usize]
            );
        }
    }

    #[test]
    #[should_panic(expected = "limited to 12")]
    fn enumeration_guards_length() {
        let program = Program::from_filler_types(&[St; 11]).unwrap();
        let _ = order_distribution(&settler(MemoryModel::Wo), &program);
    }
}
