//! Thread-count scaling (Theorem 6.3).

use crate::ReliabilityModel;
use memmodel::MemoryModel;

/// One point of a Theorem 6.3 scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// The memory model.
    pub model: MemoryModel,
    /// Thread count.
    pub n: usize,
    /// Rao-Blackwellised `log2 Pr[A]`.
    pub log2_survival: f64,
    /// `−log2 Pr[A] / n²` — converges to `3/2 + o(1)` for every model.
    pub normalized_exponent: f64,
}

/// Sweeps thread counts for a set of models, producing the data behind the
/// paper's Theorem 6.3: as `n` grows, every model's normalised exponent
/// converges, so the relative reliability advantage of strict models
/// vanishes.
///
/// Uses the Rao-Blackwellised estimator throughout (direct simulation is
/// hopeless beyond `n ≈ 3`), with the machine's available parallelism.
#[must_use]
pub fn scaling_curve(
    models: &[MemoryModel],
    ns: &[usize],
    trials: u64,
    seed: u64,
) -> Vec<ScalingPoint> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    scaling_curve_with(models, ns, trials, seed, workers)
}

/// [`scaling_curve`] with an explicit worker budget: the `models × ns`
/// grid points run concurrently through the shared montecarlo pool, each
/// with its serial sub-seed (`seed + mi·1009 + ni`), and the curve is
/// assembled in row-major grid order — so the result is bit-for-bit
/// identical for any `workers`, including the old fully serial route.
#[must_use]
pub fn scaling_curve_with(
    models: &[MemoryModel],
    ns: &[usize],
    trials: u64,
    seed: u64,
    workers: usize,
) -> Vec<ScalingPoint> {
    let grid: Vec<(usize, MemoryModel, usize, usize)> = models
        .iter()
        .enumerate()
        .flat_map(|(mi, &model)| {
            ns.iter()
                .enumerate()
                .map(move |(ni, &n)| (mi, model, ni, n))
        })
        .collect();
    let inner = workers.div_ceil(grid.len().max(1)).max(1);
    montecarlo::pool::scatter(grid.len(), workers.max(1), move |i| {
        let (mi, model, ni, n) = grid[i];
        let rm = ReliabilityModel::new(model, n);
        let est =
            rm.estimate_survival_rb_with(trials, seed.wrapping_add((mi * 1009 + ni) as u64), inner);
        ScalingPoint {
            model,
            n,
            log2_survival: est.log2_survival,
            normalized_exponent: est.normalized_exponent(n),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: u64 = if cfg!(debug_assertions) {
        10_000
    } else {
        60_000
    };

    #[test]
    fn curve_has_a_point_per_model_per_n() {
        let pts = scaling_curve(&MemoryModel::NAMED, &[2, 4], 500, 1);
        assert_eq!(pts.len(), 8);
    }

    #[test]
    fn curve_is_worker_count_invariant() {
        // Grid points keep their serial sub-seeds and row-major order, so
        // the curve is bit-for-bit identical for any worker budget.
        let base = scaling_curve_with(&MemoryModel::NAMED, &[2, 4, 6], 2_000, 9, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                scaling_curve_with(&MemoryModel::NAMED, &[2, 4, 6], 2_000, 9, workers),
                base
            );
        }
    }

    #[test]
    fn exponent_gap_between_models_shrinks() {
        // Theorem 6.3: the normalised-exponent spread across models decays
        // with n. Capped at n = 16: beyond that, the sampled mean factor is
        // dominated by all-small-window vectors of probability (2/3)^n and
        // this trial budget would under-cover them.
        let ns = [2usize, 6, 12, 16];
        let pts = scaling_curve(&[MemoryModel::Sc, MemoryModel::Wo], &ns, TRIALS, 2);
        let spread = |n: usize| {
            let at: Vec<f64> = pts
                .iter()
                .filter(|p| p.n == n)
                .map(|p| p.normalized_exponent)
                .collect();
            (at[0] - at[1]).abs()
        };
        assert!(spread(16) < spread(6));
        assert!(spread(16) < spread(2));
        assert!(spread(16) < 0.08, "spread at n=16 is {}", spread(16));
    }

    #[test]
    fn exponents_approach_three_halves_from_below() {
        let pts = scaling_curve(&[MemoryModel::Sc], &[8, 16, 32], 100, 3);
        for p in &pts {
            assert!(p.normalized_exponent > 0.9 && p.normalized_exponent < 1.6);
        }
        // Monotone toward 3/2 as n grows (Stirling correction shrinks).
        assert!(pts[0].normalized_exponent < pts[2].normalized_exponent);
    }

    #[test]
    fn weaker_models_never_beat_sc() {
        let pts = scaling_curve(&MemoryModel::NAMED, &[4, 8], TRIALS / 2, 4);
        for n in [4usize, 8] {
            let sc = pts
                .iter()
                .find(|p| p.n == n && p.model == MemoryModel::Sc)
                .unwrap();
            for p in pts.iter().filter(|p| p.n == n) {
                assert!(
                    p.log2_survival <= sc.log2_survival + 0.05,
                    "{} at n={n} beats SC",
                    p.model
                );
            }
        }
    }
}
