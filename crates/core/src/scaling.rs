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

/// Sweeps thread counts for a set of models on a budget of `workers`
/// threads, producing the data behind the paper's Theorem 6.3: as `n`
/// grows, every model's normalised exponent converges, so the relative
/// reliability advantage of strict models vanishes.
///
/// Uses the Rao-Blackwellised estimator throughout (direct simulation is
/// hopeless beyond `n ≈ 3`).
///
/// Each model's whole row is one shared-draw grid
/// ([`ReliabilityModel::estimate_survival_rb_grid_with`]) on a model of
/// `max(ns)` threads: one settle pass per program serves every `n`. Model
/// `mi`'s grid takes the serial sub-seed of its largest point,
/// `seed + mi·1009 + ni` with `ni` the index of `max(ns)` in `ns`, so that
/// point is the lone Rao-Blackwellised estimate at that seed bit for bit.
/// The grids run concurrently through the shared montecarlo pool and the
/// curve is assembled in row-major `models × ns` order, so the result is
/// bit-for-bit identical for any `workers`.
///
/// # Panics
///
/// Panics if some `n` in `ns` is 0, or if `ns` has more than
/// [`montecarlo::GridSample::CAPACITY`] points.
#[must_use]
pub fn scaling_curve_with(
    models: &[MemoryModel],
    ns: &[usize],
    trials: u64,
    seed: u64,
    workers: usize,
) -> Vec<ScalingPoint> {
    let Some(n_max) = ns.iter().copied().max() else {
        return Vec::new();
    };
    let top = ns.iter().position(|&n| n == n_max).expect("max is in ns");
    let (grid_models, grid_ns) = (models.to_vec(), ns.to_vec());
    let inner = workers.div_ceil(models.len().max(1)).max(1);
    let rows = montecarlo::pool::scatter(models.len(), workers.max(1), move |mi| {
        ReliabilityModel::new(grid_models[mi], n_max).estimate_survival_rb_grid_with(
            &grid_ns,
            trials,
            seed.wrapping_add((mi * 1009 + top) as u64),
            inner,
        )
    });
    models
        .iter()
        .zip(rows)
        .flat_map(|(&model, row)| {
            ns.iter().zip(row).map(move |(&n, est)| ScalingPoint {
                model,
                n,
                log2_survival: est.log2_survival,
                normalized_exponent: est.normalized_exponent(n),
            })
        })
        .collect()
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
        let pts = scaling_curve_with(&MemoryModel::NAMED, &[2, 4], 500, 1, 2);
        assert_eq!(pts.len(), 8);
    }

    #[test]
    fn curve_is_worker_count_invariant() {
        // Each model's grid keeps its serial sub-seed and the curve its
        // row-major order, so it is bit-for-bit identical for any worker
        // budget.
        let base = scaling_curve_with(&MemoryModel::NAMED, &[2, 4, 6], 2_000, 9, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                scaling_curve_with(&MemoryModel::NAMED, &[2, 4, 6], 2_000, 9, workers),
                base
            );
        }
    }

    #[test]
    fn largest_n_points_are_the_lone_rb_estimates_at_their_sub_seeds() {
        // The grid of model `mi` takes the sub-seed the per-point curve gave
        // its largest point, so those points are unchanged bit for bit:
        // here the largest n sits mid-grid, at index 1.
        let ns = [4usize, 8, 2];
        let pts = scaling_curve_with(&MemoryModel::NAMED, &ns, 5_000, 11, 2);
        for (mi, &model) in MemoryModel::NAMED.iter().enumerate() {
            let lone = ReliabilityModel::new(model, 8).estimate_survival_rb_with(
                5_000,
                11 + (mi * 1009 + 1) as u64,
                1,
            );
            let p = pts[mi * ns.len() + 1];
            assert_eq!((p.model, p.n), (model, 8));
            assert_eq!(p.log2_survival.to_bits(), lone.log2_survival.to_bits());
            assert_eq!(
                p.normalized_exponent.to_bits(),
                lone.normalized_exponent(8).to_bits()
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
        let pts = scaling_curve_with(&[MemoryModel::Sc, MemoryModel::Wo], &ns, TRIALS, 2, 2);
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
        let pts = scaling_curve_with(&[MemoryModel::Sc], &[8, 16, 32], 100, 3, 2);
        for p in &pts {
            assert!(p.normalized_exponent > 0.9 && p.normalized_exponent < 1.6);
        }
        // Monotone toward 3/2 as n grows (Stirling correction shrinks).
        assert!(pts[0].normalized_exponent < pts[2].normalized_exponent);
    }

    #[test]
    fn weaker_models_never_beat_sc() {
        let pts = scaling_curve_with(&MemoryModel::NAMED, &[4, 8], TRIALS / 2, 4, 2);
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
