//! Deterministic parallel sweeps over experiment grids.
//!
//! Experiments in this crate evaluate grids of independent points —
//! models × filler lengths × thread counts × store probabilities — and
//! each point is its own Monte-Carlo job. This module runs those points
//! concurrently through the shared montecarlo worker pool while keeping
//! the two invariants that make sweeps reproducible:
//!
//! 1. every point's seed is a pure function of the master seed and the
//!    point's *logical index* (never of which worker ran it), and
//! 2. results come back in grid order, no matter the claim order.
//!
//! Together with the runner's fixed-width chunk tiling this means an
//! entire experiment report is bit-for-bit identical for any
//! `--threads` value.

use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::{pool, BernoulliEstimate, Seed};
use std::sync::Arc;

/// One `(model, m, n, p)` grid point of a reliability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The memory model.
    pub model: MemoryModel,
    /// Filler length `m`.
    pub m: usize,
    /// Simulated thread count `n`.
    pub n: usize,
    /// Store probability `p`.
    pub p: f64,
}

/// The cartesian grid `models × ms × ns × ps` in row-major order (the
/// rightmost axis varies fastest). Row-major order is part of the
/// determinism contract: a point's index — and therefore its sub-seed —
/// is fixed by its coordinates alone.
#[must_use]
pub fn grid(
    models: &[MemoryModel],
    ms: &[usize],
    ns: &[usize],
    ps: &[f64],
) -> Vec<GridPoint> {
    let mut points = Vec::with_capacity(models.len() * ms.len() * ns.len() * ps.len());
    for &model in models {
        for &m in ms {
            for &n in ns {
                for &p in ps {
                    points.push(GridPoint { model, m, n, p });
                }
            }
        }
    }
    points
}

/// The sub-seed for grid point `index` under master seed `seed` — a pure
/// function of `(seed, index)`, so sweep results never depend on
/// scheduling. Uses the same SplitMix64 fan-out as the runner's chunk
/// streams.
#[must_use]
pub fn point_seed(seed: u64, index: usize) -> u64 {
    Seed(seed).for_task(index as u64)
}

/// Runs `job(index, &points[index])` once per point, concurrently through
/// the shared pool, and returns the results in point order.
///
/// `threads` bounds concurrency only; any value yields identical output
/// as long as `job` derives its randomness from the point index (e.g. via
/// [`point_seed`]) rather than ambient state.
pub fn sweep<P, T, F>(points: Vec<P>, threads: usize, job: F) -> Vec<T>
where
    P: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(usize, &P) -> T + Send + Sync + 'static,
{
    let points = Arc::new(points);
    let count = points.len();
    pool::scatter(count, threads, move |i| job(i, &points[i]))
}

/// One evaluated point of [`survival_sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalPoint {
    /// The grid coordinates.
    pub point: GridPoint,
    /// Direct Monte-Carlo survival estimate at those coordinates.
    pub estimate: BernoulliEstimate,
}

/// Direct survival estimates over a whole grid: `trials` end-to-end
/// simulations per point, each point seeded with [`point_seed`] and run
/// single-threaded inside the sweep (the grid itself is the parallelism).
///
/// # Panics
///
/// Panics if a grid point's `p` is outside `[0, 1]`.
#[must_use]
pub fn survival_sweep(
    points: Vec<GridPoint>,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<SurvivalPoint> {
    sweep(points, threads, move |i, pt| {
        let rm = ReliabilityModel::new(pt.model, pt.n)
            .with_filler_len(pt.m)
            .with_store_probability(pt.p)
            .expect("grid store probability in [0, 1]");
        SurvivalPoint {
            point: *pt,
            estimate: rm.simulate_survival_with(trials, point_seed(seed, i), 1),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests of this binary that install (or must observe
    /// the absence of) the process-global result-store handle.
    static STORE_LOCK: Mutex<()> = Mutex::new(());

    fn store_guard() -> MutexGuard<'static, ()> {
        STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn grid_is_row_major() {
        let g = grid(
            &[MemoryModel::Sc, MemoryModel::Wo],
            &[8],
            &[2, 3],
            &[0.5],
        );
        assert_eq!(g.len(), 4);
        assert_eq!((g[0].model, g[0].n), (MemoryModel::Sc, 2));
        assert_eq!((g[1].model, g[1].n), (MemoryModel::Sc, 3));
        assert_eq!((g[2].model, g[2].n), (MemoryModel::Wo, 2));
        assert_eq!((g[3].model, g[3].n), (MemoryModel::Wo, 3));
    }

    #[test]
    fn point_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..32).map(|i| point_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(seeds, (0..32).map(|i| point_seed(7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_preserves_point_order() {
        let out = sweep((0..40u64).collect::<Vec<_>>(), 4, |i, &v| v * 2 + i as u64);
        assert_eq!(out, (0..40).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn survival_sweep_is_thread_count_invariant() {
        let points = grid(
            &[MemoryModel::Tso, MemoryModel::Wo],
            &[16, 32],
            &[2, 3],
            &[0.4, 0.6],
        );
        let base = survival_sweep(points.clone(), 2_000, 11, 1);
        assert_eq!(base.len(), 16);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                survival_sweep(points.clone(), 2_000, 11, threads),
                base,
                "sweep drifted at threads={threads}"
            );
        }
    }

    #[test]
    fn survival_sweep_is_memoized_by_the_result_store() {
        let _lock = store_guard();
        store::clear();
        let points = grid(
            &[MemoryModel::Tso, MemoryModel::Wo],
            &[16, 32],
            &[2, 3],
            &[0.4, 0.6],
        );
        // Seed 13 is unique to this test, so no concurrently running test
        // can produce hits on the keys it inserts.
        let cold = survival_sweep(points.clone(), 2_000, 13, 2);

        let cache = std::sync::Arc::new(store::Store::in_memory());
        store::install(std::sync::Arc::clone(&cache));
        assert_eq!(survival_sweep(points.clone(), 2_000, 13, 2), cold);
        let after_first = cache.stats();
        assert!(after_first.misses >= 16, "first sweep populates the store");

        // Every grid point of the re-sweep is served from the store —
        // exactly 16 new hits, at a different thread count, bit-identical.
        assert_eq!(survival_sweep(points, 2_000, 13, 4), cold);
        let after_second = cache.stats();
        assert_eq!(
            after_second.hits - after_first.hits,
            16,
            "re-sweep must be pure lookups"
        );
        store::clear();
    }

    #[test]
    fn survival_sweep_orders_sc_above_wo() {
        let points = grid(&[MemoryModel::Sc, MemoryModel::Wo], &[32], &[2], &[0.5]);
        let out = survival_sweep(points, 4_000, 12, 2);
        assert!(out[0].estimate.point() > out[1].estimate.point());
    }
}
