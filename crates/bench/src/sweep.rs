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

use montecarlo::pool;
use std::sync::Arc;

/// Runs `job(index, &points[index])` once per point, concurrently through
/// the shared pool, and returns the results in point order.
///
/// `threads` bounds concurrency only; any value yields identical output
/// as long as `job` derives its randomness from the point index rather
/// than ambient state.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_point_order() {
        let out = sweep((0..40u64).collect::<Vec<_>>(), 4, |i, &v| v * 2 + i as u64);
        assert_eq!(out, (0..40).map(|v| v * 3).collect::<Vec<_>>());
    }
}
