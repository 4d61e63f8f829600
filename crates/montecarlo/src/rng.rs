//! Deterministic RNG fan-out.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A master seed for a whole experiment.
///
/// Every parallel task derives its own independent stream from
/// `(seed, task_index)` via a SplitMix64 scramble. Task indices are logical
/// (a [`Runner`](crate::Runner) chunk index, a sweep grid-point index) —
/// never "which worker thread ran this" — so any consumer that keys its
/// streams on logical indices and combines partial results in index order
/// gets results that are bit-for-bit identical regardless of thread count
/// or scheduling. The runner's fixed-width chunk tiling upholds exactly
/// this contract (proven by the `determinism` integration test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derives the sub-seed for task `index`.
    #[must_use]
    pub fn for_task(self, index: u64) -> u64 {
        splitmix64(self.0 ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }
}

impl Default for Seed {
    /// A fixed, arbitrary default seed (reproducibility over novelty).
    fn default() -> Seed {
        Seed(0x5EED_2011_0DC0_FFEE)
    }
}

/// The SplitMix64 finaliser — a high-quality 64-bit mix used to decorrelate
/// task streams. Bit-identical to `memmodel::draw::splitmix64` (pinned by
/// a test); the fault schedules and the cache's key hash use this copy.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the RNG for task `index` of an experiment seeded with `seed`.
#[must_use]
pub fn task_rng(seed: Seed, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.for_task(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn task_streams_are_reproducible() {
        let mut a = task_rng(Seed(7), 3);
        let mut b = task_rng(Seed(7), 3);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn task_streams_differ_by_index() {
        let mut a = task_rng(Seed(7), 0);
        let mut b = task_rng(Seed(7), 1);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn task_streams_differ_by_seed() {
        let mut a = task_rng(Seed(7), 0);
        let mut b = task_rng(Seed(8), 0);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn splitmix_is_a_bijection_sample() {
        // Distinct inputs map to distinct outputs (spot check).
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn splitmix_is_memmodels() {
        let edges = [u64::MAX, u64::MAX - 1, 1 << 63, 0x9E37_79B9_7F4A_7C15];
        for z in (0..10_000u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .chain(edges)
        {
            assert_eq!(splitmix64(z), memmodel::draw::splitmix64(z), "z = {z:#x}");
        }
    }
}
