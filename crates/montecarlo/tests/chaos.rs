//! Chaos property tests: the runner's half of the fault matrix.
//!
//! The runner meets one injected fault, the `hard` profile's chunk panic.
//! A chunk runs once, so its victim is abandoned at once and the run is
//! flagged degraded with an honest partial estimate — identically at
//! every thread count, never silently wrong. (The recoverable faults are
//! I/O faults: torn cache writes and failed exports, tested where they
//! strike.)
//!
//! Fault schedules are pure functions of `(seed, site, index)`, so each
//! test *seed-searches* for a plan that provably fires inside the chunk
//! range instead of hoping a hard-coded seed does.

mod common;

use common::Checksum;
use montecarlo::fault::{self, FaultPlan, Profile};
use montecarlo::{Runner, Seed, CHUNK_WIDTH};
use rand::Rng;

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 1234;
/// Chunk indices covering `TRIALS`.
const CHUNKS: u64 = 4;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Clears the process-global plan even when an assertion panics.
struct PlanGuard;

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

#[test]
fn hard_profile_degrades_identically_at_every_thread_count() {
    fault::clear();

    let seed = (0..100_000u64)
        .find(|&s| {
            let p = FaultPlan::new(s, Profile::Hard);
            (0..CHUNKS).any(|c| p.chunk_panics(c))
        })
        .expect("a hard-failing seed exists in the search range");
    let plan = FaultPlan::new(seed, Profile::Hard);
    // The victims — and therefore the partial sample size — are known up
    // front from the pure schedule.
    let expected_lost: u64 = (0..CHUNKS)
        .filter(|&c| plan.chunk_panics(c))
        .map(|c| CHUNK_WIDTH.min(TRIALS - c * CHUNK_WIDTH))
        .sum();
    let expected_abandoned = (0..CHUNKS).filter(|&c| plan.chunk_panics(c)).count() as u64;

    let run = |threads| {
        let _guard = PlanGuard;
        fault::install(FaultPlan::new(seed, Profile::Hard));
        Runner::new(Seed(2011))
            .with_threads(threads)
            .run::<Checksum, _>(TRIALS, || (), |_, rng| rng.gen::<u64>(), None)
            .expect("hard chaos degrades instead of failing")
            .0
    };
    let before = fault::ledger().snapshot();
    let base = run(1);
    let delta = fault::ledger().snapshot().since(&before);
    assert!(
        base.degraded,
        "victims must be flagged, not silently dropped"
    );
    assert_eq!(base.abandoned_chunks, expected_abandoned);
    assert_eq!(base.trials_completed, TRIALS - expected_lost);
    assert!(delta.chunks_abandoned >= expected_abandoned);
    assert!(delta.degraded_runs >= 1);
    for threads in THREADS {
        assert_eq!(
            run(threads),
            base,
            "degraded report drifted at threads={threads}"
        );
    }
}
