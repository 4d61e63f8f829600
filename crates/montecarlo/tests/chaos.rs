//! Chaos property tests: the master invariant of the fault matrix.
//!
//! Whenever recovery succeeds (transient panics, detected corruption),
//! the final report is **bit-identical** to the fault-free run at
//! every thread count. When recovery is impossible (the `hard` profile),
//! the run is flagged degraded with an honest partial estimate — also
//! identically at every thread count — never silently wrong.
//!
//! Fault schedules are pure functions of `(seed, site, index)`, so each
//! test *seed-searches* for a plan that provably fires inside the chunk
//! range instead of hoping a hard-coded seed does.

mod common;

use common::Checksum;
use montecarlo::fault::{self, FaultPlan, Profile};
use montecarlo::{RunReport, Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::time::Duration;

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 1234;
/// Chunk indices covering `TRIALS`.
const CHUNKS: u64 = 4;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The process-global plan registry means chaos tests must not overlap;
/// the guard also clears the plan even when an assertion panics.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct PlanGuard;

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// A [`Checksum`] run over `TRIALS` at `threads` workers.
fn checksum_run(threads: usize) -> RunReport<Checksum> {
    Runner::new(Seed(2011))
        .with_threads(threads)
        .with_retry_backoff(Duration::ZERO)
        .run::<Checksum, _>(TRIALS, || (), |_, rng| rng.gen::<u64>(), None)
        .expect("recoverable chaos must never fail the run")
        .0
}

/// Asserts the *results* match: everything except `retried_chunks`, which
/// legitimately differs between a fault-free run and one that recovered.
fn assert_same_result(chaos: &RunReport<Checksum>, clean: &RunReport<Checksum>, label: &str) {
    assert_eq!(chaos.value, clean.value, "{label}: checksum drifted");
    assert_eq!(chaos.trials_completed, clean.trials_completed, "{label}");
    assert_eq!(chaos.degraded, clean.degraded, "{label}");
    assert_eq!(chaos.abandoned_chunks, clean.abandoned_chunks, "{label}");
}

#[test]
fn recoverable_profiles_are_bit_identical_to_fault_free() {
    let _lock = chaos_lock();
    fault::clear();
    let clean = checksum_run(1);
    assert!(!clean.degraded);
    assert_eq!(clean.trials_completed, TRIALS);

    // (profile, does-a-plan-with-this-seed-fire-inside-our-chunk-range)
    type Fires = fn(&FaultPlan) -> bool;
    let cases: [(Profile, Fires); 3] = [
        (Profile::Panics, |p| {
            (0..CHUNKS).any(|c| p.chunk_panics(c, 1))
        }),
        (Profile::Corrupt, |p| {
            (0..CHUNKS).any(|c| p.corrupts_scratch(c, 1))
        }),
        (Profile::Mixed, |p| {
            (0..CHUNKS).any(|c| p.chunk_panics(c, 1) || p.corrupts_scratch(c, 1))
        }),
    ];
    for (profile, fires) in cases {
        let seed = (0..100_000u64)
            .find(|&s| fires(&FaultPlan::new(s, profile)))
            .expect("a firing seed exists in the search range");
        let mut reports = Vec::new();
        for threads in THREADS {
            let before = fault::ledger().snapshot();
            let _guard = PlanGuard;
            fault::install(FaultPlan::new(seed, profile));
            let report = checksum_run(threads);
            drop(_guard);
            let delta = fault::ledger().snapshot().since(&before);
            assert!(
                delta.injected_panics + delta.injected_corruptions > 0,
                "{profile}: plan seed {seed} must actually fire at threads={threads}"
            );
            assert_same_result(&report, &clean, &format!("{profile} threads={threads}"));
            assert!(
                report.retried_chunks > 0,
                "{profile}: recovery implies retries"
            );
            reports.push(report);
        }
        // Retry schedules are pure in (seed, chunk, attempt), so even the
        // full reports (retry counts included) agree across thread counts.
        for (report, threads) in reports.iter().zip(THREADS) {
            assert_eq!(report, &reports[0], "{profile}: drift at threads={threads}");
        }
    }
}

#[test]
fn hard_profile_degrades_identically_at_every_thread_count() {
    let _lock = chaos_lock();
    fault::clear();

    let seed = (0..100_000u64)
        .find(|&s| {
            let p = FaultPlan::new(s, Profile::Hard);
            (0..CHUNKS).any(|c| p.chunk_panics(c, 1))
        })
        .expect("a hard-failing seed exists in the search range");
    let plan = FaultPlan::new(seed, Profile::Hard);
    // Hard faults fire on every attempt, so the victims — and therefore
    // the partial sample size — are known up front from the pure schedule.
    let expected_lost: u64 = (0..CHUNKS)
        .filter(|&c| plan.chunk_panics(c, 1))
        .map(|c| CHUNK_WIDTH.min(TRIALS - c * CHUNK_WIDTH))
        .sum();
    let expected_abandoned = (0..CHUNKS).filter(|&c| plan.chunk_panics(c, 1)).count() as u64;

    let run = |threads| {
        let _guard = PlanGuard;
        fault::install(FaultPlan::new(seed, Profile::Hard));
        Runner::new(Seed(2011))
            .with_threads(threads)
            .with_max_chunk_retries(2)
            .with_retry_backoff(Duration::ZERO)
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
