//! Telemetry is strictly out-of-band: these tests prove that metric
//! collection and the recording master switch never change any seeded
//! result, and that the fault-retry counter is exact — N injected panics
//! read back as exactly N retries with a bit-for-bit recovered estimate.
//!
//! Counter assertions and recording toggles act on process-global state,
//! so every test here serializes through one lock.

mod common;

use common::Checksum;
use montecarlo::{BernoulliEstimate, Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 500;

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn injected_panics_count_exactly_and_recover_bit_for_bit() {
    const N: u64 = 3;
    let _guard = global_lock();
    obs::set_recording(true);
    let runner = Runner::new(Seed(77)).with_threads(3);
    let (clean, _) = runner
        .run::<BernoulliEstimate, _>(TRIALS, || (), |_, rng| rng.gen_bool(0.3), None)
        .expect("clean run");

    let before = obs::snapshot()
        .counter("mc.runner.chunks_retried")
        .unwrap_or(0);
    for i in 0..N {
        // One deterministic panic per run, each at a different trial so the
        // faults land in different chunks across the N runs.
        let at = 1_000 + i * CHUNK_WIDTH;
        let calls = AtomicU64::new(0);
        let (faulty, _) = runner
            .run::<BernoulliEstimate, _>(
                TRIALS,
                || (),
                move |_, rng| {
                    let n = calls.fetch_add(1, Ordering::SeqCst);
                    assert!(n != at, "injected fault: panic at trial {n}");
                    rng.gen_bool(0.3)
                },
                None,
            )
            .expect("recovered run");
        assert_eq!(faulty.retried_chunks, 1, "run {i}");
        assert_eq!(faulty.trials_completed, TRIALS, "run {i}");
        // The retried chunk replays its exact trial stream from the chunk
        // seed, so recovery is bit-for-bit, not merely statistical.
        assert_eq!(faulty.value, clean.value, "run {i} diverged from clean");
    }
    let after = obs::snapshot()
        .counter("mc.runner.chunks_retried")
        .unwrap_or(0);
    assert_eq!(after - before, N, "retry counter must read exactly N");
}

#[test]
fn results_identical_with_recording_on_and_off() {
    let _guard = global_lock();
    let run = |threads: usize| {
        Runner::new(Seed(2018))
            .with_threads(threads)
            .run::<Checksum, _>(TRIALS, || (), |_, rng| rng.gen::<u64>(), None)
            .unwrap()
            .0
            .value
    };
    obs::set_recording(true);
    let base = run(1);
    for threads in [1usize, 2, 3, 8] {
        obs::set_recording(true);
        assert_eq!(run(threads), base, "recording on, threads={threads}");
        obs::set_recording(false);
        assert_eq!(run(threads), base, "recording off, threads={threads}");
        obs::set_recording(true);
    }
}

#[test]
fn run_telemetry_reflects_the_work_done() {
    let _guard = global_lock();
    obs::set_recording(true);
    let before = obs::snapshot();
    let (report, _) = Runner::new(Seed(99))
        .with_threads(2)
        .run::<BernoulliEstimate, _>(TRIALS, || (), |_, rng| rng.gen_bool(0.5), None)
        .unwrap();
    assert_eq!(report.trials_completed, TRIALS);
    let after = obs::snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("mc.runner.runs"), 1);
    assert_eq!(delta("mc.runner.trials_completed"), TRIALS);
    assert_eq!(
        delta("mc.runner.chunks_claimed"),
        TRIALS.div_ceil(CHUNK_WIDTH)
    );
    let chunk_hist = after.histogram("mc.runner.chunk_wall_us").unwrap();
    assert!(chunk_hist.count >= TRIALS.div_ceil(CHUNK_WIDTH));
    // The pool saw the scatter even if every chunk ran on the caller.
    assert!(delta("mc.pool.scatter_calls") >= 1);
}
