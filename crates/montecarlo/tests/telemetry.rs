//! Telemetry is strictly out-of-band: these tests prove that metric
//! collection and the recording master switch never change any seeded
//! result, and that the runner counters read back the work done.
//!
//! Counter assertions and recording toggles act on process-global state,
//! so every test here serializes through one lock.

mod common;

use common::Checksum;
use montecarlo::{BernoulliEstimate, Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::sync::{Mutex, MutexGuard};

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 500;

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
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
