//! Telemetry is strictly out-of-band: these tests prove that metric
//! collection and the recording master switch never change any seeded
//! result, and that the fault-retry counter is exact — N injected panics
//! read back as exactly N retries with a bit-for-bit recovered estimate.
//!
//! Counter assertions and recording toggles act on process-global state,
//! so every test here serializes through one lock.

use montecarlo::fault::{FaultInjector, FaultMode};
use montecarlo::{Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::sync::{Arc, Mutex, MutexGuard};

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
    let clean = runner
        .try_bernoulli(TRIALS, |rng| rng.gen_bool(0.3))
        .expect("clean run");

    let before = obs::snapshot()
        .counter("mc.runner.chunks_retried")
        .unwrap_or(0);
    for i in 0..N {
        // One deterministic panic per run, each at a different trial so the
        // faults land in different chunks across the N runs.
        let inj = Arc::new(FaultInjector::new(FaultMode::PanicOnce {
            trial: 1_000 + i * CHUNK_WIDTH,
        }));
        let seen = Arc::clone(&inj);
        let faulty = runner
            .try_bernoulli(TRIALS, move |rng| {
                seen.perturb();
                rng.gen_bool(0.3)
            })
            .expect("recovered run");
        assert!(inj.has_fired(), "injected fault {i} never fired");
        assert_eq!(faulty.retried_chunks, 1, "run {i}");
        assert_eq!(faulty.trials_completed, TRIALS, "run {i}");
        assert!(!faulty.truncated, "run {i}");
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
        Runner::new(Seed(2018)).with_threads(threads).fold(
            TRIALS,
            || 0u64,
            |rng| rng.gen::<u64>(),
            |acc, x| *acc = acc.wrapping_mul(0x100_0003).wrapping_add(x),
            |a, b| *a = a.wrapping_mul(0x9E37_79B9).wrapping_add(b),
        )
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
    let report = Runner::new(Seed(99))
        .with_threads(2)
        .try_bernoulli(TRIALS, |rng| rng.gen_bool(0.5))
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
    assert_eq!(delta("mc.runner.deadline_truncations"), 0);
    let chunk_hist = after.histogram("mc.runner.chunk_wall_us").unwrap();
    assert!(chunk_hist.count >= TRIALS.div_ceil(CHUNK_WIDTH));
    // The pool saw the scatter even if every chunk ran on the caller.
    assert!(delta("mc.pool.scatter_calls") >= 1);
}
