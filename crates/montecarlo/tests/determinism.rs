//! The tentpole invariant of the runner: seeded results are bit-for-bit
//! identical for any worker-thread count.
//!
//! Chunk tiling is fixed-width ([`montecarlo::CHUNK_WIDTH`]) and each
//! chunk's RNG stream depends only on `(seed, chunk_index)`, so the thread
//! count can reorder *when* chunks run but never *what* they compute; the
//! merge happens in chunk-index order on the calling thread. These tests
//! pit `threads ∈ {1, 2, 3, 8}` against each other on every aggregate kind
//! and on an order-sensitive checksum of the raw RNG streams.

mod common;

use common::Checksum;
use montecarlo::{BernoulliEstimate, Histogram, Runner, Seed, Welford, CHUNK_WIDTH};
use rand::Rng;

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 1234;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Serializes tests that toggle the process-global recording flag, so a
/// test that briefly disables recording cannot starve a concurrent test
/// that asserts metrics advanced.
fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn bernoulli_identical_across_thread_counts() {
    let run = |threads| {
        Runner::new(Seed(2011))
            .with_threads(threads)
            .run::<BernoulliEstimate, _>(TRIALS, || (), |_, rng| rng.gen_bool(0.37), None)
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    assert_eq!(base.trials(), TRIALS);
    for threads in THREADS {
        assert_eq!(run(threads), base, "bernoulli drifted at threads={threads}");
    }
}

#[test]
fn mean_identical_across_thread_counts() {
    // Exact f64 equality: merge order is pinned to chunk index, so even
    // non-associative floating-point accumulation cannot drift.
    let run = |threads| {
        Runner::new(Seed(2012))
            .with_threads(threads)
            .run::<Welford, _>(TRIALS, || (), |_, rng| rng.gen_range(0.0..1.0), None)
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    for threads in THREADS {
        let w = run(threads);
        assert_eq!(w, base, "welford state drifted at threads={threads}");
        assert_eq!(w.mean().to_bits(), base.mean().to_bits());
        assert_eq!(
            w.sample_variance().to_bits(),
            base.sample_variance().to_bits()
        );
    }
}

#[test]
fn histogram_identical_across_thread_counts() {
    let run = |threads| {
        Runner::new(Seed(2013))
            .with_threads(threads)
            .run::<Histogram, _>(
                TRIALS,
                || (),
                |_, rng| u64::from(rng.gen_range(0..16u32)),
                None,
            )
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    assert_eq!(base.total(), TRIALS);
    for threads in THREADS {
        assert_eq!(run(threads), base, "histogram drifted at threads={threads}");
    }
}

#[test]
fn run_reports_identical_across_thread_counts() {
    let run = |threads| {
        Runner::new(Seed(2014))
            .with_threads(threads)
            .run::<BernoulliEstimate, _>(TRIALS, || (), |_, rng| rng.gen_bool(0.5), None)
            .expect("panic-free run")
            .0
    };
    let base = run(1);
    assert_eq!(base.trials_completed, TRIALS);
    for threads in THREADS {
        assert_eq!(run(threads), base, "RunReport drifted at threads={threads}");
    }
}

#[test]
fn rng_stream_checksum_identical_across_thread_counts() {
    // An order-sensitive polynomial hash over every raw u64 the trial
    // kernel draws: any reordering of trials within a chunk, or of chunk
    // merges, changes the checksum. Deterministic merge order makes the
    // (non-commutative) merge step well-defined.
    let run = |threads| {
        Runner::new(Seed(2015))
            .with_threads(threads)
            .run::<Checksum, _>(TRIALS, || (), |_, rng| rng.gen::<u64>(), None)
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    for threads in THREADS {
        assert_eq!(
            run(threads),
            base,
            "rng checksum drifted at threads={threads}"
        );
    }
}

#[test]
fn scratch_kernels_identical_across_thread_counts() {
    let run = |threads| {
        Runner::new(Seed(2016))
            .with_threads(threads)
            .run::<Histogram, _>(
                TRIALS,
                || Vec::with_capacity(4),
                |buf: &mut Vec<u64>, rng| {
                    buf.clear();
                    buf.extend((0..4).map(|_| u64::from(rng.gen_range(0..8u32))));
                    buf.iter().sum()
                },
                None,
            )
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    for threads in THREADS {
        assert_eq!(
            run(threads),
            base,
            "scratch path drifted at threads={threads}"
        );
    }
}

#[test]
fn rng_stream_checksum_unchanged_by_telemetry() {
    // Telemetry is out-of-band by construction; this pins it empirically.
    // The same order-sensitive checksum as above, with metric recording
    // explicitly enabled, must match at every thread count. (Recording is
    // the default, so the other tests in this suite double as coverage of
    // the instrumented path; this one makes the claim explicit.)
    let _guard = recording_lock();
    obs::set_recording(true);
    let run = |threads| {
        Runner::new(Seed(2015))
            .with_threads(threads)
            .run::<Checksum, _>(TRIALS, || (), |_, rng| rng.gen::<u64>(), None)
            .unwrap()
            .0
            .value
    };
    let base = run(1);
    for threads in THREADS {
        assert_eq!(run(threads), base, "telemetry perturbed threads={threads}");
    }
    assert!(
        obs::snapshot().counter("mc.runner.runs").unwrap_or(0) >= 5,
        "recording was on, runner metrics must have advanced"
    );
}

#[test]
fn repeated_runs_are_stable() {
    // Same seed + same workload twice at an asymmetric thread count: the
    // dynamic chunk-claim order differs run to run, the result must not.
    let run = || {
        Runner::new(Seed(2017))
            .with_threads(3)
            .run::<Welford, _>(TRIALS, || (), |_, rng| rng.gen_range(-1.0..1.0), None)
            .unwrap()
            .0
            .value
    };
    assert_eq!(run(), run());
}
