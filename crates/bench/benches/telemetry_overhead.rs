//! Benchmarks the cost of telemetry on the pool-dispatched survival batch:
//! the identical seeded batch with metric recording on vs. off.
//!
//! Instrumentation is chunk-granular (one histogram record and a handful
//! of relaxed counter ops per 4096 trials), so the two arms should be
//! statistically indistinguishable; the bench exists to catch any future
//! change that sneaks per-trial work into the recording path. The
//! compile-time-disabled build (`montecarlo --no-default-features`)
//! removes even the recording-off residue (one relaxed load per batch).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::{Runner, Seed};
use std::hint::black_box;

/// The end-to-end survival kernel dispatched through the persistent pool.
fn survival_successes(trials: u64, seed: u64, threads: usize) -> u64 {
    let rm = ReliabilityModel::new(MemoryModel::Tso, 2);
    Runner::new(Seed(seed))
        .with_threads(threads)
        .bernoulli_scratch(
            trials,
            move || rm.scratch(),
            move |scratch, rng| rm.simulate_survival_once_scratch(scratch, rng),
        )
        .successes()
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    for trials in [10_000u64, 50_000] {
        for threads in [1usize, 4] {
            let id = format!("{trials}x{threads}");
            group.bench_with_input(
                BenchmarkId::new("recording_on", &id),
                &(trials, threads),
                |b, &(trials, threads)| {
                    obs::set_recording(true);
                    b.iter(|| black_box(survival_successes(trials, 7, threads)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new("recording_off", &id),
                &(trials, threads),
                |b, &(trials, threads)| {
                    obs::set_recording(false);
                    b.iter(|| black_box(survival_successes(trials, 7, threads)));
                    obs::set_recording(true);
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
