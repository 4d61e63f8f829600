//! Benchmarks runner dispatch overhead: the persistent-pool chunk-claiming
//! executor against a local replica of the old per-call scoped-spawn
//! scheduler, over the same end-to-end survival kernel.
//!
//! The kernel cost is identical in both arms, so differences are pure
//! scheduling: thread spawn/join per call (old) vs ticket submission into
//! long-lived workers plus atomic chunk claiming (new). At small batch
//! sizes the spawn cost dominates the old route; the pool amortises it
//! away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::{task_rng, BernoulliEstimate, Runner, Seed};
use std::hint::black_box;

/// The pre-pool dispatch strategy, reconstructed: split the trial range
/// into one contiguous chunk per worker, spawn a scoped thread per chunk
/// (fresh threads on every call), and join them all before returning. The
/// per-chunk RNG fan-out matches the shape of the old runner closely
/// enough for an apples-to-apples scheduling comparison.
fn scoped_spawn_successes(trials: u64, seed: u64, threads: usize) -> u64 {
    let threads = threads.clamp(1, usize::try_from(trials).unwrap_or(usize::MAX).max(1));
    let per = trials / threads as u64;
    let extra = trials % threads as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let count = per + u64::from((t as u64) < extra);
                scope.spawn(move || {
                    let rm = ReliabilityModel::new(MemoryModel::Tso, 2);
                    let mut scratch = rm.scratch();
                    let mut rng = task_rng(Seed(seed), t as u64);
                    let mut hits = 0u64;
                    for _ in 0..count {
                        hits +=
                            u64::from(rm.simulate_survival_once_scratch(&mut scratch, &mut rng));
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// The same batch through the persistent pool (fixed-width chunks claimed
/// off an atomic cursor by long-lived workers).
fn pool_successes(trials: u64, seed: u64, threads: usize) -> u64 {
    let rm = ReliabilityModel::new(MemoryModel::Tso, 2);
    Runner::new(Seed(seed))
        .with_threads(threads)
        .run::<BernoulliEstimate, _>(
            trials,
            move || rm.scratch(),
            move |scratch, rng| rm.simulate_survival_once_scratch(scratch, rng),
            None,
        )
        .expect("panic-free simulation")
        .0
        .value
        .successes()
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner_dispatch");
    for trials in [1_000u64, 10_000] {
        for threads in [1usize, 4] {
            let id = format!("{trials}x{threads}");
            group.bench_with_input(
                BenchmarkId::new("scoped_spawn", &id),
                &(trials, threads),
                |b, &(trials, threads)| {
                    b.iter(|| black_box(scoped_spawn_successes(trials, 5, threads)));
                },
            );
            group.bench_with_input(
                BenchmarkId::new("pool", &id),
                &(trials, threads),
                |b, &(trials, threads)| {
                    b.iter(|| black_box(pool_successes(trials, 5, threads)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
