//! Benchmarks one end-to-end survival trial (Theorem 6.2's pipeline) per
//! model and thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_trial");
    for model in MemoryModel::NAMED {
        for n in [2usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new(model.short_name(), n), &n, |b, &n| {
                let rm = ReliabilityModel::new(model, n);
                let mut rng = SmallRng::seed_from_u64(3);
                b.iter(|| black_box(rm.simulate_survival_once(&mut rng)));
            });
        }
    }
    group.finish();
}

fn bench_trial_scratch(c: &mut Criterion) {
    // The allocation-free kernel on the same pipeline: the per-trial gap to
    // `end_to_end_trial` is what the scratch refactor buys.
    let mut group = c.benchmark_group("end_to_end_trial_scratch");
    for model in MemoryModel::NAMED {
        for n in [2usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new(model.short_name(), n), &n, |b, &n| {
                let rm = ReliabilityModel::new(model, n);
                let mut scratch = rm.scratch();
                let mut rng = SmallRng::seed_from_u64(3);
                b.iter(|| black_box(rm.simulate_survival_once_scratch(&mut scratch, &mut rng)));
            });
        }
    }
    group.finish();
}

fn bench_window_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_windows");
    for n in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let rm = ReliabilityModel::new(MemoryModel::Tso, n);
            let mut rng = SmallRng::seed_from_u64(4);
            b.iter(|| black_box(rm.sample_windows(&mut rng)));
        });
    }
    group.finish();
}

fn bench_window_vector_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_windows_scratch");
    for n in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let rm = ReliabilityModel::new(MemoryModel::Tso, n);
            let mut scratch = rm.scratch();
            let mut rng = SmallRng::seed_from_u64(4);
            b.iter(|| black_box(rm.sample_windows_scratch(&mut scratch, &mut rng).len()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trial,
    bench_trial_scratch,
    bench_window_vector,
    bench_window_vector_scratch
);
criterion_main!(benches);
