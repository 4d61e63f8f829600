//! Benchmarks the content-addressed result store's hot paths: request-key
//! canonicalization + hashing, LRU lookup, and the full cache-served run
//! against the simulation it replaces.
//!
//! The interesting number is the last group: a warm `lookup` must be
//! orders of magnitude cheaper than `simulate`, or the cache seam in the
//! core entry points is overhead rather than an accelerator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use std::hint::black_box;
use std::sync::Arc;

const TRIALS: u64 = 64 * montecarlo::CHUNK_WIDTH;
const SEED: u64 = 0xBE7C;

fn spec(seed: u64) -> store::KeySpec {
    store::KeySpec {
        kernel: format!("{}/survival", store::KERNEL_VERSION),
        matrix: MemoryModel::Tso.matrix().to_string(),
        threads_n: 2,
        filler_m: 64,
        p_bits: 0.5f64.to_bits(),
        settle_bits: [0u64; 4],
        fence_pass_bits: 0,
        acquire_fence: false,
        seed,
        chunk_width: montecarlo::CHUNK_WIDTH,
    }
}

fn bench_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_key");
    group.bench_function("canonicalize_and_hash", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(spec(seed).request(TRIALS, None).hash())
        });
    });
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    // A store pre-populated with `n` entries; the measured lookup walks
    // the exact-hit path (key hash + canonical-string guard + LRU bump).
    let mut group = c.benchmark_group("store_lookup");
    for n in [16u64, 256, 4096] {
        let s = store::Store::in_memory();
        let mut keys = Vec::new();
        for seed in 0..n {
            let key = spec(seed).request(TRIALS, None);
            let est = ReliabilityModel::new(MemoryModel::Tso, 2).simulate_survival(8, seed);
            let report = montecarlo::RunReport {
                value: est,
                trials_requested: TRIALS,
                trials_completed: TRIALS,
                converged_early: false,
                degraded: false,
                abandoned_chunks: 0,
                elapsed: std::time::Duration::ZERO,
            };
            let cached = store::CachedReport::from_report(&report).expect("clean report");
            s.insert(&key, cached, Vec::new());
            keys.push(key);
        }
        group.bench_with_input(BenchmarkId::new("hit", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % keys.len();
                match s.lookup(&keys[i]) {
                    store::Lookup::Hit(e) => black_box(e.report.trials_completed),
                    _ => panic!("populated key must hit"),
                }
            });
        });
    }
    group.finish();
}

fn bench_cached_run(c: &mut Criterion) {
    // The end-to-end comparison the cache exists for: the same survival
    // request served by simulation vs by a warm store through the normal
    // cache-aware entry point.
    let mut group = c.benchmark_group("store_replay");
    group.sample_size(10);
    let rm = ReliabilityModel::new(MemoryModel::Tso, 2);
    let trials = 4 * montecarlo::CHUNK_WIDTH;

    group.bench_function("simulate", |b| {
        store::clear();
        b.iter(|| black_box(rm.simulate_survival(trials, SEED)));
    });

    group.bench_function("warm_lookup", |b| {
        store::install(Arc::new(store::Store::in_memory()));
        let _ = rm.simulate_survival(trials, SEED);
        b.iter(|| black_box(rm.simulate_survival(trials, SEED)));
        store::clear();
    });
    group.finish();
}

criterion_group!(benches, bench_keys, bench_lookup, bench_cached_run);
criterion_main!(benches);
