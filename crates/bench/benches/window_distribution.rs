//! Benchmarks the two evaluation paths for the Theorem 4.1 window laws:
//! Monte-Carlo settling vs the analytic partition series (DESIGN.md
//! ablation 1).

use analytic::general::{GeneralWindowLaws, Params};
use analytic::window_law::{PsoLaw, TsoLaw};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memmodel::MemoryModel;
use progmodel::ProgramGenerator;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use settle::Settler;
use std::hint::black_box;

fn bench_settle(c: &mut Criterion) {
    let mut group = c.benchmark_group("settle_one_program");
    for model in MemoryModel::NAMED {
        for m in [16usize, 64, 256] {
            group.bench_with_input(BenchmarkId::new(model.short_name(), m), &m, |b, &m| {
                let settler = Settler::for_model(model);
                let mut rng = SmallRng::seed_from_u64(1);
                let program = ProgramGenerator::new(m).generate(&mut rng);
                b.iter(|| black_box(settler.sample_gamma(&program, &mut rng)));
            });
        }
    }
    group.finish();
}

fn bench_series(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_law_series");
    for depth in [48u32, 96, 192] {
        group.bench_with_input(BenchmarkId::new("tso_law", depth), &depth, |b, &d| {
            b.iter(|| black_box(TsoLaw::with_depth(d, 64)));
        });
    }
    group.bench_function("pso_from_tso_96", |b| {
        let tso = TsoLaw::new();
        b.iter(|| black_box(PsoLaw::from_tso(&tso)));
    });
    group.bench_function("general_laws_canonical", |b| {
        b.iter(|| black_box(GeneralWindowLaws::new(Params::canonical())));
    });
    group.bench_function("general_laws_off_canonical", |b| {
        let params = Params::new(0.3, 0.7, 0.5).expect("valid");
        b.iter(|| black_box(GeneralWindowLaws::new(params)));
    });
    group.finish();
}

criterion_group!(benches, bench_settle, bench_series);
criterion_main!(benches);
