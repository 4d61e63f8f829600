//! Benchmarks the operational simulator: cycles-to-quiescence cost per
//! model and core count (DESIGN.md ablation 5's machinery).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use execsim::{increment_workload, IncrementMachine, SimParams};
use memmodel::MemoryModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_run");
    for model in MemoryModel::NAMED {
        for n in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(model.short_name(), n),
                &n,
                |b, &n| {
                    let mut rng = SmallRng::seed_from_u64(7);
                    let mut machine = IncrementMachine::new(n, 8, SimParams::for_model(model));
                    b.iter(|| black_box(machine.run(&mut rng).expect("quiesces")));
                },
            );
        }
    }
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("increment_workload_16x32", |b| {
        let mut rng = SmallRng::seed_from_u64(8);
        b.iter(|| black_box(increment_workload(16, 32, &mut rng)));
    });
}

criterion_group!(benches, bench_machine, bench_workload_generation);
criterion_main!(benches);
