//! Regenerates the pinned constants in `tests/golden.rs`.
//!
//! Run after an *intentional* change to the runner's chunk tiling or to the
//! seeded kernels (anything that legitimately shifts seeded streams):
//!
//! ```bash
//! cargo run --release -p mmr-core --example capture_golden
//! ```
//!
//! then paste the printed values over the constants in the golden test.
//! Never run this to "fix" an unexplained drift — that is exactly the
//! regression the golden test exists to catch.

use memmodel::{MemoryModel, OpType};
use mmr_core::ReliabilityModel;
use montecarlo::{BernoulliEstimate, Histogram, Runner, Seed, Welford};
use progmodel::{Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use settle::{SettleScratch, Settler};
use shiftproc::{exchangeable, ShiftProcess, ShiftScratch};

fn main() {
    println!("survival hits (Seed(42), 50_000 trials):");
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, 2);
        let est = Runner::new(Seed(42))
            .with_threads(4)
            .run::<BernoulliEstimate, _>(
                50_000,
                move || rm.scratch(),
                move |scratch, rng| rm.simulate_survival_once_scratch(scratch, rng),
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        println!("    (MemoryModel::{model:?}, {}),", est.successes());
    }

    println!("window histogram counts (Seed(7), 20_000 trials, gammas 0..=5):");
    for model in [MemoryModel::Tso, MemoryModel::Wo] {
        let rm = ReliabilityModel::new(model, 2);
        let settler = *rm.settler();
        let m = rm.filler_len();
        let h = Runner::new(Seed(7))
            .with_threads(4)
            .run::<Histogram, _>(
                20_000,
                move || {
                    let program =
                        Program::from_filler_types(&vec![OpType::Ld; m]).expect("canonical shape");
                    (program, SettleScratch::with_capacity(m + 2))
                },
                move |(program, scratch), rng| {
                    ProgramGenerator::new(m).regenerate(program, rng);
                    settler.sample_gamma_scratch(program, scratch, rng)
                },
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        let counts: Vec<u64> = (0..6).map(|g| h.count(g)).collect();
        println!("    (MemoryModel::{model:?}, {counts:?}),");
    }

    println!("RB factor means (Seed(11), 20_000 trials, n = 6):");
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, 6);
        let stats = Runner::new(Seed(11))
            .with_threads(4)
            .run::<Welford, _>(
                20_000,
                move || rm.scratch(),
                move |scratch, rng| {
                    let windows = rm.sample_windows_scratch(scratch, rng);
                    exchangeable::sample_factor(windows, 2)
                },
                None,
            )
            .expect("panic-free simulation")
            .0
            .value;
        println!("    (MemoryModel::{model:?}, {:e}),", stats.mean());
    }

    println!("raw kernel sequences (WO γ: m = 64, seed 2024; disjointness: seed 77, [2, 2]):");
    let settler = Settler::for_model(MemoryModel::Wo);
    let gen = ProgramGenerator::new(64);
    let mut program = Program::from_filler_types(&[OpType::Ld; 64]).expect("canonical shape");
    let mut scratch = SettleScratch::new();
    let mut rng = SmallRng::seed_from_u64(2024);
    let gammas: Vec<u64> = (0..16)
        .map(|_| {
            gen.regenerate(&mut program, &mut rng);
            settler.sample_gamma_scratch(&program, &mut scratch, &mut rng)
        })
        .collect();
    println!("    gammas {gammas:?}");
    let proc = ShiftProcess::canonical();
    let mut shift_scratch = ShiftScratch::new();
    let mut rng = SmallRng::seed_from_u64(77);
    let outcomes: Vec<usize> = (0..32usize)
        .filter(|_| proc.simulate_disjoint_into(&[2, 2], &mut shift_scratch, &mut rng))
        .collect();
    println!("    disjoint trials {outcomes:?}");
}
