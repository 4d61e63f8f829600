//! Golden-value regression tests for the seeded estimation pipelines.
//!
//! The constants below pin every seeded estimation result so future changes
//! cannot silently shift it. They were captured under the runner's
//! fixed-width chunk tiling (`montecarlo::CHUNK_WIDTH` trials per chunk,
//! streams keyed on `(seed, chunk)`), which makes them independent of the
//! thread count — `.with_threads(4)` below is arbitrary, any count gives
//! bit-for-bit the same values. To regenerate after an *intentional* change
//! to tiling or kernels, run
//! `cargo run --release -p mmr-core --example capture_golden`. The values
//! were last recaptured when programs moved to one program key with
//! addressed filler types (see `progmodel`'s crate docs).

use memmodel::{MemoryModel, OpType};
use mmr_core::ReliabilityModel;
use montecarlo::{BernoulliEstimate, Histogram, Runner, Seed, Welford};
use progmodel::{Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use settle::{SettleScratch, Settler};
use shiftproc::{exchangeable, ShiftProcess, ShiftScratch};

#[test]
fn survival_hits_are_unchanged_from_prescratch_kernels() {
    // Captured via capture_golden under the fixed-width chunk tiling.
    let expected = [
        (MemoryModel::Sc, 8_148u64),
        (MemoryModel::Tso, 6_771),
        (MemoryModel::Pso, 7_409),
        (MemoryModel::Wo, 6_491),
    ];
    for (model, hits) in expected {
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
        assert_eq!(est.trials(), 50_000);
        assert_eq!(
            est.successes(),
            hits,
            "{model}: seeded survival stream drifted"
        );
    }
}

#[test]
fn window_histograms_are_unchanged_from_prescratch_kernels() {
    // Captured via capture_golden under the fixed-width chunk tiling.
    let expected = [
        (MemoryModel::Tso, [13_274u64, 4_748, 1_466, 374, 104, 28]),
        (MemoryModel::Wo, [13_320, 3_329, 1_666, 807, 426, 238]),
    ];
    for (model, counts) in expected {
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
        assert_eq!(h.total(), 20_000);
        for (gamma, &count) in counts.iter().enumerate() {
            assert_eq!(
                h.count(gamma as u64),
                count,
                "{model}: seeded γ={gamma} count drifted"
            );
        }
    }
}

#[test]
#[allow(clippy::excessive_precision)] // pinned digits are quoted verbatim from the capture run
fn rb_factor_means_are_unchanged_from_prescratch_kernels() {
    // Captured via capture_golden at n = 6. Exact f64 equality: fold and
    // merge order are deterministic (chunk-index order, any thread count),
    // so any deviation means the stream or the arithmetic changed.
    let expected = [
        (MemoryModel::Sc, 1.0f64),
        (MemoryModel::Tso, 2.934_864_569_875_958_5e-1),
        (MemoryModel::Pso, 4.702_849_101_610_452_3e-1),
        (MemoryModel::Wo, 1.738_835_681_401_495_5e-1),
    ];
    for (model, mean) in expected {
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
        assert_eq!(stats.mean(), mean, "{model}: seeded RB factor drifted");
    }
}

#[test]
fn raw_kernel_sequences_are_unchanged() {
    // Single-threaded goldens, independent of the runner: the first 16
    // gamma draws (WO, m = 64, seed 2024) and 32 disjointness draws
    // (seed 77, lengths [2, 2]), captured via capture_golden.
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
    assert_eq!(gammas, [0, 0, 2, 2, 0, 0, 0, 0, 8, 0, 0, 0, 1, 1, 0, 0]);

    let proc = ShiftProcess::canonical();
    let mut shift_scratch = ShiftScratch::new();
    let mut rng = SmallRng::seed_from_u64(77);
    let outcomes: Vec<usize> = (0..32usize)
        .filter(|_| proc.simulate_disjoint_into(&[2, 2], &mut shift_scratch, &mut rng))
        .collect();
    assert_eq!(outcomes, [8, 11], "seeded disjointness stream drifted");
}
