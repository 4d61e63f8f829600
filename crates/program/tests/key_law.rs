//! The law of addressed filler types: under the program-key contract the
//! `m` filler types of a program must still be i.i.d. Bernoulli(`p`), as
//! §3.1.1 asks.
//!
//! Two chi-square families per store probability: the per-position store
//! counts (is each position Bernoulli(`p`)?) and the joint types of
//! adjacent pairs (are neighbours independent?). Adjacent pairs are split
//! into even-aligned `(2i, 2i+1)` and odd-aligned `(2i+1, 2i+2)` sets so
//! the pairs within one set share no position and the statistic is a
//! plain 3-dof goodness of fit. The family of 9 tests is held at
//! α = 1e-3, Bonferroni-split.

use analytic::special::chi_square_sf;
use memmodel::OpType;
use progmodel::ProgramGenerator;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const M: usize = 64;
const PROGRAMS: usize = 20_000;
const PROBABILITIES: [f64; 3] = [0.3, 0.5, 0.7];
const TESTS: f64 = 9.0;
const ALPHA: f64 = 1e-3 / TESTS;

/// The sum of `(observed − expected)² / expected` over the cells.
fn statistic(observed: &[u64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
        .sum()
}

#[test]
fn addressed_filler_types_are_iid_bernoulli() {
    for (i, p) in PROBABILITIES.into_iter().enumerate() {
        let gen = ProgramGenerator::new(M).with_store_probability(p).unwrap();
        let mut rng = SmallRng::seed_from_u64(0x5eed + i as u64);
        let mut stores = [0u64; M];
        // pairs[parity][2·first_is_store + second_is_store]
        let mut pairs = [[0u64; 4]; 2];
        for _ in 0..PROGRAMS {
            let types = gen.generate_types(&mut rng);
            let st: Vec<usize> = types
                .iter()
                .map(|&t| usize::from(t == OpType::St))
                .collect();
            for (count, &s) in stores.iter_mut().zip(&st) {
                *count += s as u64;
            }
            for j in 0..M - 1 {
                pairs[j % 2][2 * st[j] + st[j + 1]] += 1;
            }
        }

        // Per position: Σ (S_j − Np)² / (Np(1 − p)) ~ χ²_M.
        let n = PROGRAMS as f64;
        let positions: f64 = stores
            .iter()
            .map(|&s| (s as f64 - n * p).powi(2) / (n * p * (1.0 - p)))
            .sum();
        let pv = chi_square_sf(positions, M as u64);
        assert!(
            pv > ALPHA,
            "p={p}: per-position store fractions rejected (χ²={positions:.1}, p-value {pv:.2e})"
        );

        // Adjacent pairs against the product law.
        let cell = [(1.0 - p) * (1.0 - p), (1.0 - p) * p, p * (1.0 - p), p * p];
        for (parity, observed) in pairs.iter().enumerate() {
            let total = observed.iter().sum::<u64>() as f64;
            let expected: Vec<f64> = cell.iter().map(|c| c * total).collect();
            let chi2 = statistic(observed, &expected);
            let pv = chi_square_sf(chi2, 3);
            assert!(
                pv > ALPHA,
                "p={p}: adjacent pairs at parity {parity} are not independent \
                 (χ²={chi2:.2}, p-value {pv:.2e}, counts {observed:?})"
            );
        }
    }
}
