//! Random program generation (§3.1.1).

use crate::{Program, ProgramError};
use memmodel::{addressed_uniform, bool_threshold, OpType, CANONICAL_P};
use rand::Rng;
use std::fmt;

/// Whether filler `j` of the program with key `key` is a store, for a
/// generator whose [`store_threshold`](ProgramGenerator::store_threshold)
/// is `store_threshold`: iff uniform `j` of the key
/// ([`memmodel::addressed_uniform`]) is below the threshold. This is the
/// whole program-key contract — each filler type is addressed on its own,
/// so a kernel may read only the fillers it needs.
#[must_use]
pub fn filler_is_store(key: u64, j: usize, store_threshold: u64) -> bool {
    addressed_uniform(key, j as u64) < store_threshold
}

fn op_type(store: bool) -> OpType {
    if store {
        OpType::St
    } else {
        OpType::Ld
    }
}

/// Generator of random initial program orders.
///
/// Produces programs of `m` i.i.d. filler operations (`Pr[ST] = p`,
/// `Pr[LD] = 1 − p`) followed by the critical load/store pair — the random
/// process of §3.1.1. The paper's analysis sets `p = 1/2` and lets `m → ∞`;
/// in simulation `m` is finite and the truncation error of every
/// window-related quantity decays geometrically in `m` (each extra filler
/// instruction is reachable by the critical load only through one more
/// successful swap).
///
/// # Example
///
/// ```
/// use progmodel::ProgramGenerator;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(42);
/// let gen = ProgramGenerator::new(32).with_store_probability(0.25).unwrap();
/// let prog = gen.generate(&mut rng);
/// assert_eq!(prog.m(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramGenerator {
    m: usize,
    p: f64,
}

impl ProgramGenerator {
    /// A generator of programs with `m` filler operations and the canonical
    /// store probability `p = 1/2`.
    #[must_use]
    pub fn new(m: usize) -> ProgramGenerator {
        ProgramGenerator { m, p: CANONICAL_P }
    }

    /// Replaces the store probability `p`.
    ///
    /// # Errors
    ///
    /// Returns the invalid value if `p` is not in `[0, 1]`.
    pub fn with_store_probability(mut self, p: f64) -> Result<ProgramGenerator, f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(p);
        }
        self.p = p;
        Ok(self)
    }

    /// The number of filler operations `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The store probability `p`.
    #[must_use]
    pub fn store_probability(&self) -> f64 {
        self.p
    }

    /// The integer draw threshold of the store probability `p` (see
    /// [`memmodel::bool_threshold`]): filler `j` of the program with key
    /// `key` is a store iff [`filler_is_store`]`(key, j, threshold)`.
    #[must_use]
    pub fn store_threshold(&self) -> u64 {
        bool_threshold(self.p)
    }

    /// Draws a program key: the one `u64` a program draws from the
    /// caller's RNG. The program's filler types are a function of the key
    /// alone (see [`filler_is_store`]).
    pub fn draw_key<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }

    /// Draws a random initial program order `S_0` (one program key).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Program {
        Program::from_filler_types(&self.generate_types(rng))
            .expect("generated programs satisfy the model invariants")
    }

    /// Redraws a program's filler operation types in place — the
    /// allocation-free counterpart of [`generate`](ProgramGenerator::generate).
    ///
    /// Locations and roles are fixed across draws of the §3.1.1 process (only
    /// the LD/ST types are random), so regeneration rewrites each filler
    /// memory access with a fresh type and touches nothing else. Like
    /// `generate`, it draws one program key and types filler `j` — the
    /// `j`-th memory access that is neither critical nor a fence, in
    /// program order — by [`filler_is_store`]. So a seeded RNG ends in the
    /// same state whichever route built the program, and fences and the
    /// critical pair change nothing about the draws.
    ///
    /// # Panics
    ///
    /// Panics if the program's filler memory-access count differs from this
    /// generator's `m`.
    pub fn regenerate<R: Rng + ?Sized>(&self, program: &mut Program, rng: &mut R) {
        let key = self.draw_key(rng);
        let threshold = self.store_threshold();
        let mut filler = 0;
        for ins in program.instrs_mut() {
            if ins.is_critical() || ins.is_fence() {
                continue;
            }
            ins.set_mem_op(op_type(filler_is_store(key, filler, threshold)));
            filler += 1;
        }
        assert_eq!(
            filler, self.m,
            "program has {filler} filler memory accesses but the generator draws {}",
            self.m
        );
    }

    /// Draws only the filler type sequence (no allocation of locations);
    /// useful for analytic code that needs the type string alone. One
    /// program key, as [`generate`](ProgramGenerator::generate) draws.
    pub fn generate_types<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<OpType> {
        let key = self.draw_key(rng);
        let threshold = self.store_threshold();
        (0..self.m)
            .map(|j| op_type(filler_is_store(key, j, threshold)))
            .collect()
    }

    /// The all-stores program of size `m` (a deterministic worst case for
    /// TSO window growth: the critical load sits below a run of stores).
    ///
    /// # Errors
    ///
    /// Mirrors [`Program::from_filler_types`].
    pub fn all_stores(m: usize) -> Result<Program, ProgramError> {
        Program::from_filler_types(&vec![OpType::St; m])
    }

    /// The all-loads program of size `m` (TSO window growth is impossible:
    /// the critical load stops immediately).
    ///
    /// # Errors
    ///
    /// Mirrors [`Program::from_filler_types`].
    pub fn all_loads(m: usize) -> Result<Program, ProgramError> {
        Program::from_filler_types(&vec![OpType::Ld; m])
    }
}

impl fmt::Display for ProgramGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProgramGenerator(m={}, p={})", self.m, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_length() {
        let mut rng = SmallRng::seed_from_u64(1);
        for m in [0, 1, 5, 64] {
            let p = ProgramGenerator::new(m).generate(&mut rng);
            assert_eq!(p.m(), m);
            assert_eq!(p.len(), m + 2);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ProgramGenerator::new(32).generate(&mut SmallRng::seed_from_u64(9));
        let b = ProgramGenerator::new(32).generate(&mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_store_probabilities() {
        let mut rng = SmallRng::seed_from_u64(2);
        let all_st = ProgramGenerator::new(50)
            .with_store_probability(1.0)
            .unwrap()
            .generate(&mut rng);
        assert_eq!(all_st.filler_store_count(), 50);
        let all_ld = ProgramGenerator::new(50)
            .with_store_probability(0.0)
            .unwrap()
            .generate(&mut rng);
        assert_eq!(all_ld.filler_store_count(), 0);
    }

    #[test]
    fn store_fraction_close_to_p() {
        let mut rng = SmallRng::seed_from_u64(3);
        let gen = ProgramGenerator::new(10_000)
            .with_store_probability(0.3)
            .unwrap();
        let p = gen.generate(&mut rng);
        let frac = p.filler_store_count() as f64 / 10_000.0;
        assert!(
            (frac - 0.3).abs() < 0.02,
            "store fraction {frac} far from 0.3"
        );
    }

    #[test]
    fn rejects_invalid_probability() {
        assert_eq!(
            ProgramGenerator::new(4).with_store_probability(1.5),
            Err(1.5)
        );
    }

    #[test]
    fn deterministic_patterns() {
        assert_eq!(
            ProgramGenerator::all_stores(3)
                .unwrap()
                .filler_store_count(),
            3
        );
        assert_eq!(
            ProgramGenerator::all_loads(3).unwrap().filler_store_count(),
            0
        );
    }

    #[test]
    fn regenerate_matches_generate_bit_for_bit() {
        // Same seed through either route must yield the same program AND
        // leave the RNG in the same state (identical draw sequence).
        let gen = ProgramGenerator::new(48)
            .with_store_probability(0.35)
            .unwrap();
        let mut scratch = gen.generate(&mut SmallRng::seed_from_u64(999));
        for seed in 0..30 {
            let mut fresh_rng = SmallRng::seed_from_u64(seed);
            let mut reused_rng = fresh_rng.clone();
            let fresh = gen.generate(&mut fresh_rng);
            gen.regenerate(&mut scratch, &mut reused_rng);
            assert_eq!(fresh, scratch, "programs diverged at seed {seed}");
            assert_eq!(fresh_rng, reused_rng, "RNG streams diverged at seed {seed}");
        }
    }

    #[test]
    fn regenerate_skips_fences_and_keeps_draw_parity() {
        let gen = ProgramGenerator::new(16);
        let mut fenced = gen
            .generate(&mut SmallRng::seed_from_u64(5))
            .with_acquire_before_critical();
        let mut a = SmallRng::seed_from_u64(6);
        let mut b = a.clone();
        gen.regenerate(&mut fenced, &mut a);
        let reference = gen.generate(&mut b);
        // Fence survives in place, filler types match the plain draw, and
        // the fence consumed no RNG draws.
        assert!(fenced[fenced.critical_load_index() - 1].is_fence());
        assert_eq!(fenced.filler_types(), reference.filler_types());
        assert_eq!(a, b);
    }

    #[test]
    fn regenerate_preserves_locations_and_roles() {
        let gen = ProgramGenerator::new(8);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut p = gen.generate(&mut rng);
        let locs: Vec<_> = p.iter().map(|i| i.loc()).collect();
        let roles: Vec<_> = p.iter().map(|i| i.role()).collect();
        gen.regenerate(&mut p, &mut rng);
        assert_eq!(p.iter().map(|i| i.loc()).collect::<Vec<_>>(), locs);
        assert_eq!(p.iter().map(|i| i.role()).collect::<Vec<_>>(), roles);
    }

    #[test]
    #[should_panic(expected = "filler memory accesses")]
    fn regenerate_rejects_size_mismatch() {
        let gen = ProgramGenerator::new(4);
        let mut wrong = ProgramGenerator::new(5).generate(&mut SmallRng::seed_from_u64(8));
        gen.regenerate(&mut wrong, &mut SmallRng::seed_from_u64(9));
    }

    #[test]
    fn a_program_draws_exactly_one_key() {
        // Every route draws one u64, whatever m, p or fences, and the
        // filler types are a function of that key alone.
        let one_draw = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let key = rand::RngCore::next_u64(&mut rng);
            (key, rng)
        };
        for (m, p) in [(0usize, 0.5), (1, 0.0), (64, 0.5), (200, 1.0), (37, 0.3)] {
            let gen = ProgramGenerator::new(m).with_store_probability(p).unwrap();
            let (key, after) = one_draw(m as u64);
            let expected: Vec<OpType> = (0..m)
                .map(|j| op_type(filler_is_store(key, j, gen.store_threshold())))
                .collect();

            let mut rng = SmallRng::seed_from_u64(m as u64);
            assert_eq!(gen.generate_types(&mut rng), expected);
            assert_eq!(rng, after, "generate_types m={m}");

            let mut rng = SmallRng::seed_from_u64(m as u64);
            assert_eq!(gen.generate(&mut rng).filler_types(), expected);
            assert_eq!(rng, after, "generate m={m}");

            let mut fenced = gen
                .generate(&mut SmallRng::seed_from_u64(1))
                .with_acquire_before_critical();
            let mut rng = SmallRng::seed_from_u64(m as u64);
            gen.regenerate(&mut fenced, &mut rng);
            assert_eq!(fenced.filler_types(), expected);
            assert_eq!(rng, after, "regenerate m={m}");
        }
    }

    #[test]
    fn generate_types_matches_length() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(ProgramGenerator::new(17).generate_types(&mut rng).len(), 17);
    }
}
