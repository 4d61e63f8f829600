//! Observables of intermediate settling orders — the random events the
//! paper's Section 4 proof machinery is built on.
//!
//! * `L_µ` of Lemma 4.2: how many contiguous STs sit immediately above the
//!   critical LD in `S_m` (just before the critical LD settles) —
//!   [`l_mu_keyed`], or [`observe_l_mu`] on a materialised program;
//! * the `S_{ST,i}(i)` event of Claim 4.3: whether the bottom instruction
//!   of the settled prefix of `i` rounds is a ST — [`bottom_store_keyed`],
//!   or [`observe_bottom_store`].
//!
//! Both are questions about the bottom of a settled prefix, which is the
//! lazy γ kernel's backward query `Q(r, d)`, "the instruction at depth `d`
//! after round `r`" (see [`crate::lazy`]). The keyed observables answer it
//! on a program given by its key over a [`ProgramShape`], settle only the
//! climbs the bottom of the prefix depends on, and type only the fillers
//! they read; past the lazy kernel's walk budget they settle the prefix
//! forward. The `observe_*` functions settle the prefix forward with
//! [`Settler::settle_rounds`] and read the permutation — the independent
//! route the keyed ones are tested against.
//!
//! For one RNG state, drawing a program key with
//! [`ProgramGenerator::draw_key`](progmodel::ProgramGenerator::draw_key)
//! and calling a keyed observable gives the value, and leaves the RNG in
//! the state, of [`ProgramGenerator::generate`](progmodel::ProgramGenerator::generate)
//! followed by the matching `observe_*` — bit for bit: one program key,
//! then one settle key unless the settler is inert on the program.

use crate::{ProgramShape, SettleScratch, Settler};
use memmodel::OpType;
use progmodel::Program;
use rand::Rng;
use std::fmt;

/// A settled prefix that an observable cannot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix has no instruction, so it has no bottom.
    Empty,
    /// The prefix asks for more rounds than the program has instructions.
    TooLong {
        /// The rounds asked for.
        rounds: usize,
        /// The program's length.
        len: usize,
    },
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::Empty => write!(f, "the bottom of an empty prefix is undefined"),
            PrefixError::TooLong { rounds, len } => {
                write!(
                    f,
                    "cannot settle {rounds} rounds of a {len}-instruction program"
                )
            }
        }
    }
}

impl std::error::Error for PrefixError {}

/// The Claim 4.3 event on the program of key `program_key` over `shape`:
/// whether the bottom instruction of the settled prefix of `i` rounds is a
/// ST. `store_threshold` is the program generator's
/// [`store_threshold`](progmodel::ProgramGenerator::store_threshold).
///
/// Draws one settle key from `rng` unless `settler` is inert on the shape,
/// and agrees bit for bit with [`observe_bottom_store`] on the
/// materialised program (see the module docs).
///
/// # Errors
///
/// [`PrefixError::Empty`] if `i == 0`, [`PrefixError::TooLong`] if `i`
/// exceeds the program's length. Nothing is drawn on error.
pub fn bottom_store_keyed<R: Rng + ?Sized>(
    settler: &Settler,
    shape: &ProgramShape,
    program_key: u64,
    store_threshold: u64,
    i: usize,
    scratch: &mut SettleScratch,
    rng: &mut R,
) -> Result<bool, PrefixError> {
    if i == 0 {
        return Err(PrefixError::Empty);
    }
    if i > shape.len() {
        return Err(PrefixError::TooLong {
            rounds: i,
            len: shape.len(),
        });
    }
    Ok(settler.store_run_keyed(shape, store_threshold, program_key, i, 1, scratch, rng) == 1)
}

/// `L_µ` on the program of key `program_key` over `shape`: settles the
/// instructions above the critical LD and counts the contiguous STs
/// directly above it. `store_threshold` is the program generator's
/// [`store_threshold`](progmodel::ProgramGenerator::store_threshold).
///
/// The prefix is fixed by the shape and may be empty (`L_µ = 0`), so this
/// observable cannot fail. Draws one settle key from `rng` unless
/// `settler` is inert on the shape, and agrees bit for bit with
/// [`observe_l_mu`] on the materialised program (see the module docs).
pub fn l_mu_keyed<R: Rng + ?Sized>(
    settler: &Settler,
    shape: &ProgramShape,
    program_key: u64,
    store_threshold: u64,
    scratch: &mut SettleScratch,
    rng: &mut R,
) -> u64 {
    let m = shape.critical_load_index();
    settler.store_run_keyed(shape, store_threshold, program_key, m, m, scratch, rng)
}

/// Samples `L_µ`: settles the first `m` instructions of `program` (all the
/// fillers) and counts the contiguous STs directly above the critical LD.
///
/// The critical LD has not yet settled, so it still sits at its initial
/// position; the count walks upward from there through the settled prefix.
///
/// # Panics
///
/// Panics if `program`'s critical load is not preceded only by fillers
/// (e.g. a fence between the fillers and the critical pair is fine — it
/// just terminates the ST run).
pub fn observe_l_mu<R: Rng + ?Sized>(settler: &Settler, program: &Program, rng: &mut R) -> u64 {
    let m = program.critical_load_index();
    let settled = settler.settle_rounds(program, m, rng);
    let mut count = 0;
    for pos in (0..m).rev() {
        let instr = program[settled.permutation().at_position(pos)];
        if instr.op_type() == Some(OpType::St) {
            count += 1;
        } else {
            break;
        }
    }
    count
}

/// Samples the Claim 4.3 event: settles the first `i` instructions and
/// reports whether the instruction at the bottom of the settled prefix
/// (position `i − 1`) is a ST.
///
/// # Panics
///
/// Panics if `i == 0` or `i > program.len()`.
pub fn observe_bottom_store<R: Rng + ?Sized>(
    settler: &Settler,
    program: &Program,
    i: usize,
    rng: &mut R,
) -> bool {
    assert!(i >= 1, "the bottom of an empty prefix is undefined");
    let settled = settler.settle_rounds(program, i, rng);
    let instr = program[settled.permutation().at_position(i - 1)];
    instr.op_type() == Some(OpType::St)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::MemoryModel;
    use memmodel::OpType::{Ld, St};
    use progmodel::ProgramGenerator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn l_mu_under_sc_counts_initial_trailing_stores() {
        // SC never reorders, so L_µ is just the run of STs at the end of the
        // initial filler sequence.
        let settler = Settler::for_model(MemoryModel::Sc);
        let p = Program::from_filler_types(&[Ld, St, Ld, St, St]).unwrap();
        assert_eq!(observe_l_mu(&settler, &p, &mut rng(0)), 2);
        let p = Program::from_filler_types(&[St, St, St]).unwrap();
        assert_eq!(observe_l_mu(&settler, &p, &mut rng(0)), 3);
        let p = Program::from_filler_types(&[St, Ld]).unwrap();
        assert_eq!(observe_l_mu(&settler, &p, &mut rng(0)), 0);
        let p = Program::from_filler_types(&[]).unwrap();
        assert_eq!(observe_l_mu(&settler, &p, &mut rng(0)), 0);
    }

    #[test]
    fn bottom_store_under_sc_is_the_initial_type() {
        let settler = Settler::for_model(MemoryModel::Sc);
        let p = Program::from_filler_types(&[St, Ld, St]).unwrap();
        assert!(observe_bottom_store(&settler, &p, 1, &mut rng(0)));
        assert!(!observe_bottom_store(&settler, &p, 2, &mut rng(0)));
        assert!(observe_bottom_store(&settler, &p, 3, &mut rng(0)));
    }

    #[test]
    fn tso_l_mu_is_at_least_the_initial_run() {
        // Under TSO, LDs can only leave the bottom region (never enter it),
        // so the contiguous ST run above the critical LD can only grow
        // relative to SC... for the *same* realisation it is ≥ the initial
        // trailing-store run.
        let settler = Settler::for_model(MemoryModel::Tso);
        for seed in 0..40u64 {
            let p = ProgramGenerator::new(20).generate(&mut rng(seed));
            let types = p.filler_types();
            let initial_run = types.iter().rev().take_while(|&&t| t == St).count() as u64;
            let observed = observe_l_mu(&settler, &p, &mut rng(seed + 500));
            assert!(
                observed >= initial_run,
                "seed {seed}: observed {observed} < initial run {initial_run}"
            );
        }
    }

    #[test]
    fn bottom_store_keyed_rejects_an_empty_prefix() {
        let settler = Settler::for_model(MemoryModel::Tso);
        let gen = ProgramGenerator::new(4);
        let shape = ProgramShape::new(&gen.generate(&mut rng(0)));
        let mut r = rng(1);
        let result = bottom_store_keyed(
            &settler,
            &shape,
            7,
            gen.store_threshold(),
            0,
            &mut SettleScratch::new(),
            &mut r,
        );
        assert_eq!(result, Err(PrefixError::Empty));
        assert_eq!(r, rng(1), "an error draws nothing");
        assert!(PrefixError::Empty.to_string().contains("empty prefix"));
    }

    #[test]
    fn bottom_store_keyed_rejects_more_rounds_than_instructions() {
        let settler = Settler::for_model(MemoryModel::Tso);
        let gen = ProgramGenerator::new(4);
        let shape = ProgramShape::new(&gen.generate(&mut rng(0)));
        let mut scratch = SettleScratch::new();
        let mut r = rng(1);
        let threshold = gen.store_threshold();
        let result = bottom_store_keyed(&settler, &shape, 7, threshold, 7, &mut scratch, &mut r);
        assert_eq!(result, Err(PrefixError::TooLong { rounds: 7, len: 6 }));
        assert_eq!(r, rng(1), "an error draws nothing");
        assert!(result
            .unwrap_err()
            .to_string()
            .contains("7 rounds of a 6-instruction"));
        // The whole program is a valid prefix.
        assert!(
            bottom_store_keyed(&settler, &shape, 7, threshold, 6, &mut scratch, &mut r).is_ok()
        );
    }

    #[test]
    fn keyed_observables_under_sc_read_the_initial_order() {
        let settler = Settler::for_model(MemoryModel::Sc);
        let template = Program::from_filler_types(&[Ld, St, Ld, St, St]).unwrap();
        let shape = ProgramShape::new(&template);
        // p = 1 types every filler a store, p = 0 a load.
        let (all_st, all_ld) = (memmodel::bool_threshold(1.0), memmodel::bool_threshold(0.0));
        let mut scratch = SettleScratch::new();
        let mut r = rng(0);
        assert_eq!(
            l_mu_keyed(&settler, &shape, 3, all_st, &mut scratch, &mut r),
            5
        );
        assert_eq!(
            l_mu_keyed(&settler, &shape, 3, all_ld, &mut scratch, &mut r),
            0
        );
        for i in 1..=5 {
            assert_eq!(
                bottom_store_keyed(&settler, &shape, 3, all_st, i, &mut scratch, &mut r),
                Ok(true)
            );
            assert_eq!(
                bottom_store_keyed(&settler, &shape, 3, all_ld, i, &mut scratch, &mut r),
                Ok(false)
            );
        }
        // The 6th instruction is the critical load, the 7th the critical store.
        assert_eq!(
            bottom_store_keyed(&settler, &shape, 3, all_st, 6, &mut scratch, &mut r),
            Ok(false)
        );
        assert_eq!(
            bottom_store_keyed(&settler, &shape, 3, all_ld, 7, &mut scratch, &mut r),
            Ok(true)
        );
        assert_eq!(r, rng(0), "SC is inert: no settle key is drawn");
    }

    #[test]
    #[should_panic(expected = "empty prefix")]
    fn bottom_store_rejects_zero_prefix() {
        let settler = Settler::for_model(MemoryModel::Sc);
        let p = Program::from_filler_types(&[St]).unwrap();
        let _ = observe_bottom_store(&settler, &p, 0, &mut rng(0));
    }
}
