//! The probabilistic program model of §3.1.1 / Appendix A.1.
//!
//! A program is a sequence `x_1, …, x_m, x_{m+1}, x_{m+2}` of memory
//! operations. The first `m` are *filler* operations whose types are i.i.d.
//! (`Pr[ST] = p`), each accessing its own distinct location. The last two are
//! the **critical load** and **critical store** of the canonical atomicity
//! violation (§2.2) — the only two operations that access the same (shared)
//! location, and therefore the only pair that can never reorder with each
//! other.
//!
//! # The program-key contract
//!
//! A random program draws exactly one `u64` from the caller's RNG, its
//! *program key* ([`ProgramGenerator::draw_key`]). Filler `j` — the `j`-th
//! memory access in program order that is neither critical nor a fence —
//! is a store iff [`filler_is_store`]`(key, j, threshold)`: uniform `j` of
//! the key's SplitMix64 stream ([`memmodel::addressed_uniform`]) is below
//! the store probability's [`memmodel::bool_threshold`]. The types are
//! i.i.d. Bernoulli(`p`) as §3.1.1 asks, a program can be rebuilt from its
//! key alone, and a kernel that needs only a few filler types (the lazy γ
//! kernel in `settle`) reads just those, never materialising the rest.
//! [`ProgramGenerator::generate`], [`ProgramGenerator::regenerate`] and
//! [`ProgramGenerator::generate_types`] all follow it, so for one RNG
//! state they build the same types and leave the RNG in the same state.
//!
//! # Example
//!
//! ```
//! use progmodel::{Program, ProgramGenerator};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let prog = ProgramGenerator::new(16).generate(&mut rng);
//! assert_eq!(prog.len(), 18);
//! assert_eq!(prog.critical_load_index(), 16);
//! assert_eq!(prog.critical_store_index(), 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod instr;
mod location;
mod program;

pub use gen::{filler_is_store, ProgramGenerator};
pub use instr::{InstrKind, Instruction, Role};
pub use location::Location;
pub use program::{Program, ProgramError};
