//! The settling process (§3.1.2 / Appendix A.2): randomized instruction
//! reordering under a memory consistency model.
//!
//! Settling proceeds in one round per instruction, in program order. In
//! round `r`, instruction `x_r` repeatedly swaps with the instruction
//! directly before it in the current order; each swap succeeds with the
//! model's pair probability (`0` when the model forbids the reordering,
//! `s = 1/2` canonically otherwise), and always fails between instructions
//! that access the same location — in particular between the critical store
//! and the critical load.
//!
//! The crate provides:
//!
//! * [`Settler`] — the process itself, configurable by [`memmodel`] matrix,
//!   per-pair probabilities, and fence pass-probability;
//! * [`Settled`] — the resulting permutation with critical-window accessors;
//! * [`SettleScratch`] — reusable buffers for the allocation-free kernels
//!   ([`Settler::settle_into`] / [`Settler::sample_gamma_scratch`]);
//! * [`ProgramShape`] — the fixed part of a family of random programs, over
//!   which [`Settler::sample_gammas_keyed`] settles a program given only
//!   its key;
//! * [`lazy`] — the γ kernel behind [`Settler::sample_gamma`] and friends,
//!   which settles only the climbs the critical window depends on;
//! * [`SettleTrace`] — a round-by-round trace (reproduces the paper's
//!   Figure 1);
//! * [`events`] — observables of the intermediate order `S_m` used by
//!   Lemma 4.2 and Claim 4.3, read by the lazy kernel's lookups on a keyed
//!   program or off a forward settle;
//! * [`exact`] — exhaustive finite-`m` settling distributions for small
//!   programs (a third, fully exact evaluation route);
//! * [`beta`] — the single-round insertion-point distribution of
//!   Appendix A.2, Definition 2.
//!
//! # The settle RNG contract
//!
//! A settle draws exactly one `u64` from the caller's RNG, its *settle
//! key* — or nothing when the settler is inert
//! on the program (no relaxed pair and no hoistable fence, e.g. SC), whose
//! settled order is then the identity. Attempt `k` of round `r` (the
//! mover's `k`-th swap attempt) succeeds iff
//! [`attempt_draw`]`(key, r, k)` — output `r·2³² + k` of the SplitMix64
//! stream seeded with the key, as a 53-bit integer — is below the pair's
//! [`bool_threshold`]. BLOCKED (`p = 0`) and CERTAIN (`p = 1`) attempts
//! read nothing. Every route reads the same addresses: the packed forward
//! kernel under [`Settler::settle`], [`Settler::settle_rounds`] and
//! [`Settler::settle_into`]; the general one under [`SettleTrace`]; and the
//! lazy γ kernel, which reads only the attempts γ depends on. So for a
//! given RNG state all of them agree bit for bit, and each leaves the RNG
//! in the same state.
//!
//! A keyed program (`progmodel`'s program-key contract) reads its filler
//! types from the same primitive, [`memmodel::addressed_uniform`], so
//! [`Settler::sample_gammas_keyed`] may type only the fillers γ depends
//! on and still agree bit for bit with regenerating the program and
//! calling [`Settler::sample_gammas_scratch`].
//!
//! # Example
//!
//! ```
//! use memmodel::MemoryModel;
//! use progmodel::ProgramGenerator;
//! use settle::Settler;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let program = ProgramGenerator::new(32).generate(&mut rng);
//! let settler = Settler::for_model(MemoryModel::Tso);
//! let settled = settler.settle(&program, &mut rng);
//! // The critical pair stays ordered, whatever happened in between.
//! assert!(settled.position_of(program.critical_load_index())
//!     < settled.position_of(program.critical_store_index()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beta;
pub mod events;
pub mod exact;
pub mod lazy;
mod perm;
mod process;
mod trace;

pub use perm::{NotAPermutation, Permutation};
pub use memmodel::bool_threshold;
pub use process::{attempt_draw, ProgramShape, SettleScratch, Settled, Settler};
pub use trace::{SettleTrace, TraceRound};
