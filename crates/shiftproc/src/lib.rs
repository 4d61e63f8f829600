//! The shift process (§3.2, §5, Appendix A.3): geometric translations of
//! line segments and the mutual-disjointness event `A(γ̄)`.
//!
//! `n` segments originate at 0 with integer lengths `γ̄ = γ_1 … γ_n`; each is
//! translated by an i.i.d. geometric shift (`Pr[s = k] = 2^-(k+1)`). The
//! event of interest, `A(γ̄)`, is that the shifted closed segments
//! `[s_i, s_i + γ_i]` are pairwise disjoint.
//!
//! In the joined model the segment lengths are the critical-window lengths
//! `Γ = γ + 2` of the reordered threads. Note the paper's convention (which
//! all its constants follow): a segment of length `Γ` occupies `Γ + 1`
//! integer points, so two windows whose endpoints merely touch *overlap* —
//! consistent with §3.2's semantics, where a load observing a value
//! "simultaneous to" the other thread's accesses already manifests the bug.
//!
//! Three independent evaluations of `Pr[A(γ̄)]` are provided and
//! cross-checked:
//!
//! * [`exact::pr_disjoint_perm_sum`] — the literal Theorem 5.1 sum over
//!   `Sym_n` (exponential; `n ≤ 10`);
//! * [`exact::pr_disjoint`] — an `O(2ⁿ·n)` subset dynamic program;
//! * [`ShiftProcess::simulate_disjoint`] — direct Monte-Carlo simulation
//!   (with [`ShiftProcess::simulate_disjoint_into`] as its allocation-free
//!   kernel over a caller-held [`ShiftScratch`], and
//!   [`ShiftProcess::simulate_disjoint_lazy`] reading each length only when
//!   the shifts alone cannot decide an overlap).
//!
//! # Example
//!
//! ```
//! use shiftproc::exact;
//!
//! // Two SC windows (length 2 each): Pr[A] = 1/6 (Theorem 6.2).
//! let p = exact::pr_disjoint(&[2, 2]);
//! assert!((p - 1.0 / 6.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod exchangeable;
mod process;
mod segment;

pub use process::{ShiftProcess, ShiftScratch};
pub use segment::Segment;
