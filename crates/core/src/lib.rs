//! The joined reliability model — the paper's end-to-end contribution.
//!
//! [`ReliabilityModel`] composes the two random processes of the paper
//! (§6, "Joining the Models"):
//!
//! 1. draw one random program (§3.1.1) and settle `n` independent copies of
//!    it under the memory model (§3.1.2), yielding critical-window lengths
//!    `Γ_1 … Γ_n`;
//! 2. feed those lengths as segments into the shift process (§3.2/§5); the
//!    bug fails to manifest exactly when all shifted windows are disjoint.
//!
//! Three evaluation routes are provided per model/thread-count:
//!
//! * **exact / bounds** — Theorem 6.2 constants at `n = 2`, the exact SC
//!   probability at any `n`, and the Claim B.2 sandwich for everything else;
//! * **direct Monte Carlo** — literally simulate the event (feasible while
//!   `Pr[A] ≫ 1/trials`, i.e. `n ≤ 3`); one trial is [`direct_trial`],
//!   which settles a window only when the shift test reads it;
//! * **Rao-Blackwellised estimator** — sample window vectors, evaluate the
//!   disjointness probability conditional on them exactly (Theorem 6.1),
//!   and average; this reaches `n` in the dozens where `Pr[A] ~ e^{-n²}`.
//!
//! # Example
//!
//! ```
//! use mmr_core::ReliabilityModel;
//! use memmodel::MemoryModel;
//!
//! let model = ReliabilityModel::new(MemoryModel::Tso, 2);
//! let est = model.simulate_survival_with(20_000, 7, 2);
//! // Theorem 6.2: TSO survival lies in (0.1315, 0.1369).
//! assert!(est.point() > 0.12 && est.point() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod compare;
mod model;
mod scaling;
mod survival;
mod telemetry;

pub use compare::{ModelComparison, ModelRow};
pub use model::{direct_trial, ReliabilityModel, TrialScratch, DEFAULT_M};
pub use scaling::{scaling_curve_with, ScalingPoint};
pub use survival::{ExchangeabilityPoint, RbSurvival};
