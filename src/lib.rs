//! `mmreliab` — a reproduction of *The Impact of Memory Models on Software
//! Reliability in Multiprocessors* (Jaffe, Moscibroda, Effinger-Dean, Ceze,
//! Strauss; PODC 2011).
//!
//! This facade crate re-exports the workspace layers:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | models | [`memmodel`] | SC/TSO/PSO/WO reorder matrices, settle probabilities, fences |
//! | programs | [`progmodel`] | random LD/ST programs with the canonical atomicity bug |
//! | reordering | [`settle`] | the settling process, traces, Lemma 4.2 observables |
//! | interleaving | [`shiftproc`] | the shift process, exact `Pr[A(γ̄)]`, Theorem 6.1 |
//! | mathematics | [`analytic`] | big rationals, partitions, every closed form in the paper |
//! | simulation | [`montecarlo`] | seeded parallel runners, CIs, chi-square GoF |
//! | hardware | [`execsim`] | operational multiprocessor (store buffers, OoO windows) |
//! | plotting | [`textplot`] | ASCII/SVG rendering of figures and sweeps |
//! | joined model | [`mmr_core`] | [`ReliabilityModel`]: end-to-end survival probabilities |
//!
//! # Quickstart
//!
//! ```
//! use mmreliab::{MemoryModel, ReliabilityModel};
//!
//! // How likely is the canonical atomicity bug to *not* manifest with two
//! // threads under Total Store Order?
//! let model = ReliabilityModel::new(MemoryModel::Tso, 2);
//! let (lo, hi) = model.log2_survival_bounds().expect("named model");
//! assert!(2f64.powf(lo) > 0.13 && 2f64.powf(hi) < 0.14);
//!
//! let measured = model.simulate_survival(10_000, 1).point();
//! assert!(measured > 0.11 && measured < 0.16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analytic;
pub use execsim;
pub use memmodel;
pub use mmr_core;
pub use montecarlo;
pub use progmodel;
pub use settle;
pub use shiftproc;
pub use textplot;

pub use memmodel::{MemoryModel, OpType, ReorderMatrix, SettleProbs};
pub use mmr_core::{ModelComparison, ReliabilityModel, ScalingPoint};
pub use progmodel::{Program, ProgramGenerator};
pub use settle::Settler;
pub use shiftproc::ShiftProcess;

/// Top-level error for the `mmreliab` facade and its CLI.
///
/// Wraps the layer-specific errors so binaries can report one type:
/// configuration problems stay [`Error::InvalidArgs`] (conventionally exit
/// code 2), runtime failures from the simulation layer arrive as
/// [`Error::Simulation`] (exit code 1).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Command-line arguments or configuration were rejected before any
    /// work started. The message is ready to print to stderr.
    InvalidArgs(String),
    /// The monte-carlo layer failed at runtime (for example, a worker
    /// chunk panicked).
    Simulation(montecarlo::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidArgs(msg) => f.write_str(msg),
            Error::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::InvalidArgs(_) => None,
            Error::Simulation(e) => Some(e),
        }
    }
}

impl From<montecarlo::Error> for Error {
    fn from(e: montecarlo::Error) -> Error {
        Error::Simulation(e)
    }
}

#[cfg(test)]
mod error_tests {
    use super::Error;

    #[test]
    fn invalid_args_displays_bare_message() {
        let e = Error::InvalidArgs("--trials must be at least 1".into());
        assert_eq!(e.to_string(), "--trials must be at least 1");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn simulation_error_chains_source() {
        let inner = montecarlo::Error::WorkerPanicked {
            chunk: 3,
            seed: montecarlo::Seed(5),
            payload: "boom".into(),
        };
        let e = Error::from(inner.clone());
        assert!(e.to_string().starts_with("simulation failed:"));
        let src = std::error::Error::source(&e).expect("has source");
        assert_eq!(src.to_string(), inner.to_string());
    }
}
