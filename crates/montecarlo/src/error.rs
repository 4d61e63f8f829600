//! Typed errors for the Monte-Carlo runner.

use crate::Seed;
use std::fmt;

/// Failure modes of a [`Runner`](crate::Runner) invocation.
///
/// Everything a worker can do wrong is reported through this enum rather
/// than by tearing down the process; see [`Runner::run`](crate::Runner::run).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A worker chunk panicked. The chunk's RNG stream is a pure function
    /// of `(seed, chunk)`, so the failure recurs on any rerun and is
    /// reproducible from this record.
    WorkerPanicked {
        /// Index of the failing chunk.
        chunk: u64,
        /// Master seed of the run.
        seed: Seed,
        /// Stringified panic payload.
        payload: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::WorkerPanicked {
                chunk,
                seed,
                payload,
            } => write!(
                f,
                "monte-carlo chunk {chunk} (seed {}) panicked: {payload}",
                seed.0
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = Error::WorkerPanicked {
            chunk: 3,
            seed: Seed(17),
            payload: "index out of bounds".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("chunk 3"), "{msg}");
        assert!(msg.contains("seed 17"), "{msg}");
        assert!(msg.contains("panicked: "), "{msg}");
        assert!(msg.contains("index out of bounds"), "{msg}");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(Error::WorkerPanicked {
            chunk: 0,
            seed: Seed(1),
            payload: "boom".into(),
        });
        assert!(e.source().is_none());
    }
}
