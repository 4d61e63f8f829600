//! Monte-Carlo harness: deterministic RNG fan-out, parallel trial runners,
//! and streaming statistics.
//!
//! Every simulation in this workspace is driven through this crate so that
//! results are (a) reproducible from a single master seed — bit-for-bit
//! identical for any worker-thread count, because trials are tiled into
//! fixed-width chunks whose RNG streams depend only on `(seed, chunk)` —
//! and (b) cheap to parallelise: work is dispatched through a persistent
//! process-wide [`pool`] instead of spawning threads per run. Each chunk
//! runs once behind an unwind boundary: a panic becomes a typed
//! [`Error::WorkerPanicked`] plus a crash dossier, and is never retried —
//! a chunk that is a pure function of `(seed, chunk)` panics again on any
//! rerun. The [`fault`] engine injects the faults a run can meet. The
//! statistical layer provides Wilson confidence intervals
//! for proportions, Welford accumulators for means, and a chi-square
//! goodness-of-fit test (against the exact laws from the `analytic` crate).
//!
//! # Example
//!
//! ```
//! use montecarlo::{BernoulliEstimate, Runner, Seed};
//! use rand::Rng;
//!
//! // Estimate Pr[coin == heads] with a deterministic seed: no scratch, no
//! // resumed prefix.
//! let runner = Runner::new(Seed(42)).with_threads(2);
//! let (report, _prefixes) = runner
//!     .run::<BernoulliEstimate, _>(10_000, || (), |_, rng| rng.gen_bool(0.5), None)
//!     .expect("the trial never panics");
//! let (lo, hi) = report.value.wilson_ci(0.999);
//! assert!(lo < 0.5 && 0.5 < hi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chi2;
mod converge;
mod error;
pub mod fault;
mod hist;
pub mod pool;
mod rng;
mod runner;
mod stats;
mod telemetry;

pub use chi2::{chi_square_gof, GofResult};
pub use converge::EstimatorStats;
pub use error::Error;
pub use hist::Histogram;
pub use rng::{splitmix64, task_rng, Seed};
pub use runner::{default_threads, Accumulator, ChunkPrefix, RunReport, Runner, CHUNK_WIDTH};
pub use stats::{normal_quantile, BernoulliEstimate, GridSample, Welford, WelfordGrid};
