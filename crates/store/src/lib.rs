//! Content-addressed result cache for the Monte-Carlo stack.
//!
//! Every kernel run in this workspace is a pure function of a small
//! request tuple (kernel version, reorder matrix, program/settle
//! parameters, seed, chunk width, trial budget)
//! — the runner guarantees bit-identical results for any worker
//! count. This crate turns that purity into reuse:
//!
//! * [`KeySpec`]/[`RequestKey`] canonicalize the tuple into a versioned
//!   string (floats as IEEE-754 bit patterns) and hash it into a stable
//!   128-bit content address ([`KeyHash`]);
//! * [`Store`] serves exact hits from one in-memory map of every live
//!   entry, filled from and appended to one CRC-framed segment file on
//!   disk (torn tails truncated, garbage skipped), and serves
//!   *extensions* — cached whole-chunk prefixes a request of another
//!   trial count can resume from — out of a per-family index;
//! * [`install`]/[`active`] expose one process-global store the core
//!   crates' cache-aware entry points consult.
//!
//! The cache is an accelerator, never an authority: any fault — an
//! unwritable directory, a corrupt segment, a failed append — degrades to
//! a counted miss (`mc.cache.errors`) and the run computes cold, with
//! results bit-identical to an uncached run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod key;
mod segment;
mod store;
mod telemetry;

pub use acc::{
    AccState, BernoulliState, CacheableAcc, CachedPrefix, CachedReport, Entry, HistState, MeanState,
};
pub use key::{fnv1a64, splitmix64, KeyHash, KeySpec, RequestKey, CANON_VERSION, KERNEL_VERSION};
pub use store::{active, clear, install, Lookup, StatsSnapshot, Store, StoreError};
