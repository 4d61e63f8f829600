//! Memory consistency model definitions.
//!
//! This crate is the bottom layer of the `mmreliab` workspace. It defines the
//! vocabulary used by the probabilistic model of Jaffe et al., *The Impact of
//! Memory Models on Software Reliability in Multiprocessors* (PODC 2011):
//!
//! * [`OpType`] — the two memory-operation types (`LD`, `ST`) that the
//!   program model is built from,
//! * [`ReorderMatrix`] — which of the four ordered operation pairs a model
//!   allows to reorder (the paper's Table 1),
//! * [`SettleProbs`] — the per-pair swap-success probabilities of the
//!   generalised settling process (footnote 3 of the paper),
//! * [`MemoryModel`] — the four named models analysed in the paper
//!   (SC, TSO, PSO, WO) plus fully custom models,
//! * [`fence`] — acquire/release/full fences, the extension sketched in §7;
//! * [`draw`] — the counter-addressed uniforms every seeded kernel reads
//!   ([`addressed_uniform`], [`bool_threshold`]).
//!
//! # Example
//!
//! ```
//! use memmodel::{MemoryModel, OpType};
//!
//! let tso = MemoryModel::Tso;
//! // TSO relaxes exactly the ST -> LD ordering:
//! assert!(tso.matrix().allows(OpType::St, OpType::Ld));
//! assert!(!tso.matrix().allows(OpType::St, OpType::St));
//! assert!(!tso.matrix().allows(OpType::Ld, OpType::St));
//! assert!(!tso.matrix().allows(OpType::Ld, OpType::Ld));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod model;
mod op;
mod probs;
mod table;

pub mod draw;
pub mod fence;

pub use draw::{addressed_uniform, bool_threshold, splitmix64};

pub use matrix::ReorderMatrix;
pub use model::{MemoryModel, ParseMemoryModelError};
pub use op::OpType;
pub use probs::{InvalidProbability, SettleProbs};
pub use table::render_table1;

/// The swap-success probability `s` used throughout the paper's analysis
/// (`s = 1/2`, §3.1.2).
pub const CANONICAL_S: f64 = 0.5;

/// The store probability `p` used throughout the paper's analysis
/// (`p = 1/2`, §3.1.1).
pub const CANONICAL_P: f64 = 0.5;
