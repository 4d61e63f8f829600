//! The individual experiments, one module per paper artifact.

pub mod clm43;
pub mod cor52;
pub mod f1;
pub mod f2;
pub mod fence;
pub mod general;
pub mod lem42;
pub mod litmus;
pub mod opsim;
pub mod pso;
pub mod t1;
pub mod thm41;
pub mod thm51;
pub mod thm61;
pub mod thm62;
pub mod thm63;

use progmodel::ProgramGenerator;
use settle::{ProgramShape, SettleScratch};

/// A worker's scratch for the keyed Section 4 observables over programs of
/// `m` fillers: their shape, and settle buffers.
fn keyed_scratch(m: usize) -> (ProgramShape, SettleScratch) {
    let template = ProgramGenerator::all_loads(m).expect("canonical program shape is valid");
    (ProgramShape::new(&template), SettleScratch::with_capacity(template.len()))
}
