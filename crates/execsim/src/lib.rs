//! An operational lock-step multiprocessor simulator.
//!
//! The paper's model abstracts real hardware mechanisms — store buffers
//! (TSO/PSO) and out-of-order issue (WO) — into the settling process. This
//! crate implements those mechanisms *operationally*: little cores with
//! registers, a two-phase-commit shared memory (loads observe the state at
//! the beginning of a cycle, stores commit at its end — exactly §3.2's
//! timing semantics), per-model reordering machinery, and geometric start
//! staggering mirroring the shift process.
//!
//! Running the §2.2 canonical increment (`LD x; ADD 1; ST x`) on `n` cores
//! and checking whether the final value of `x` equals `n` gives a
//! ground-truth bug-manifestation measurement to compare against the
//! abstract model (experiment EXP-OPSIM in DESIGN.md). Repeated trials of
//! that workload reuse one [`IncrementMachine`], which resets the cores,
//! programs and memory in place and draws exactly what building the
//! workload and a fresh [`Machine`] would.
//!
//! # Example
//!
//! ```
//! use execsim::{increment_workload, Machine, SimParams};
//! use memmodel::MemoryModel;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(5);
//! let programs = increment_workload(2, 4, &mut rng);
//! let params = SimParams::for_model(MemoryModel::Tso);
//! let mut machine = Machine::new(programs, params, &mut rng);
//! let outcome = machine.run(&mut rng).expect("terminates");
//! // Either both increments landed (x == 2) or the race lost one (x == 1).
//! assert!(outcome.shared_value() == 1 || outcome.shared_value() == 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod cpu;
mod isa;
pub mod litmus;
mod machine;
pub mod timeline;
mod memory;
mod workload;

pub use buffer::StoreBuffer;
pub use cpu::{Cpu, CpuState, StepEvent};
pub use isa::{CoreProgram, Op, Reg};
pub use machine::{run_increment_trial, IncrementMachine, Machine, Outcome, RunError, SimParams};
pub use memory::SharedMemory;
pub use workload::{increment_workload, increment_workload_fenced, CANONICAL_FILLER};
