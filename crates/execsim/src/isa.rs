//! The simulator's tiny instruction set.

use memmodel::fence::FenceKind;
use progmodel::Location;
use std::fmt;

/// A register index (the register file holds [`Reg::COUNT`] registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of registers per core.
    pub const COUNT: usize = 8;

    /// The register's index, bounds-checked.
    ///
    /// # Panics
    ///
    /// Panics if the register index is out of range.
    #[must_use]
    pub fn index(self) -> usize {
        let i = usize::from(self.0);
        assert!(i < Reg::COUNT, "register r{i} out of range");
        i
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One machine operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `reg <- memory[loc]`.
    Load {
        /// Destination register.
        reg: Reg,
        /// Source location.
        loc: Location,
    },
    /// `memory[loc] <- reg`.
    Store {
        /// Source register.
        reg: Reg,
        /// Destination location.
        loc: Location,
    },
    /// `reg <- reg + imm` (register-local arithmetic; never reorders
    /// constraints beyond its register dependencies).
    AddImm {
        /// Register updated in place.
        reg: Reg,
        /// Immediate addend.
        imm: i64,
    },
    /// A memory fence.
    Fence(FenceKind),
}

impl Op {
    /// The location this op accesses, if it is a memory access.
    #[must_use]
    pub fn loc(&self) -> Option<Location> {
        match self {
            Op::Load { loc, .. } | Op::Store { loc, .. } => Some(*loc),
            _ => None,
        }
    }

    /// The register this op reads, if any.
    #[must_use]
    pub fn reads_reg(&self) -> Option<Reg> {
        match self {
            Op::Store { reg, .. } | Op::AddImm { reg, .. } => Some(*reg),
            _ => None,
        }
    }

    /// The register this op writes, if any.
    #[must_use]
    pub fn writes_reg(&self) -> Option<Reg> {
        match self {
            Op::Load { reg, .. } | Op::AddImm { reg, .. } => Some(*reg),
            _ => None,
        }
    }

    /// Whether this op is a memory access (load or store).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Load { reg, loc } => write!(f, "LD {reg}, {loc}"),
            Op::Store { reg, loc } => write!(f, "ST {reg}, {loc}"),
            Op::AddImm { reg, imm } => write!(f, "ADD {reg}, {imm}"),
            Op::Fence(k) => write!(f, "{k}"),
        }
    }
}

/// A straight-line program for one core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreProgram {
    ops: Vec<Op>,
}

impl CoreProgram {
    /// An empty program.
    #[must_use]
    pub fn new() -> CoreProgram {
        CoreProgram::default()
    }

    /// Builds from a vector of ops.
    #[must_use]
    pub fn from_ops(ops: Vec<Op>) -> CoreProgram {
        CoreProgram { ops }
    }

    /// Appends one op (builder style).
    pub fn push(&mut self, op: Op) -> &mut CoreProgram {
        self.ops.push(op);
        self
    }

    /// The ops in program order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The ops, to rewrite in place.
    pub(crate) fn ops_mut(&mut self) -> &mut [Op] {
        &mut self.ops
    }

    /// Number of ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for CoreProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    #[test]
    fn register_bounds() {
        assert_eq!(Reg(3).index(), 3);
        assert!(std::panic::catch_unwind(|| Reg(8).index()).is_err());
    }

    #[test]
    fn op_dependencies() {
        let ld = Op::Load {
            reg: R0,
            loc: Location::SHARED,
        };
        assert_eq!(ld.writes_reg(), Some(R0));
        assert_eq!(ld.reads_reg(), None);
        assert_eq!(ld.loc(), Some(Location::SHARED));
        assert!(ld.is_memory());

        let st = Op::Store {
            reg: R1,
            loc: Location::filler(0),
        };
        assert_eq!(st.reads_reg(), Some(R1));
        assert_eq!(st.writes_reg(), None);

        let add = Op::AddImm { reg: R0, imm: 1 };
        assert_eq!(add.reads_reg(), Some(R0));
        assert_eq!(add.writes_reg(), Some(R0));
        assert!(!add.is_memory());

        let fence = Op::Fence(memmodel::fence::FenceKind::Full);
        assert_eq!(fence.loc(), None);
        assert!(!fence.is_memory());
    }

    #[test]
    fn program_builder() {
        let mut p = CoreProgram::new();
        p.push(Op::Load {
            reg: R0,
            loc: Location::SHARED,
        })
        .push(Op::AddImm { reg: R0, imm: 1 });
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.to_string(), "LD r0, X; ADD r0, 1");
    }
}
