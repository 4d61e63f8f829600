//! The reorder-relaxation matrix (the paper's Table 1).

use crate::OpType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the four ordered memory-operation pairs may reorder.
///
/// A memory model "can be defined by a subset of the four ordered memory
/// operation pairs, specifying which pairs are allowed to reorder" (§2.1).
/// `allows(earlier, later)` is `true` when an operation of type `later` may
/// complete before an operation of type `earlier` that precedes it in program
/// order — equivalently, when a `later` can *settle past* (swap with) a
/// preceding `earlier` in the settling process (§3.1.2).
///
/// # Example
///
/// ```
/// use memmodel::{OpType, ReorderMatrix};
///
/// // Total Store Order: only ST -> LD is relaxed.
/// let tso = ReorderMatrix::new(false, true, false, false);
/// assert!(tso.allows(OpType::St, OpType::Ld));
/// assert_eq!(tso.relaxed_pairs().count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReorderMatrix {
    /// `relax[earlier.index()][later.index()]`.
    relax: [[bool; 2]; 2],
}

impl ReorderMatrix {
    /// Builds a matrix from the four Table 1 columns, in the paper's column
    /// order: `ST/ST`, `ST/LD`, `LD/ST`, `LD/LD`.
    ///
    /// A `true` in position `ST/LD` means "loads can complete before stores
    /// that precede them in program order".
    #[must_use]
    pub const fn new(st_st: bool, st_ld: bool, ld_st: bool, ld_ld: bool) -> ReorderMatrix {
        // relax[earlier][later] with LD = 0, ST = 1.
        ReorderMatrix {
            relax: [[ld_ld, ld_st], [st_ld, st_st]],
        }
    }

    /// The matrix that relaxes nothing (Sequential Consistency).
    #[must_use]
    pub const fn none() -> ReorderMatrix {
        ReorderMatrix::new(false, false, false, false)
    }

    /// The matrix that relaxes everything (Weak Ordering).
    #[must_use]
    pub const fn all() -> ReorderMatrix {
        ReorderMatrix::new(true, true, true, true)
    }

    /// Returns `true` if an operation of type `later` may reorder before a
    /// program-order-earlier operation of type `earlier`.
    #[must_use]
    pub const fn allows(&self, earlier: OpType, later: OpType) -> bool {
        self.relax[earlier.index()][later.index()]
    }

    /// Returns a copy with the given ordered pair set to `allowed`.
    #[must_use]
    pub const fn with(mut self, earlier: OpType, later: OpType, allowed: bool) -> ReorderMatrix {
        self.relax[earlier.index()][later.index()] = allowed;
        self
    }

    /// Iterates over the ordered pairs `(earlier, later)` that may reorder.
    pub fn relaxed_pairs(&self) -> impl Iterator<Item = (OpType, OpType)> + '_ {
        OpType::ALL.into_iter().flat_map(move |earlier| {
            OpType::ALL
                .into_iter()
                .filter(move |&later| self.allows(earlier, later))
                .map(move |later| (earlier, later))
        })
    }

    /// The number of relaxed ordered pairs (0 for SC, 4 for WO).
    #[must_use]
    pub fn relaxation_count(&self) -> usize {
        self.relaxed_pairs().count()
    }

    /// Returns `true` if every pair relaxed by `self` is also relaxed by
    /// `other`: `self` is at least as strict as `other`.
    ///
    /// This induces the partial order SC ⊑ TSO ⊑ PSO ⊑ WO used by the
    /// paper's stochastic-dominance arguments.
    #[must_use]
    pub fn at_least_as_strict_as(&self, other: &ReorderMatrix) -> bool {
        OpType::ALL.into_iter().all(|e| {
            OpType::ALL
                .into_iter()
                .all(|l| !self.allows(e, l) || other.allows(e, l))
        })
    }
}

impl Default for ReorderMatrix {
    /// Defaults to the strictest matrix (Sequential Consistency).
    fn default() -> ReorderMatrix {
        ReorderMatrix::none()
    }
}

impl fmt::Display for ReorderMatrix {
    /// Renders in Table 1 column order, `X` for relaxed, `.` for enforced.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use OpType::{Ld, St};
        for (earlier, later) in [(St, St), (St, Ld), (Ld, St), (Ld, Ld)] {
            f.write_str(if self.allows(earlier, later) {
                "X"
            } else {
                "."
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpType::{Ld, St};

    #[test]
    fn constructor_column_order_matches_table1() {
        let m = ReorderMatrix::new(true, false, false, false);
        assert!(m.allows(St, St));
        assert!(!m.allows(St, Ld));
        assert!(!m.allows(Ld, St));
        assert!(!m.allows(Ld, Ld));

        let m = ReorderMatrix::new(false, true, false, false);
        assert!(m.allows(St, Ld));
        assert_eq!(m.relaxation_count(), 1);

        let m = ReorderMatrix::new(false, false, true, false);
        assert!(m.allows(Ld, St));

        let m = ReorderMatrix::new(false, false, false, true);
        assert!(m.allows(Ld, Ld));
    }

    #[test]
    fn none_and_all_extremes() {
        assert_eq!(ReorderMatrix::none().relaxation_count(), 0);
        assert_eq!(ReorderMatrix::all().relaxation_count(), 4);
    }

    #[test]
    fn with_toggles_a_single_entry() {
        let m = ReorderMatrix::none().with(St, Ld, true);
        assert!(m.allows(St, Ld));
        assert_eq!(m.relaxation_count(), 1);
        let m = m.with(St, Ld, false);
        assert_eq!(m, ReorderMatrix::none());
    }

    #[test]
    fn strictness_partial_order() {
        let sc = ReorderMatrix::none();
        let tso = ReorderMatrix::new(false, true, false, false);
        let pso = ReorderMatrix::new(true, true, false, false);
        let wo = ReorderMatrix::all();

        assert!(sc.at_least_as_strict_as(&tso));
        assert!(tso.at_least_as_strict_as(&pso));
        assert!(pso.at_least_as_strict_as(&wo));
        assert!(sc.at_least_as_strict_as(&wo));

        assert!(!wo.at_least_as_strict_as(&sc));
        assert!(!pso.at_least_as_strict_as(&tso));

        // Reflexivity.
        for m in [sc, tso, pso, wo] {
            assert!(m.at_least_as_strict_as(&m));
        }
    }

    #[test]
    fn display_is_table1_row() {
        assert_eq!(ReorderMatrix::none().to_string(), "....");
        assert_eq!(ReorderMatrix::all().to_string(), "XXXX");
        assert_eq!(
            ReorderMatrix::new(false, true, false, false).to_string(),
            ".X.."
        );
    }

    #[test]
    fn relaxed_pairs_lists_exactly_the_relaxations() {
        let m = ReorderMatrix::new(true, true, false, false);
        let pairs: Vec<_> = m.relaxed_pairs().collect();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(St, St)));
        assert!(pairs.contains(&(St, Ld)));
    }

    #[test]
    fn default_is_sequential_consistency() {
        assert_eq!(ReorderMatrix::default(), ReorderMatrix::none());
    }
}
