//! Rendering of the paper's Table 1.

use crate::MemoryModel;
use crate::OpType::{Ld, St};
use std::fmt::Write as _;

/// Renders the paper's Table 1 ("Important memory models") as plain text.
///
/// A `X` in column `ST/LD` means the ordering restriction from stores to
/// later loads can be relaxed; blank means it is enforced.
///
/// ```
/// let t = memmodel::render_table1();
/// assert!(t.contains("Total Store Order"));
/// assert!(t.lines().count() >= 5);
/// ```
#[must_use]
pub fn render_table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:^6}{:^6}{:^6}{:^6} Name",
        "ST/ST", "ST/LD", "LD/ST", "LD/LD"
    );
    for model in MemoryModel::NAMED {
        let m = model.matrix();
        let mark = |e, l| if m.allows(e, l) { "X" } else { " " };
        let _ = writeln!(
            out,
            "{:^6}{:^6}{:^6}{:^6} {}",
            mark(St, St),
            mark(St, Ld),
            mark(Ld, St),
            mark(Ld, Ld),
            model.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_all_four_model_names() {
        let t = render_table1();
        for m in MemoryModel::NAMED {
            assert!(t.contains(m.name()), "missing {}", m.name());
        }
    }

    #[test]
    fn sc_row_has_no_marks_and_wo_has_four() {
        let t = render_table1();
        let sc_row = t
            .lines()
            .find(|l| l.contains("Sequential Consistency"))
            .unwrap();
        assert!(!sc_row.contains('X'));
        let wo_row = t.lines().find(|l| l.contains("Weak Ordering")).unwrap();
        assert_eq!(wo_row.matches('X').count(), 4);
    }

    #[test]
    fn tso_row_has_exactly_one_mark() {
        let t = render_table1();
        let row = t.lines().find(|l| l.contains("Total Store Order")).unwrap();
        assert_eq!(row.matches('X').count(), 1);
    }

    #[test]
    fn header_lists_column_order() {
        let header = render_table1().lines().next().unwrap().to_owned();
        let positions: Vec<_> = ["ST/ST", "ST/LD", "LD/ST", "LD/LD"]
            .iter()
            .map(|c| header.find(c).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }
}
