//! EXP-F2: Figure 2 — a shift-process instantiation.

use crate::{verdict, Ctx};
use analytic::geom::Geometric;
use shiftproc::Segment;
use std::fmt::Write as _;

/// Reproduces Figure 2: three segments `γ̄ = (3, 2, 5)` shifted by
/// `(8, 0, 2)`; the paper computes the probability of this particular shift
/// as `2^-8-1 · 2^-0-1 · 2^-2-1 = 2^-13`.
pub fn run(_ctx: &Ctx) -> String {
    let lengths = [3u64, 2, 5];
    let shifts = [8u64, 0, 2];

    let mut out = String::new();
    let g = Geometric::half();
    let prob: f64 = shifts.iter().map(|&s| g.pmf(s)).product();
    let _ = writeln!(
        out,
        "shift vector {shifts:?} for lengths {lengths:?}: probability {prob:e} (paper: 2^-13 = {:e})",
        2f64.powi(-13)
    );
    let prob_ok = (prob - 2f64.powi(-13)).abs() < 1e-18;

    // Render the segments on the vertical number line like the figure.
    let segs: Vec<Segment> = lengths
        .iter()
        .zip(shifts)
        .map(|(&l, s)| Segment::new(s, l))
        .collect();
    let top = segs.iter().map(Segment::end).max().unwrap_or(0);
    for level in (0..=top).rev() {
        let mut row = format!("{level:>3} ");
        for s in &segs {
            let mark = if (s.start()..=s.end()).contains(&level) {
                '█'
            } else {
                '·'
            };
            let _ = write!(row, "  {mark}");
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out, "      γ1  γ2  γ3");

    // Under Definition 1's closed-interval convention segments 2 and 3
    // touch at point 2, so the drawn shift is *not* disjoint; the figure's
    // visual (open) reading is. Report both.
    let drawn_disjoint = Segment::all_disjoint(&segs);
    let _ = writeln!(
        out,
        "\ndrawn shift disjoint under Definition 1 (closed intervals): {drawn_disjoint}"
    );
    let _ = writeln!(
        out,
        "(segments 2 and 3 share the point 2 — under the paper's normative closed-interval"
    );
    let _ = writeln!(
        out,
        " convention, which all Theorem 6.2 constants require, touching counts as overlap)"
    );
    let separated = [Segment::new(9, 3), Segment::new(0, 2), Segment::new(3, 5)];
    let _ = writeln!(
        out,
        "one extra step of separation restores disjointness: {}",
        Segment::all_disjoint(&separated)
    );

    let ok = prob_ok && !drawn_disjoint && Segment::all_disjoint(&separated);
    let _ = writeln!(
        out,
        "\nshift probability 2^-13 and overlap semantics: {}",
        verdict(ok)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_figure_2() {
        let out = crate::exp::run_quick(run);
        assert!(out.contains("REPRODUCED"));
        assert!(out.contains("2^-13"));
    }
}
