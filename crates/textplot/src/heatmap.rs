//! Grid heatmaps for two-parameter sweeps.

use std::fmt::Write as _;

/// Shade ramp from low to high.
const RAMP: [char; 10] = [' ', '·', ':', '-', '=', '+', '*', '#', '%', '@'];

/// A labelled 2-D heatmap over a dense value grid.
///
/// Rows and columns carry numeric labels; cell values map linearly onto a
/// ten-step character ramp, with the scale printed underneath.
///
/// # Example
///
/// ```
/// use textplot::Heatmap;
///
/// let mut h = Heatmap::new(vec![0.1, 0.5, 0.9], vec![0.1, 0.5, 0.9]);
/// for (i, row) in [[0.0, 0.1, 0.2], [0.3, 0.4, 0.5], [0.6, 0.7, 0.9]].iter().enumerate() {
///     for (j, &v) in row.iter().enumerate() {
///         h.set(i, j, v);
///     }
/// }
/// let out = h.render();
/// assert!(out.contains('@'));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    row_labels: Vec<f64>,
    col_labels: Vec<f64>,
    values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// An empty heatmap with the given axis labels (rows × columns).
    #[must_use]
    pub fn new(row_labels: Vec<f64>, col_labels: Vec<f64>) -> Heatmap {
        let values = vec![vec![f64::NAN; col_labels.len()]; row_labels.len()];
        Heatmap {
            row_labels,
            col_labels,
            values,
        }
    }

    /// Sets cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) -> &mut Heatmap {
        self.values[row][col] = value;
        self
    }

    /// Renders the grid with labels and a scale legend.
    #[must_use]
    pub fn render(&self) -> String {
        let finite: Vec<f64> = self
            .values
            .iter()
            .flatten()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        let (min, max) = finite
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let range = if max > min { max - min } else { 1.0 };
        let shade = |v: f64| -> char {
            if !v.is_finite() {
                return '?';
            }
            let level = ((v - min) / range * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[level.min(RAMP.len() - 1)]
        };
        let mut out = String::new();
        let _ = write!(out, "{:>7} ", "");
        for c in &self.col_labels {
            let _ = write!(out, "{c:>6.2}");
        }
        out.push('\n');
        for (r, row) in self.values.iter().enumerate() {
            let _ = write!(out, "{:>7.2} ", self.row_labels[r]);
            for &v in row {
                let ch = shade(v);
                let _ = write!(out, "{:>6}", format!("{ch}{ch}{ch}"));
            }
            out.push('\n');
        }
        if !finite.is_empty() {
            let _ = writeln!(
                out,
                "scale: '{}' = {min:.4}  ..  '{}' = {max:.4}",
                RAMP[0],
                RAMP[RAMP.len() - 1]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_use_ramp_ends() {
        let mut h = Heatmap::new(vec![0.0, 1.0], vec![0.0, 1.0]);
        h.set(0, 0, 0.0)
            .set(0, 1, 1.0)
            .set(1, 0, 0.5)
            .set(1, 1, 0.25);
        let out = h.render();
        assert!(out.contains("@@@"));
        assert!(out.contains("scale:"));
    }

    #[test]
    fn missing_cells_render_question_marks() {
        let mut h = Heatmap::new(vec![0.0], vec![0.0, 1.0]);
        h.set(0, 0, 3.0);
        let out = h.render();
        assert!(out.contains('?'));
    }

    #[test]
    fn constant_grid_does_not_divide_by_zero() {
        let mut h = Heatmap::new(vec![1.0, 2.0], vec![1.0]);
        h.set(0, 0, 5.0).set(1, 0, 5.0);
        let out = h.render();
        assert!(out.contains("5.0000"));
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let mut h = Heatmap::new(vec![0.0], vec![0.0]);
        h.set(1, 0, 1.0);
    }
}
