//! Multi-series ASCII charts.

use std::fmt::Write as _;

/// Marker glyphs assigned to series in order.
const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// One named data series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

/// A multi-series scatter chart rendered as monospace text.
///
/// Points are plotted with per-series markers on a `width`×`height`
/// character grid, framed by axes annotated with the data ranges, followed
/// by a legend.
///
/// # Example
///
/// ```
/// use textplot::Chart;
///
/// let mut c = Chart::new(30, 8);
/// c.series("a", vec![(0.0, 0.0), (1.0, 1.0)]);
/// c.series("b", vec![(0.0, 1.0), (1.0, 0.0)]);
/// let out = c.render();
/// assert!(out.contains("a") && out.contains("b"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    width: usize,
    height: usize,
    series: Vec<Series>,
    log_y: bool,
    title: Option<String>,
}

impl Chart {
    /// A chart with the given plot-area size in characters (minimum 2×2).
    #[must_use]
    pub fn new(width: usize, height: usize) -> Chart {
        Chart {
            width: width.max(2),
            height: height.max(2),
            series: Vec::new(),
            log_y: false,
            title: None,
        }
    }

    /// Sets a title line.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Chart {
        self.title = Some(title.into());
        self
    }

    /// Plots `y` on a log₁₀ scale (non-positive values are dropped).
    pub fn log_y(&mut self) -> &mut Chart {
        self.log_y = true;
        self
    }

    /// Adds a named series.
    pub fn series(
        &mut self,
        name: impl Into<String>,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> &mut Chart {
        self.series.push(Series {
            name: name.into(),
            points: points.into_iter().collect(),
        });
        self
    }

    /// Renders the chart.
    ///
    /// Empty charts (no finite points) render as a note rather than
    /// panicking.
    #[must_use]
    pub fn render(&self) -> String {
        let transform = |&(x, y): &(f64, f64)| -> Option<(f64, f64)> {
            let y = if self.log_y {
                if y <= 0.0 {
                    return None;
                }
                y.log10()
            } else {
                y
            };
            (x.is_finite() && y.is_finite()).then_some((x, y))
        };
        let pts: Vec<(usize, f64, f64)> = self
            .series
            .iter()
            .enumerate()
            .flat_map(|(si, s)| {
                s.points
                    .iter()
                    .filter_map(transform)
                    .map(move |(x, y)| (si, x, y))
            })
            .collect();
        if pts.is_empty() {
            return String::from("(empty chart)\n");
        }
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in &pts {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        if xmax == xmin {
            xmax = xmin + 1.0;
        }
        if ymax == ymin {
            ymax = ymin + 1.0;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        for &(si, x, y) in &pts {
            let cx = ((x - xmin) / (xmax - xmin) * (self.width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (self.height - 1) as f64).round() as usize;
            let row = self.height - 1 - cy;
            grid[row][cx] = MARKERS[si % MARKERS.len()];
        }

        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let ylab = |v: f64| {
            if self.log_y {
                format!("1e{v:.1}")
            } else {
                format!("{v:.4}")
            }
        };
        let top = ylab(ymax);
        let bottom = ylab(ymin);
        let label_w = top.len().max(bottom.len());
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                top.clone()
            } else if i == self.height - 1 {
                bottom.clone()
            } else {
                String::new()
            };
            let _ = writeln!(out, "{label:>label_w$} |{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "{:>label_w$} +{}", "", "-".repeat(self.width));
        let _ = writeln!(
            out,
            "{:>label_w$}  {:<w2$}{:>w2$}",
            "",
            format!("{xmin:.3}"),
            format!("{xmax:.3}"),
            w2 = self.width / 2
        );
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} {}", MARKERS[si % MARKERS.len()], s.name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chart_is_graceful() {
        assert_eq!(Chart::new(10, 5).render(), "(empty chart)\n");
        let mut c = Chart::new(10, 5);
        c.series("nan", vec![(f64::NAN, 1.0)]);
        assert_eq!(c.render(), "(empty chart)\n");
    }

    #[test]
    fn extremes_land_on_corners() {
        let mut c = Chart::new(11, 5);
        c.series("s", vec![(0.0, 0.0), (10.0, 4.0)]);
        let out = c.render();
        let rows: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 5);
        // Max point at top-right, min at bottom-left of the plot area.
        assert_eq!(rows[0].chars().last().unwrap(), '*');
        let bottom_plot = rows[4].split('|').nth(1).unwrap();
        assert_eq!(bottom_plot.chars().next().unwrap(), '*');
    }

    #[test]
    fn legend_lists_all_series_with_distinct_markers() {
        let mut c = Chart::new(10, 4);
        c.series("alpha", vec![(0.0, 0.0)]);
        c.series("beta", vec![(1.0, 1.0)]);
        let out = c.render();
        assert!(out.contains("* alpha"));
        assert!(out.contains("o beta"));
    }

    #[test]
    fn log_scale_drops_nonpositive() {
        let mut c = Chart::new(10, 4);
        c.log_y()
            .series("s", vec![(0.0, 0.0), (1.0, 10.0), (2.0, 100.0)]);
        let out = c.render();
        // Only the two positive points plot; axis labels show exponents.
        assert!(out.contains("1e2.0"));
        assert!(out.contains("1e1.0"));
    }

    #[test]
    fn title_is_first_line() {
        let mut c = Chart::new(10, 4);
        c.title("Figure 9").series("s", vec![(0.0, 1.0)]);
        assert!(c.render().starts_with("Figure 9\n"));
    }

    #[test]
    fn degenerate_ranges_do_not_divide_by_zero() {
        let mut c = Chart::new(10, 4);
        c.series("point", vec![(3.0, 3.0), (3.0, 3.0)]);
        let out = c.render();
        assert!(out.contains('*'));
    }
}
