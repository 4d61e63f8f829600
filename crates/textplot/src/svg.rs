//! Minimal SVG export for line charts.

use std::fmt::Write as _;

/// Series colours cycled in order.
const COLORS: [&str; 6] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
];

/// Renders named series as a standalone SVG line chart.
///
/// Axis ranges are data-driven; each series draws as a polyline with a
/// small legend in the top-right corner. Returns a complete `<svg>`
/// document.
///
/// # Example
///
/// ```
/// let svg = textplot::svg::line_chart(
///     "survival vs n",
///     &[("SC", vec![(2.0, 0.1666), (3.0, 0.01)])],
///     480,
///     320,
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[must_use]
pub fn line_chart(
    title: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: u32,
    height: u32,
) -> String {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, p)| p.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if pts.is_empty() {
        xmin = 0.0;
        xmax = 1.0;
        ymin = 0.0;
        ymax = 1.0;
    }
    if xmax == xmin {
        xmax = xmin + 1.0;
    }
    if ymax == ymin {
        ymax = ymin + 1.0;
    }
    let margin = 48.0;
    let (w, h) = (f64::from(width), f64::from(height));
    let sx = |x: f64| margin + (x - xmin) / (xmax - xmin) * (w - 2.0 * margin);
    let sy = |y: f64| h - margin - (y - ymin) / (ymax - ymin) * (h - 2.0 * margin);

    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{width}" height="{height}" fill="white"/>"#
    );
    let _ = write!(
        out,
        r#"<text x="{}" y="20" text-anchor="middle" font-family="monospace" font-size="14">{}</text>"#,
        w / 2.0,
        escape(title)
    );
    // Axes.
    let _ = write!(
        out,
        r#"<line x1="{m}" y1="{b}" x2="{r}" y2="{b}" stroke="black"/><line x1="{m}" y1="{t}" x2="{m}" y2="{b}" stroke="black"/>"#,
        m = margin,
        b = h - margin,
        r = w - margin,
        t = margin,
    );
    // Range labels.
    let _ = write!(
        out,
        r#"<text x="{m}" y="{by}" font-family="monospace" font-size="10">{xmin:.3}</text><text x="{rx}" y="{by}" text-anchor="end" font-family="monospace" font-size="10">{xmax:.3}</text><text x="4" y="{ty}" font-family="monospace" font-size="10">{ymax:.3}</text><text x="4" y="{byy}" font-family="monospace" font-size="10">{ymin:.3}</text>"#,
        m = margin,
        by = h - margin + 14.0,
        rx = w - margin,
        ty = margin + 4.0,
        byy = h - margin,
    );
    for (i, (name, points)) in series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let coords: Vec<String> = points
            .iter()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .map(|&(x, y)| format!("{:.2},{:.2}", sx(x), sy(y)))
            .collect();
        let _ = write!(
            out,
            r#"<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{}"/>"#,
            coords.join(" ")
        );
        let ly = margin + 14.0 * i as f64;
        let _ = write!(
            out,
            r#"<text x="{}" y="{ly}" text-anchor="end" font-family="monospace" font-size="11" fill="{color}">{}</text>"#,
            w - margin - 4.0,
            escape(name)
        );
    }
    out.push_str("</svg>");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_wellformed_document() {
        let svg = line_chart("t", &[("s", vec![(0.0, 0.0), (1.0, 1.0)])], 200, 100);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 1);
    }

    #[test]
    fn empty_series_still_renders_frame() {
        let svg = line_chart("empty", &[], 200, 100);
        assert!(svg.contains("<line"));
        assert!(!svg.contains("polyline"));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = line_chart("a < b & c", &[], 200, 100);
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn one_polyline_per_series() {
        let svg = line_chart(
            "t",
            &[
                ("a", vec![(0.0, 0.0)]),
                ("b", vec![(1.0, 1.0)]),
                ("c", vec![(2.0, 2.0)]),
            ],
            200,
            100,
        );
        assert_eq!(svg.matches("<polyline").count(), 3);
    }
}
