//! Theorem 6.3 live: survival probability vs thread count per model.
//!
//! ```text
//! cargo run --release --example thread_scaling
//! ```

use memmodel::MemoryModel;
use mmreliab::mmr_core::scaling_curve_with;
use mmreliab::montecarlo::default_threads;
use textplot::{Chart, Table};

fn main() {
    let ns = [2usize, 3, 4, 6, 8, 12, 16];
    let trials = 60_000;

    println!("Rao-Blackwellised survival estimates (shared-program model):\n");
    let points = scaling_curve_with(&MemoryModel::NAMED, &ns, trials, 2024, default_threads());

    let mut table = Table::new(vec!["n", "model", "log2 Pr[A]", "-log2 Pr[A]/n^2"]);
    for p in &points {
        table.row(vec![
            p.n.to_string(),
            p.model.short_name().into(),
            format!("{:.2}", p.log2_survival),
            format!("{:.4}", p.normalized_exponent),
        ]);
    }
    print!("{}", table.render());

    let mut chart = Chart::new(64, 16);
    chart.title("\n-log2 Pr[A] / n^2 vs n   (all models converge: Theorem 6.3)");
    for model in MemoryModel::NAMED {
        chart.series(
            model.short_name(),
            points
                .iter()
                .filter(|p| p.model == model)
                .map(|p| (p.n as f64, p.normalized_exponent)),
        );
    }
    println!("{}", chart.render());

    // Emit an SVG alongside, demonstrating the figure pipeline.
    let series: Vec<(&str, Vec<(f64, f64)>)> = MemoryModel::NAMED
        .iter()
        .map(|&m| {
            (
                m.short_name(),
                points
                    .iter()
                    .filter(|p| p.model == m)
                    .map(|p| (p.n as f64, p.normalized_exponent))
                    .collect(),
            )
        })
        .collect();
    let svg = textplot::svg::line_chart("normalised exponent vs n", &series, 640, 400);
    let path = std::env::temp_dir().join("thread_scaling.svg");
    if std::fs::write(&path, svg).is_ok() {
        println!("SVG written to {}", path.display());
    }
}
