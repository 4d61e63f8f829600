//! Quickstart: the paper's headline numbers in one screen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mmreliab::montecarlo::default_threads;
use mmreliab::{MemoryModel, ModelComparison, ReliabilityModel};

fn main() {
    println!("The Impact of Memory Models on Software Reliability (PODC 2011)");
    println!("================================================================\n");

    // Table 1: which orderings each model relaxes.
    println!("{}", mmreliab::memmodel::render_table1());

    // Theorem 6.2: with two threads racing on the canonical atomicity
    // violation, how likely is a clean (bug-free) execution?
    println!("Two threads, canonical atomicity violation — survival Pr[A]:\n");
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, 2);
        let (lo, hi) = rm.log2_survival_bounds().expect("named model");
        let (lo, hi) = (2f64.powf(lo), 2f64.powf(hi));
        let paper = if (hi - lo).abs() < 1e-9 {
            format!("= {lo:.6}")
        } else {
            format!("in ({lo:.6}, {hi:.6})")
        };
        println!("  {:<4} paper {paper}", model.short_name());
    }

    // Measure it end-to-end: settle two copies of a random program, shift,
    // and test window disjointness.
    println!("\nMeasured by end-to-end simulation (100k trials):\n");
    let cmp = ModelComparison::run_with(2, 100_000, 7, default_threads());
    print!("{cmp}");

    // The punchline (Theorem 6.3): as threads multiply, the reliability
    // advantage of strict models evaporates.
    println!("\nSurvival collapses like e^(-n^2) for EVERY model (log2 Pr[A]):\n");
    for n in [2usize, 4, 8, 16] {
        let sc = ReliabilityModel::new(MemoryModel::Sc, n)
            .estimate_survival_rb_with(20_000, 11, default_threads())
            .log2_survival;
        let wo = ReliabilityModel::new(MemoryModel::Wo, n)
            .estimate_survival_rb_with(20_000, 13, default_threads())
            .log2_survival;
        println!(
            "  n={n:<3} SC {sc:>9.2}   WO {wo:>9.2}   (gap {:.1} of {:.0} total)",
            (sc - wo).abs(),
            sc.abs()
        );
    }
    println!("\nStrictness buys ever-less as n grows — the paper's takeaway.");
}
