//! The §2.2 buggy counter, run on the operational multiprocessor.
//!
//! Two (or more) cores each execute `LD x; ADD 1; ST x` with private filler
//! accesses in front; lost increments measure bug manifestation directly.
//!
//! ```text
//! cargo run --release --example atomicity_violation [n_threads]
//! ```

use execsim::{IncrementMachine, SimParams};
use memmodel::fence::FenceKind;
use memmodel::MemoryModel;
use montecarlo::{Runner, Seed};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("thread count"))
        .unwrap_or(2);
    let trials = 50_000u64;
    let filler = 8;

    println!("canonical atomicity violation on {n} simulated cores\n");
    println!("each core runs:  <{filler} private filler ops>; LD x; ADD 1; ST x\n");

    println!(
        "{:<6} {:>12} {:>14} {:>12}",
        "model", "bug rate", "mean final x", "mean cycles"
    );
    for model in MemoryModel::NAMED {
        let params = SimParams::for_model(model);
        let stats = Runner::new(Seed(42)).fold_scratch(
            trials,
            move || IncrementMachine::new(n, filler, params),
            || (0u64, 0i64, 0u64),
            |machine, rng| {
                let out = machine.run(rng).expect("quiesces");
                (out.bug_manifested(), out.shared_value(), out.cycles())
            },
            |acc, (bug, x, cycles)| {
                acc.0 += u64::from(bug);
                acc.1 += x;
                acc.2 += cycles;
            },
            |a, b| {
                a.0 += b.0;
                a.1 += b.1;
                a.2 += b.2;
            },
        );
        println!(
            "{:<6} {:>12.4} {:>14.3} {:>12.1}",
            model.short_name(),
            stats.0 as f64 / trials as f64,
            stats.1 as f64 / trials as f64,
            stats.2 as f64 / trials as f64,
        );
    }

    println!("\nwith a FULL fence before the critical load (the §7 mitigation):\n");
    println!("{:<6} {:>12}", "model", "bug rate");
    for model in [MemoryModel::Tso, MemoryModel::Wo] {
        let params = SimParams::for_model(model);
        let est = Runner::new(Seed(43)).bernoulli_scratch(
            trials,
            move || IncrementMachine::fenced(n, filler, FenceKind::Full, params),
            |machine, rng| machine.run(rng).expect("quiesces").bug_manifested(),
        );
        println!("{:<6} {:>12.4}", model.short_name(), est.point());
    }
    println!("\nThe fence narrows the racy window back to its SC size; the");
    println!("residual bug rate is the unavoidable SC-level race of §2.2.");
}
