//! Watch the race happen: cycle-by-cycle lanes of the canonical increment
//! on the operational simulator — the machine-level analogue of the paper's
//! Figure 2 interleaving picture.
//!
//! ```text
//! cargo run --release --example race_timeline [model] [seed]
//! ```

use execsim::{increment_workload, Machine, SimParams};
use memmodel::MemoryModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let model: MemoryModel = args
        .next()
        .map(|s| s.parse().expect("sc, tso, pso, or wo"))
        .unwrap_or(MemoryModel::Tso);
    let seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(3);

    println!("two cores, canonical increment, model {model}, seed {seed}");
    println!("glyphs: R/W = shared load/store issue, w = shared store visible,");
    println!("        l/s = private load/store, a = add, F = fence, . = idle\n");

    let mut rng = SmallRng::seed_from_u64(seed);
    let programs = increment_workload(2, 6, &mut rng);
    let timeline = Machine::new(programs, SimParams::for_model(model), &mut rng)
        .run_traced(&mut rng)
        .expect("small machines quiesce");
    print!("{}", timeline.render());

    println!();
    for core in 0..2 {
        let load = timeline.shared_load_cycle(core);
        let visible = timeline.shared_store_visible_cycle(core);
        if let (Some(l), Some(v)) = (load, visible) {
            println!(
                "core {core}: read x at cycle {l}, its write became visible at cycle {v} \
                 (operational window {} cycles)",
                v - l
            );
        }
    }
    println!(
        "\nWhen the two [read, visible] spans overlap, one increment reads a stale x\n\
         and the final value drops below 2 — the §2.2 atomicity violation, live."
    );
    println!("Try different seeds and models; under SC the spans are tight (the store\ncommits the same cycle), under TSO/PSO the buffer stretches them.");
}
