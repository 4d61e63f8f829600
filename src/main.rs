//! `mmreliab` — command-line interface to the reliability model.
//!
//! ```text
//! mmreliab table1
//! mmreliab survival --model tso --threads 2 [--trials N] [--seed S] [--workers W]
//! mmreliab windows  --model wo  [--trials N] [--seed S] [--workers W]
//! mmreliab trace    --model tso [--m M] [--seed S]
//! mmreliab opsim    [--threads N] [--trials N] [--seed S] [--workers W]
//! mmreliab litmus   [--trials N] [--seed S]
//! mmreliab sweep    --param s|p|q [--trials N] [--seed S]
//! mmreliab inspect  ARTIFACT [--diff OTHER]
//! ```
//!
//! Every command also takes the shared flags below.
//!
//! `--threads` is the *simulated* core count `n` of the model; `--workers`
//! is how many OS threads run the Monte-Carlo trials. Workers only change
//! wall-clock time — every result is identical for any worker count.
//!
//! The cache and observability flags are the six `experiments` takes
//! too, parsed, set up and exported by the shared `mmr_bench::cli`
//! layer. `--cache DIR` enables the content-addressed result store: a
//! repeated Monte-Carlo request is served bit-identically from DIR and a
//! grown one resumes from its cached chunk prefixes. `--metrics FILE`
//! writes the process telemetry snapshot at exit as pretty JSON,
//! `--trace FILE` writes the flight-event ring as Chrome trace-event JSON,
//! `--flight FILE` mirrors that ring as CRC-framed `MMRE`
//! lines, `--dossier-dir DIR` collects crash dossiers, and `--quiet`
//! suppresses status lines (errors still print). None of them changes a
//! result. An unusable path warns, the results still print, and the
//! process exits 2.
//!
//! `mmreliab inspect` is `experiments inspect`: it renders a flight log
//! (timeline and histogram; `--diff` compares two logs' payload events),
//! a crash dossier, or a cache or dossier directory.

use memmodel::MemoryModel;
use mmr_bench::cli::SharedFlags;
use mmreliab::analytic::general::{GeneralWindowLaws, Params};
use mmreliab::analytic::window_law::WindowLaws;
use mmreliab::montecarlo::{task_rng, BernoulliEstimate, Runner, Seed};
use mmreliab::settle;
use mmreliab::{ModelComparison, ProgramGenerator, ReliabilityModel};
use textplot::{sparkline, BarChart, Chart, Heatmap, Table};

#[derive(Debug)]
struct Args {
    command: String,
    model: MemoryModel,
    threads: usize,
    trials: u64,
    seed: u64,
    m: usize,
    param: String,
    workers: usize,
    shared: SharedFlags,
    diff: Option<std::path::PathBuf>,
    artifact: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, mmreliab::Error> {
    let mut args = Args {
        command: String::new(),
        model: MemoryModel::Tso,
        threads: 2,
        trials: 100_000,
        seed: 7,
        m: 8,
        param: "s".into(),
        workers: mmreliab::montecarlo::default_threads(),
        shared: SharedFlags::default(),
        diff: None,
        artifact: None,
    };
    let invalid = mmreliab::Error::InvalidArgs;
    let mut it = std::env::args().skip(1);
    args.command = it.next().ok_or_else(|| invalid(usage()))?;
    // Checked before any flag, so an unknown command installs nothing.
    if !COMMANDS.contains(&args.command.as_str()) {
        return Err(invalid(format!(
            "unknown command {}\n{}",
            args.command,
            usage()
        )));
    }
    while let Some(flag) = it.next() {
        if args.shared.parse_flag(&flag, &mut it).map_err(invalid)? {
            continue;
        }
        let mut value = || it.next().ok_or(invalid(format!("{flag} needs a value")));
        match flag.as_str() {
            "--model" => args.model = parse_value(&flag, &value()?, "sc|tso|pso|wo")?,
            "--threads" => {
                args.threads = parse_value(&flag, &value()?, "a positive integer")?;
                if args.threads == 0 {
                    return Err(invalid(format!(
                        "--threads must be at least 1\n{}",
                        usage()
                    )));
                }
            }
            "--trials" => {
                args.trials = parse_value(&flag, &value()?, "a positive integer")?;
                if args.trials == 0 {
                    return Err(invalid(format!("--trials must be at least 1\n{}", usage())));
                }
            }
            "--seed" => args.seed = parse_value(&flag, &value()?, "an unsigned integer")?,
            "--m" => {
                args.m = parse_value(&flag, &value()?, "a positive integer")?;
                if args.m == 0 {
                    return Err(invalid(format!("--m must be at least 1\n{}", usage())));
                }
            }
            "--param" => args.param = value()?,
            "--workers" => {
                args.workers = parse_value(&flag, &value()?, "a positive integer")?;
                if args.workers == 0 {
                    return Err(invalid(format!(
                        "--workers must be at least 1\n{}",
                        usage()
                    )));
                }
            }
            "--diff" => args.diff = Some(value()?.into()),
            other
                if !other.starts_with("--")
                    && args.command == "inspect"
                    && args.artifact.is_none() =>
            {
                args.artifact = Some(other.into());
            }
            other => return Err(invalid(format!("unknown flag {other}\n{}", usage()))),
        }
    }
    Ok(args)
}

/// Parses `flag`'s `value`, naming both when it is not `takes`.
fn parse_value<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    takes: &str,
) -> Result<T, mmreliab::Error> {
    value.parse().map_err(|_| {
        mmreliab::Error::InvalidArgs(format!("{flag} takes {takes}, got {value:?}\n{}", usage()))
    })
}

/// Every command `main` runs.
const COMMANDS: [&str; 8] = [
    "table1", "survival", "windows", "trace", "opsim", "litmus", "sweep", "inspect",
];

fn usage() -> String {
    format!(
        "usage: mmreliab <table1|survival|windows|trace|opsim|litmus|sweep> \
         [--model sc|tso|pso|wo] [--threads N] [--trials N] [--seed S] [--m M] [--param s|p|q] \
         [--workers W] {}\n       \
         mmreliab inspect ARTIFACT [--diff OTHER]",
        mmr_bench::cli::USAGE
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The forensic analyzer is read-only, so it runs before any recorder
    // or cache is set up.
    if args.command == "inspect" {
        cmd_inspect(&args);
    }
    let mut artifacts = args.shared.install(None);
    let result = match args.command.as_str() {
        "table1" => {
            cmd_table1();
            Ok(())
        }
        "survival" => {
            cmd_survival(&args);
            Ok(())
        }
        "windows" => {
            cmd_windows(&args);
            Ok(())
        }
        "trace" => {
            cmd_trace(&args);
            Ok(())
        }
        "opsim" => cmd_opsim(&args),
        "litmus" => {
            cmd_litmus(&args);
            Ok(())
        }
        "sweep" => {
            cmd_sweep(&args);
            Ok(())
        }
        other => unreachable!("parse_args admits no command {other}"),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Telemetry exports run last, so a bad export path never disturbs the
    // results above; their failures join the shared degradation ledger.
    args.shared.export(&mut artifacts);
    std::process::exit(i32::from(artifacts.exit_code(0)));
}

/// The `inspect` command: the shared forensic analyzer.
fn cmd_inspect(args: &Args) -> ! {
    let result = match &args.artifact {
        Some(path) => mmr_bench::inspect::inspect(path, args.diff.as_deref()),
        None => Err(format!("inspect takes an artifact path\n{}", usage())),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

fn cmd_table1() {
    print!("{}", memmodel::render_table1());
}

fn cmd_survival(args: &Args) {
    let rm = ReliabilityModel::new(args.model, args.threads);
    println!(
        "survival Pr[A] for {} threads under {}:\n",
        args.threads, args.model
    );
    if let Some((lo, hi)) = rm.log2_survival_bounds() {
        // log2 beside linear, as on the RB line: at large n the linear
        // values underflow to 0 while the log2 bounds stay finite.
        if (hi - lo).abs() < 1e-12 {
            println!(
                "  paper (exact):       {:.6e}   (log2 = {lo:.2})",
                2f64.powf(lo)
            );
        } else {
            println!(
                "  paper bounds:        ({:.6e}, {:.6e})   (log2 in ({lo:.2}, {hi:.2}))",
                2f64.powf(lo),
                2f64.powf(hi)
            );
        }
    }
    let rb = rm.estimate_survival_rb_with(args.trials, args.seed, args.workers);
    if rb.below_range {
        // The bound is on the sampled estimate only: it can sit under the
        // paper's lower bound on Pr[A].
        println!(
            "  Rao-Blackwellised:   below f64 range   (estimate's log2 < {:.2}, {} samples)\n\
             {:23}the samples do not resolve Pr[A]; the bound is on their estimate only",
            rb.log2_survival, rb.samples, ""
        );
    } else {
        println!(
            "  Rao-Blackwellised:   {:.6e}   (log2 = {:.2}, {} samples)",
            rb.survival(),
            rb.log2_survival,
            rb.samples
        );
    }
    if args.threads <= 3 {
        let direct = rm.simulate_survival_with(args.trials, args.seed ^ 1, args.workers);
        println!("  direct simulation:   {direct}");
    } else {
        println!("  direct simulation:   skipped (Pr[A] ~ e^-n^2 is below MC reach)");
    }
    if args.threads == 2 {
        println!("\nall models at n = 2:\n");
        print!(
            "{}",
            ModelComparison::run_with(2, args.trials, args.seed, args.workers)
        );
    }
}

fn cmd_windows(args: &Args) {
    let rm = ReliabilityModel::new(args.model, 2);
    let h = rm.window_histogram_with(args.trials, args.seed, args.workers);
    let laws = WindowLaws::new();
    println!(
        "critical-window growth gamma under {} ({} samples):\n",
        args.model, args.trials
    );
    let mut table = Table::new(vec!["gamma", "measured", "paper law"]);
    for gamma in 0..=8u64 {
        let paper = laws
            .pmf(args.model, gamma)
            .map(|p| format!("{p:.6}"))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            gamma.to_string(),
            format!("{:.6}", h.pmf(gamma)),
            paper,
        ]);
    }
    print!("{}", table.render());
    let pmf: Vec<f64> = (0..=12).map(|g| h.pmf(g)).collect();
    println!("\nshape: {}", sparkline(&pmf));
    println!("mean gamma: {:.4}", h.mean());
}

fn cmd_trace(args: &Args) {
    let mut rng = task_rng(Seed(args.seed), 0);
    let program = ProgramGenerator::new(args.m).generate(&mut rng);
    println!("initial program: {program}\n");
    let trace = settle::SettleTrace::run(args.model, &program, &mut rng);
    for round in trace.rounds() {
        let labels: Vec<String> = round
            .order
            .iter()
            .map(|&i| {
                let instr = program[i];
                match instr.op_type() {
                    Some(t) if instr.is_critical() => format!("{t}*"),
                    Some(t) => t.to_string(),
                    None => instr.to_string(),
                }
            })
            .collect();
        println!(
            "after round {:>2} (x{} climbed {}): {}",
            round.settling + 1,
            round.settling + 1,
            round.climbed,
            labels.join(" ")
        );
    }
    let settled = trace.final_settled();
    println!(
        "\ngamma = {}, window length = {}",
        settled.gamma(),
        settled.window_len()
    );
}

fn cmd_opsim(args: &Args) -> Result<(), mmreliab::Error> {
    use execsim::{IncrementMachine, SimParams};
    println!(
        "operational bug rate, {} cores, canonical increment ({} trials):\n",
        args.threads, args.trials
    );
    let mut bars = BarChart::new(40);
    for model in MemoryModel::NAMED {
        let params = SimParams::for_model(model);
        let n = args.threads;
        let (report, _) = Runner::new(Seed(args.seed))
            .with_threads(args.workers)
            .run::<BernoulliEstimate, _>(
            args.trials,
            move || IncrementMachine::new(n, 8, params),
            |machine, rng| {
                machine
                    .run(rng)
                    .expect("the increment workload quiesces")
                    .bug_manifested()
            },
            None,
        )?;
        bars.bar(model.short_name(), report.value.point());
    }
    print!("{}", bars.render());
    Ok(())
}

fn cmd_litmus(args: &Args) {
    use execsim::litmus;
    use execsim::SimParams;
    println!("relaxed-outcome frequency ({} runs each):\n", args.trials);
    let mut table = Table::new(vec!["test", "SC", "TSO", "PSO", "WO"]);
    for test in litmus::all() {
        let mut row = vec![test.name.to_string()];
        for model in MemoryModel::NAMED {
            let params = SimParams::for_model(model).without_stagger();
            let mut rng = task_rng(
                Seed(args.seed),
                u64::from(model.matrix().relaxation_count() as u32),
            );
            let count = test.relaxed_outcome_count(params, args.trials, &mut rng);
            row.push(format!("{:.4}", count as f64 / args.trials as f64));
        }
        table.row(row);
    }
    print!("{}", table.render());
}

fn cmd_sweep(args: &Args) {
    if args.param == "grid" {
        return cmd_sweep_grid(args);
    }
    let values = [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    println!(
        "two-thread survival vs {} (analytic general laws):\n",
        args.param
    );
    let mut chart = Chart::new(60, 14);
    chart.title(format!("Pr[A] vs {}", args.param));
    for model in MemoryModel::NAMED {
        let series: Vec<(f64, f64)> = values
            .iter()
            .map(|&v| {
                let params = match args.param.as_str() {
                    "s" => Params::new(0.5, v, 0.5),
                    "p" => Params::new(v, 0.5, 0.5),
                    "q" => Params::new(0.5, 0.5, v),
                    other => {
                        eprintln!("unknown sweep parameter {other} (expected s, p, q, or grid)");
                        std::process::exit(2);
                    }
                }
                .expect("grid values are valid");
                let laws = GeneralWindowLaws::new(params);
                (v, laws.two_thread_survival(model).expect("named model"))
            })
            .collect();
        chart.series(model.short_name(), series);
    }
    print!("{}", chart.render());
    println!("note the TSO/WO crossover as s grows — see EXPERIMENTS.md (EXP-GENERAL).");
}

fn cmd_sweep_grid(args: &Args) {
    // A (p, s) heatmap of the chosen model's two-thread survival.
    let axis = [0.1f64, 0.3, 0.5, 0.7, 0.9];
    println!(
        "two-thread survival Pr[A] over (p rows, s columns) under {}:\n",
        args.model
    );
    let mut h = Heatmap::new(axis.to_vec(), axis.to_vec());
    for (i, &p) in axis.iter().enumerate() {
        for (j, &s) in axis.iter().enumerate() {
            let laws = GeneralWindowLaws::new(Params::new(p, s, 0.5).expect("grid values valid"));
            h.set(
                i,
                j,
                laws.two_thread_survival(args.model).expect("named model"),
            );
        }
    }
    print!("{}", h.render());
    println!("(SC is flat at 1/6 — its window ignores p and s; weak models dim as s grows)");
}
