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
//! `--threads` is the *simulated* core count `n` of the model; `--workers`
//! is how many OS threads run the Monte-Carlo trials. Workers only change
//! wall-clock time — every result is identical for any worker count.
//!
//! `--cache DIR` enables the content-addressed result store: a repeated
//! Monte-Carlo request is served bit-identically from DIR and a grown one
//! resumes from its cached chunk prefixes. An unusable DIR degrades to an
//! uncached run with a warning and exits with code 2 after the results
//! print — the same contract as the telemetry exports below.
//!
//! Observability flags (all strictly out-of-band — no result changes):
//! `--metrics FILE` writes the process telemetry snapshot at exit (JSON by
//! default; `--metrics-format prom` switches to Prometheus text
//! exposition), `--trace FILE` writes the span ring as Chrome trace-event
//! JSON, `--progress` enables a throttled stderr heartbeat during long
//! runs, and `--quiet` suppresses status lines (errors still print) and
//! wins over `--progress`. Export failures exit with code 2 after the
//! results have printed.
//!
//! `--flight FILE` mirrors the structured flight-event ring to FILE as
//! CRC-framed `MMRE` lines; `--dossier-dir DIR` writes a crash dossier
//! (last events + metrics snapshot + fault-ledger delta) into DIR on
//! panic or degradation. Both follow the export contract: an unusable
//! path degrades with a warning and exit code 2 after results print.
//! `mmreliab inspect` renders a flight log (timeline, histogram,
//! convergence trajectory; `--diff` compares two logs) or a crash
//! dossier; checkpoint journals and cache directories are handled by the
//! wider `experiments inspect`.
//!
//! `--serve ADDR` starts the live telemetry endpoint (`GET /metrics`,
//! `/events`, `/status` over HTTP/1.0) for the duration of the run.
//! Serving is strictly out-of-band — clients attaching, detaching, or
//! stalling never change a seeded result — and an unusable ADDR follows
//! the same degradation contract as every other artifact flag: warn,
//! run to completion, exit 2.

use memmodel::MemoryModel;
use mmreliab::analytic::general::{GeneralWindowLaws, Params};
use mmreliab::settle;
use mmreliab::analytic::window_law::WindowLaws;
use mmreliab::montecarlo::{task_rng, Runner, Seed};
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
    cache: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
    metrics_prom: bool,
    trace: Option<std::path::PathBuf>,
    flight: Option<std::path::PathBuf>,
    dossier_dir: Option<std::path::PathBuf>,
    diff: Option<std::path::PathBuf>,
    artifact: Option<std::path::PathBuf>,
    serve: Option<String>,
    progress: bool,
    quiet: bool,
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
        workers: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        cache: None,
        metrics: None,
        metrics_prom: false,
        trace: None,
        flight: None,
        dossier_dir: None,
        diff: None,
        artifact: None,
        serve: None,
        progress: false,
        quiet: false,
    };
    let invalid = mmreliab::Error::InvalidArgs;
    let mut it = std::env::args().skip(1);
    args.command = it.next().ok_or_else(|| invalid(usage()))?;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(invalid(format!("{flag} needs a value")));
        match flag.as_str() {
            "--model" => args.model = value()?.parse().map_err(|e| invalid(format!("{e}")))?,
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| invalid(format!("{e}")))?;
                if args.threads == 0 {
                    return Err(invalid(format!("--threads must be at least 1\n{}", usage())));
                }
            }
            "--trials" => {
                args.trials = value()?.parse().map_err(|e| invalid(format!("{e}")))?;
                if args.trials == 0 {
                    return Err(invalid(format!("--trials must be at least 1\n{}", usage())));
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| invalid(format!("{e}")))?,
            "--m" => {
                args.m = value()?.parse().map_err(|e| invalid(format!("{e}")))?;
                if args.m == 0 {
                    return Err(invalid(format!("--m must be at least 1\n{}", usage())));
                }
            }
            "--param" => args.param = value()?,
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| invalid(format!("{e}")))?;
                if args.workers == 0 {
                    return Err(invalid(format!("--workers must be at least 1\n{}", usage())));
                }
            }
            "--cache" => args.cache = Some(value()?.into()),
            "--metrics" => args.metrics = Some(value()?.into()),
            "--metrics-format" => {
                args.metrics_prom = match value()?.as_str() {
                    "prom" => true,
                    "json" => false,
                    other => {
                        return Err(invalid(format!(
                            "--metrics-format takes json or prom, got {other}"
                        )))
                    }
                }
            }
            "--trace" => args.trace = Some(value()?.into()),
            "--flight" => args.flight = Some(value()?.into()),
            "--dossier-dir" => args.dossier_dir = Some(value()?.into()),
            "--diff" => args.diff = Some(value()?.into()),
            "--serve" => args.serve = Some(value()?),
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            other if !other.starts_with("--")
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

fn usage() -> String {
    String::from(
        "usage: mmreliab <table1|survival|windows|trace|opsim|litmus|sweep> \
         [--model sc|tso|pso|wo] [--threads N] [--trials N] [--seed S] [--m M] [--param s|p|q] \
         [--workers W] [--cache DIR] [--metrics FILE] [--metrics-format json|prom] \
         [--trace FILE] [--flight FILE] [--dossier-dir DIR] [--serve ADDR] [--progress] \
         [--quiet]\n       \
         mmreliab inspect ARTIFACT [--diff OTHER]",
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
    if args.quiet {
        obs::log::set_level(obs::log::Level::Quiet);
    }
    // --quiet wins over --progress: quiet means a silent stderr.
    obs::progress::set_enabled(args.progress && !args.quiet);
    obs::set_build_info(obs::BuildInfo::detect(
        env!("CARGO_PKG_VERSION"),
        mmreliab::montecarlo::CHUNK_WIDTH,
    ));
    obs::serve::set_status_ext(Box::new(|| {
        let fields = mmreliab::montecarlo::fault::ledger().snapshot().named_fields();
        let faults = fields
            .iter()
            .map(|&(name, count)| {
                (
                    name.to_string(),
                    serde_json::Value::Number(serde_json::Number::U(count)),
                )
            })
            .collect();
        vec![("faults".to_string(), serde_json::Value::Object(faults))]
    }));
    // Every optional artifact — cache, flight mirror, dossiers, telemetry
    // server — shares one degradation contract: an unusable path or
    // address warns, the run completes with results intact, and the
    // process exits 2. The ledger tracks what degraded.
    let mut artifacts = obs::degrade::Artifacts::new();
    if let Some(dir) = &args.cache {
        if let Some(s) = artifacts.install("result cache", store::Store::open(dir)) {
            obs::info!("result cache at {}", dir.display());
            store::install(std::sync::Arc::new(s));
        }
    }
    if let Some(path) = &args.flight {
        if artifacts
            .install("flight event log", obs::flight::mirror_to(path))
            .is_some()
        {
            obs::info!("flight events mirrored to {}", path.display());
        }
    }
    if let Some(dir) = &args.dossier_dir {
        if artifacts
            .install("crash dossiers", obs::flight::set_dossier_dir(dir))
            .is_some()
        {
            obs::info!("crash dossiers will be written to {}", dir.display());
        }
    }
    // Held for the run's duration; dropping it stops the accept loop.
    let server = args
        .serve
        .as_deref()
        .and_then(|addr| artifacts.install("telemetry server", obs::serve::serve(addr)));
    if let Some(server) = &server {
        // Unconditional (not obs::info!): scripts binding port 0 discover
        // the chosen port from this line.
        eprintln!("serving telemetry on {}", server.addr());
    }
    let result = match args.command.as_str() {
        "table1" => {
            cmd_table1();
            Ok(())
        }
        "inspect" => {
            cmd_inspect(&args);
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
        other => {
            eprintln!("unknown command {other}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Telemetry exports run last, so a bad export path never disturbs the
    // results above; their failures join the shared degradation ledger.
    artifacts.install("telemetry exports", emit_exports(&args));
    drop(server);
    std::process::exit(i32::from(artifacts.exit_code(0)));
}

/// The `inspect` command: renders a flight event log (with an optional
/// `--diff` against a second log), a crash dossier, or a dossier
/// directory. Anything else — journals, cache directories — is the
/// `experiments inspect` analyzer's wider beat.
fn cmd_inspect(args: &Args) {
    let fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2);
    };
    let Some(path) = &args.artifact else {
        fail(format!("inspect takes an artifact path\n{}", usage()));
    };
    let read = |path: &std::path::Path| -> Vec<u8> {
        std::fs::read(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())))
    };
    let parse_flight = |path: &std::path::Path, bytes: &[u8]| -> obs::flight::ParsedLog {
        let parsed = obs::flight::parse_log(&String::from_utf8_lossy(bytes));
        if parsed.torn {
            println!(
                "note: torn tail truncated after {} valid events ({})",
                parsed.events.len(),
                path.display()
            );
        }
        if parsed.skipped > 0 {
            println!(
                "note: {} well-framed line(s) of an unknown version skipped",
                parsed.skipped
            );
        }
        parsed
    };
    let render_dossier_bytes = |path: &std::path::Path, bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        match serde_json::from_str::<obs::flight::Dossier>(&text) {
            Ok(d) => print!("{}", obs::flight::render_dossier(&d)),
            Err(e) => fail(format!("{}: not a crash dossier: {e:?}", path.display())),
        }
    };
    if path.is_dir() {
        let mut names: Vec<String> = std::fs::read_dir(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())))
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("dossier-") && n.ends_with(".json"))
            .collect();
        names.sort();
        if names.is_empty() {
            fail(format!(
                "{}: no dossiers here; use `experiments inspect` for journals and cache directories",
                path.display()
            ));
        }
        println!("dossier directory: {} dossier(s)", names.len());
        for name in names {
            println!("--- {name}");
            let file = path.join(&name);
            render_dossier_bytes(&file, &read(&file));
        }
        return;
    }
    let bytes = read(path);
    if bytes.starts_with(b"MMRE") {
        let parsed = parse_flight(path, &bytes);
        print!("{}", obs::flight::render_timeline(&parsed.events));
        print!("{}", obs::flight::render_histogram(&parsed.events));
        print!("{}", obs::flight::render_convergence(&parsed.events));
        if let Some(other) = &args.diff {
            let other_bytes = read(other);
            if !other_bytes.starts_with(b"MMRE") {
                fail(format!("{}: not a flight event log", other.display()));
            }
            let other_parsed = parse_flight(other, &other_bytes);
            println!("diff vs {}:", other.display());
            print!(
                "{}",
                obs::flight::diff_logs(&parsed.events, &other_parsed.events).render()
            );
            print!(
                "{}",
                obs::flight::diff_trajectories(&parsed.events, &other_parsed.events).render()
            );
        }
        return;
    }
    if bytes.starts_with(b"{") {
        render_dossier_bytes(path, &bytes);
        return;
    }
    fail(format!(
        "{}: not a flight log or dossier; use `experiments inspect` for journals and cache directories",
        path.display()
    ));
}

/// Writes the `--trace` and `--metrics` exports, if requested.
fn emit_exports(args: &Args) -> Result<(), mmreliab::Error> {
    let write = |path: &std::path::Path, text: String| {
        std::fs::write(path, text).map_err(|e| mmreliab::Error::Export {
            path: path.to_owned(),
            detail: e.to_string(),
        })
    };
    if let Some(path) = &args.trace {
        write(path, obs::export::chrome_trace(&obs::snapshot()))?;
        obs::info!("chrome trace written to {}", path.display());
    }
    if let Some(path) = &args.metrics {
        let snapshot = obs::snapshot();
        let text = if args.metrics_prom {
            obs::export::prometheus(&snapshot)
        } else {
            serde_json::to_string_pretty(&snapshot).expect("serializable snapshot")
        };
        write(path, text)?;
        obs::info!("metrics snapshot written to {}", path.display());
    }
    Ok(())
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
        if (hi - lo).abs() < 1e-12 {
            println!("  paper (exact):       {:.6e}", 2f64.powf(lo));
        } else {
            println!(
                "  paper bounds:        ({:.6e}, {:.6e})",
                2f64.powf(lo),
                2f64.powf(hi)
            );
        }
    }
    let rb = rm.estimate_survival_rb_with(args.trials, args.seed, args.workers);
    println!(
        "  Rao-Blackwellised:   {:.6e}   (log2 = {:.2}, {} samples)",
        rb.survival(),
        rb.log2_survival,
        rb.samples
    );
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
        let report = Runner::new(Seed(args.seed))
            .with_threads(args.workers)
            .try_bernoulli_scratch(
                args.trials,
                move || IncrementMachine::new(n, 8, params),
                |machine, rng| machine.run(rng).expect("the increment workload quiesces").bug_manifested(),
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
            let mut rng = task_rng(Seed(args.seed), u64::from(model.matrix().relaxation_count() as u32));
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
            h.set(i, j, laws.two_thread_survival(args.model).expect("named model"));
        }
    }
    print!("{}", h.render());
    println!("(SC is flat at 1/6 — its window ignores p and s; weak models dim as s grows)");
}
