//! Regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick] [--trials N] [--seed S] [--threads T] [--out FILE]
//!             [--json FILE] [--chaos SEED:PROFILE] [--list] [shared flags] [ids…]
//! experiments inspect ARTIFACT [--diff OTHER]
//! ```
//!
//! With no ids, all experiments run in DESIGN.md §4 order. The default
//! (standard) context is what produced `EXPERIMENTS.md`.
//!
//! Every experiment runs behind an unwind boundary, so one panicking
//! experiment reports `MISMATCH` instead of killing the batch.
//!
//! The shared flags are the seven `mmreliab` takes too, parsed and set up
//! by [`mmr_bench::cli`]: `--cache DIR` serves repeated runs from the
//! content-addressed result store; `--metrics` dumps the process
//! metric snapshot at exit (JSON by default, Prometheus text exposition
//! with `--metrics-format prom`); `--trace` writes the flight recorder's
//! ring as Chrome trace-event JSON, one complete event per experiment;
//! `--flight` mirrors that ring; `--dossier-dir` collects crash
//! dossiers; `--quiet` suppresses status lines (errors still print; exit
//! codes are unchanged). None of them changes a seeded result.
//!
//! `--chaos SEED:PROFILE` installs a deterministic fault plan for the
//! whole run (see `montecarlo::fault`), reproducible from the spec alone:
//! `torn` tears store-segment writes, which the store recovers, so
//! results stay bit-identical to the fault-free run; `export` fails the
//! `--metrics`/`--trace` writes (exit code 2); `hard` panics seeded
//! chunks, which are abandoned, so the run degrades instead of failing
//! (exit code 3).

use mmr_bench::cli::SharedFlags;
use mmr_bench::{registry, run_one_isolated, write_atomic, Ctx, RunResult};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The usage text; the shared flags come from [`mmr_bench::cli::USAGE`].
fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--trials N] [--seed S] [--threads T] [--out FILE] \
         [--json FILE] [--chaos SEED:PROFILE] [--list] {} [ids...]
       experiments inspect ARTIFACT [--diff OTHER]

--threads bounds worker parallelism only; results are identical for any value
--cache enables the content-addressed result store in DIR: repeated runs are served
        bit-identically from cache, grown runs resume from cached chunk prefixes
        (an unusable DIR degrades to uncached with a warning)
--flight mirrors the structured flight-event ring to FILE as CRC-framed MMRE lines
--dossier-dir writes a crash dossier (last events + metrics + fault delta) into DIR
        on panic or degradation
        (an unusable artifact path degrades with a warning and exit code 2)
--metrics/--metrics-format/--trace/--flight/--dossier-dir/--quiet are observational only and never change results
--chaos injects a seeded, reproducible fault schedule; PROFILE is torn (torn cache
        writes, recovered) | export (failed exports) | hard (abandoned chunks)
inspect auto-detects ARTIFACT: flight log (MMRE), crash dossier (JSON), cache or
        dossier directory; --diff compares two flight logs
exit codes: 0 success, 1 mismatch, 2 usage/IO error, 3 degraded run (partial results)",
        mmr_bench::cli::USAGE
    )
}

struct Args {
    ctx: Ctx,
    ids: Vec<String>,
    out_path: Option<PathBuf>,
    json_path: Option<PathBuf>,
    shared: SharedFlags,
    diff_path: Option<PathBuf>,
    chaos: Option<montecarlo::fault::FaultPlan>,
    list: bool,
    help: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        ctx: Ctx::standard(),
        ids: Vec::new(),
        out_path: None,
        json_path: None,
        shared: SharedFlags::default(),
        diff_path: None,
        chaos: None,
        list: false,
        help: false,
    };
    while let Some(arg) = args.next() {
        if parsed.shared.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => parsed.ctx = Ctx::quick(),
            "--trials" => {
                let v = args.next().ok_or("--trials needs a value")?;
                parsed.ctx.trials = v
                    .parse()
                    .map_err(|_| format!("--trials takes a positive integer, got {v:?}"))?;
                if parsed.ctx.trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.ctx.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {v:?}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let threads: usize = v
                    .parse()
                    .map_err(|_| format!("--threads takes a positive integer, got {v:?}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                parsed.ctx = parsed.ctx.with_threads(threads);
            }
            "--out" => parsed.out_path = Some(args.next().ok_or("--out needs a path")?.into()),
            "--json" => parsed.json_path = Some(args.next().ok_or("--json needs a path")?.into()),
            "--diff" => {
                parsed.diff_path = Some(args.next().ok_or("--diff needs a path")?.into());
            }
            "--chaos" => {
                let v = args.next().ok_or("--chaos needs SEED:PROFILE")?;
                parsed.chaos = Some(montecarlo::fault::FaultPlan::parse(&v)?);
            }
            "--list" => parsed.list = true,
            "--help" | "-h" => parsed.help = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => parsed.ids.push(other.to_owned()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.list {
        for e in registry() {
            println!("{:<8} {}", e.id, e.artifact);
        }
        return ExitCode::SUCCESS;
    }

    // The forensic analyzer: purely read-only, so it dispatches before
    // any chaos plan, cache, or recorder state is installed.
    if args.ids.first().map(String::as_str) == Some("inspect") {
        if args.ids.len() != 2 {
            eprintln!("error: `inspect` takes exactly one artifact path");
            return ExitCode::from(2);
        }
        return match mmr_bench::inspect::inspect(Path::new(&args.ids[1]), args.diff_path.as_deref())
        {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(2)
            }
        };
    }
    if args.diff_path.is_some() {
        eprintln!("error: --diff only applies to the `inspect` subcommand");
        return ExitCode::from(2);
    }

    // Every optional artifact shares one degradation contract via the
    // ledger: warn, run to completion with results intact, exit 2.
    let mut artifacts = args.shared.install(args.chaos.take());

    match run(&args, &mut artifacts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args, artifacts: &mut obs::degrade::Artifacts) -> Result<ExitCode, mmr_bench::Error> {
    let registry = registry();
    let selected = mmr_bench::select(&registry, &args.ids)?;

    let started = std::time::Instant::now();
    let ordered: Vec<_> = selected
        .into_iter()
        .map(|e| {
            obs::debug!("running {}", e.id);
            run_one_isolated(e, &args.ctx)
        })
        .collect();

    let mut report = String::new();
    report.push_str("# Experiment report — PODC 2011 memory-model reliability reproduction\n\n");
    let _ = write!(
        report,
        "context: trials = {}, seed = {}\n\n",
        args.ctx.trials, args.ctx.seed
    );
    for r in &ordered {
        let _ = write!(
            report,
            "## {} — {}\n\n{}\n",
            r.id.to_uppercase(),
            r.artifact,
            r.report
        );
        if !r.diagnostics.is_empty() {
            report.push_str("convergence diagnostics (mean ± ci95, rse):\n\n");
            for d in &r.diagnostics {
                let _ = writeln!(
                    report,
                    "- `{}`: {:.6} ± {:.6} (rse {:.4}, {} trials, {:.0} trials/sec)",
                    d.name, d.mean, d.ci95_half_width, d.rse, d.trials, d.trials_per_sec
                );
            }
            report.push('\n');
        }
    }
    let _ = write!(
        report,
        "\ntotal wall time: {:.1}s\n",
        started.elapsed().as_secs_f64()
    );

    if let Some(path) = &args.json_path {
        let result = RunResult {
            trials: args.ctx.trials,
            seed: args.ctx.seed,
            threads: args.ctx.threads,
            host_cores: mmr_bench::default_threads(),
            experiments: ordered.clone(),
        };
        let json = serde_json::to_string_pretty(&result).expect("serializable results");
        write_atomic(path, &json)?;
        obs::info!("structured results written to {}", path.display());
    }
    match &args.out_path {
        Some(path) => {
            write_atomic(path, &report)?;
            obs::info!("report written to {}", path.display());
        }
        None if args.json_path.is_none() => print!("{report}"),
        None => {}
    }
    args.shared.export(artifacts);

    let reproduced: usize = ordered.iter().map(|r| r.reproduced).sum();
    let mismatched: usize = ordered.iter().map(|r| r.mismatched).sum();
    let degraded: usize = ordered.iter().filter(|r| r.degraded).count();
    obs::info!("\n{reproduced} checks REPRODUCED, {mismatched} MISMATCH, {degraded} DEGRADED");
    // Exit-code precedence: degraded artifact (2) > degraded run (3) >
    // mismatch (1). A degraded run's verdicts are partial, so flagging
    // the degradation outranks reporting a mismatch computed from partial
    // estimates; a missing artifact outranks both.
    let base = if degraded > 0 {
        3
    } else if mismatched > 0 {
        1
    } else {
        0
    };
    Ok(ExitCode::from(artifacts.exit_code(base)))
}
