//! Regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick] [--trials N] [--seed S] [--threads T] [--out FILE]
//!             [--json FILE] [--checkpoint FILE] [--metrics FILE]
//!             [--progress] [--quiet] [--list] [ids…]
//! ```
//!
//! With no ids, all experiments run in DESIGN.md §4 order. The default
//! (standard) context is what produced `EXPERIMENTS.md`.
//!
//! Every experiment runs behind an unwind boundary, so one panicking
//! experiment reports `MISMATCH` instead of killing the batch. With
//! `--checkpoint FILE`, each completed experiment is persisted atomically
//! and a restart skips everything already done under the same context.
//!
//! Telemetry is strictly out-of-band: `--metrics` dumps the process
//! metric/span snapshot at exit (JSON by default, Prometheus text
//! exposition with `--metrics-format prom`), `--trace` writes the span
//! ring as Chrome trace-event JSON, `--progress` enables a throttled
//! stderr heartbeat, and none of them change any seeded result. `--quiet`
//! suppresses status lines (errors still print; exit codes are unchanged)
//! and wins over `--progress`.
//!
//! `--serve ADDR` exposes live telemetry over HTTP/1.0 (`GET /metrics`,
//! `/events`, `/status`) for the run's duration; clients attaching or
//! detaching never change a seeded result, and an unusable ADDR follows
//! the shared degradation contract (warn, results intact, exit 2).
//!
//! `--chaos SEED[:PROFILE]` installs a deterministic fault plan for the
//! whole run (see `montecarlo::fault`): seeded chunk panics, worker
//! stalls, scratch corruption, torn checkpoint writes, and exporter I/O
//! errors, reproducible from the spec alone. Recoverable profiles leave
//! results bit-identical to the fault-free run; the `hard` profile
//! degrades gracefully instead of failing (exit code 3).

use mmr_bench::{journal, registry, run_one_isolated, write_atomic, Ctx, RunResult};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: experiments [--quick] [--trials N] [--seed S] [--threads T] [--out FILE] [--json FILE] [--checkpoint FILE] [--cache DIR] [--metrics FILE] [--metrics-format json|prom] [--trace FILE] [--flight FILE] [--dossier-dir DIR] [--serve ADDR] [--chaos SEED[:PROFILE]] [--progress] [--quiet] [--list] [ids...]\n       experiments inspect ARTIFACT [--diff OTHER]\n\n--threads bounds worker parallelism only; results are identical for any value\n--cache enables the content-addressed result store in DIR: repeated runs are served\n        bit-identically from cache, grown runs resume from cached chunk prefixes\n        (an unusable DIR degrades to uncached with a warning)\n--flight mirrors the structured flight-event ring to FILE as CRC-framed MMRE lines\n--dossier-dir writes a crash dossier (last events + metrics + fault delta) into DIR\n        on panic, degradation, or deadline truncation\n--serve ADDR exposes live telemetry over HTTP/1.0 for the run's duration:\n        GET /metrics (Prometheus exposition), /events (MMRE event stream),\n        /status (run state + convergence trajectory + fault ledger)\n        (an unusable artifact path or address degrades with a warning and exit code 2)\n--metrics/--metrics-format/--trace/--flight/--dossier-dir/--serve/--progress/--quiet are observational only and never change results\n--chaos injects a seeded, reproducible fault schedule; profiles: mixed (default) | panics | stalls | corrupt | torn | export | hard\ninspect auto-detects ARTIFACT: flight log (MMRE), crash dossier (JSON), checkpoint\n        journal (MMRJ), cache or dossier directory; --diff compares two flight logs\nexit codes: 0 success, 1 mismatch, 2 usage/IO/bad-checkpoint error, 3 degraded run (partial results)";

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prom,
}

struct Args {
    ctx: Ctx,
    ids: Vec<String>,
    out_path: Option<PathBuf>,
    json_path: Option<PathBuf>,
    checkpoint_path: Option<PathBuf>,
    cache_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    metrics_format: MetricsFormat,
    trace_path: Option<PathBuf>,
    flight_path: Option<PathBuf>,
    dossier_dir: Option<PathBuf>,
    diff_path: Option<PathBuf>,
    serve: Option<String>,
    chaos: Option<String>,
    progress: bool,
    quiet: bool,
    list: bool,
    help: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        ctx: Ctx::standard(),
        ids: Vec::new(),
        out_path: None,
        json_path: None,
        checkpoint_path: None,
        cache_path: None,
        metrics_path: None,
        metrics_format: MetricsFormat::Json,
        trace_path: None,
        flight_path: None,
        dossier_dir: None,
        diff_path: None,
        serve: None,
        chaos: None,
        progress: false,
        quiet: false,
        list: false,
        help: false,
    };
    while let Some(arg) = args.next() {
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
            "--checkpoint" => {
                parsed.checkpoint_path = Some(args.next().ok_or("--checkpoint needs a path")?.into());
            }
            "--cache" => {
                parsed.cache_path = Some(args.next().ok_or("--cache needs a directory")?.into());
            }
            "--metrics" => {
                parsed.metrics_path = Some(args.next().ok_or("--metrics needs a path")?.into());
            }
            "--metrics-format" => {
                let v = args.next().ok_or("--metrics-format needs json or prom")?;
                parsed.metrics_format = match v.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    other => return Err(format!("--metrics-format takes json or prom, got {other:?}")),
                };
            }
            "--trace" => {
                parsed.trace_path = Some(args.next().ok_or("--trace needs a path")?.into());
            }
            "--flight" => {
                parsed.flight_path = Some(args.next().ok_or("--flight needs a path")?.into());
            }
            "--dossier-dir" => {
                parsed.dossier_dir =
                    Some(args.next().ok_or("--dossier-dir needs a directory")?.into());
            }
            "--diff" => {
                parsed.diff_path = Some(args.next().ok_or("--diff needs a path")?.into());
            }
            "--serve" => {
                parsed.serve = Some(args.next().ok_or("--serve needs an address")?);
            }
            "--chaos" => {
                let v = args.next().ok_or("--chaos needs SEED[:PROFILE]")?;
                // Validate at parse time so a bad spec is a usage error.
                montecarlo::fault::FaultPlan::parse(&v)?;
                parsed.chaos = Some(v);
            }
            "--progress" => parsed.progress = true,
            "--quiet" => parsed.quiet = true,
            "--list" => parsed.list = true,
            "--help" | "-h" => parsed.help = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => parsed.ids.push(other.to_owned()),
        }
    }
    Ok(parsed)
}

/// Chaos seam for the exporters: under the `export` profile every export
/// attempt fails with a typed I/O error, exercising the same error path a
/// full disk or revoked permission would take.
fn chaos_export_fault(path: &Path) -> Result<(), mmr_bench::Error> {
    if montecarlo::fault::active().is_some_and(|p| p.export_fault()) {
        montecarlo::fault::ledger().note_injected_export_fault();
        return Err(mmr_bench::Error::Io {
            path: path.to_path_buf(),
            source: std::io::Error::other("injected export fault (chaos)"),
        });
    }
    Ok(())
}

/// Writes the process telemetry snapshot to `path` in the selected format.
fn emit_metrics(path: &Path, format: MetricsFormat) -> Result<(), mmr_bench::Error> {
    chaos_export_fault(path)?;
    let snapshot = obs::snapshot();
    let text = match format {
        MetricsFormat::Json => {
            serde_json::to_string_pretty(&snapshot).expect("serializable snapshot")
        }
        MetricsFormat::Prom => obs::export::prometheus(&snapshot),
    };
    write_atomic(path, &text)?;
    obs::info!("metrics snapshot written to {}", path.display());
    Ok(())
}

/// Writes the span ring as Chrome trace-event JSON to `path`.
fn emit_trace(path: &Path) -> Result<(), mmr_bench::Error> {
    chaos_export_fault(path)?;
    let trace = obs::export::chrome_trace(&obs::snapshot());
    write_atomic(path, &trace)?;
    obs::info!("chrome trace written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.quiet {
        obs::log::set_level(obs::log::Level::Quiet);
    }
    // --quiet wins over --progress: quiet means a silent stderr.
    obs::progress::set_enabled(args.progress && !args.quiet);

    if args.help {
        println!("{USAGE}");
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
        return match mmr_bench::inspect::inspect(
            Path::new(&args.ids[1]),
            args.diff_path.as_deref(),
        ) {
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

    obs::set_build_info(obs::BuildInfo::detect(
        env!("CARGO_PKG_VERSION"),
        montecarlo::CHUNK_WIDTH,
    ));
    obs::serve::set_status_ext(Box::new(|| {
        let fields = montecarlo::fault::ledger().snapshot().named_fields();
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

    // Every optional artifact — flight mirror, dossiers, cache, journal,
    // telemetry server, exports — shares one degradation contract via the
    // ledger: warn, run to completion with results intact, exit 2.
    let mut artifacts = obs::degrade::Artifacts::new();
    if let Some(path) = &args.flight_path {
        let mirrored = obs::flight::mirror_to(path).map_err(|source| mmr_bench::Error::Io {
            path: path.clone(),
            source,
        });
        if artifacts.install("flight event log", mirrored).is_some() {
            obs::info!("flight events mirrored to {}", path.display());
        }
    }
    if let Some(dir) = &args.dossier_dir {
        let set = obs::flight::set_dossier_dir(dir).map_err(|source| mmr_bench::Error::Io {
            path: dir.clone(),
            source,
        });
        if artifacts.install("crash dossiers", set).is_some() {
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

    if let Some(spec) = &args.chaos {
        let plan = montecarlo::fault::FaultPlan::parse(spec).expect("spec validated at parse time");
        obs::info!(
            "chaos: fault plan engaged (seed = {}, profile = {})",
            plan.seed(),
            plan.profile()
        );
        montecarlo::fault::install(plan);
    }

    // The content-addressed result store: repeated and grown requests are
    // served (or resumed) from DIR. An unusable directory degrades to an
    // uncached run, same ledger contract as every artifact above.
    if let Some(dir) = &args.cache_path {
        let opened = store::Store::open(dir).map_err(|store::StoreError::Io { path, source }| {
            mmr_bench::Error::Io { path, source }
        });
        if let Some(s) = artifacts.install("result cache", opened) {
            obs::info!("result cache at {}", dir.display());
            store::install(std::sync::Arc::new(s));
        }
    }

    match run(&args, &mut artifacts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(
    args: &Args,
    artifacts: &mut obs::degrade::Artifacts,
) -> Result<ExitCode, mmr_bench::Error> {
    let registry = registry();
    let selected = mmr_bench::select(&registry, &args.ids)?;

    // Resume from the append-only checkpoint journal, if asked for. A
    // corrupt (non-torn) journal is a hard error before any work starts;
    // an unwritable path downgrades to an un-checkpointed run via the
    // shared degradation ledger.
    let mut journal: Option<journal::Journal> = None;
    if let Some(path) = &args.checkpoint_path {
        match journal::Journal::open(path, &args.ctx) {
            Ok(j) => journal = Some(j),
            Err(e @ mmr_bench::Error::BadCheckpoint { .. }) => return Err(e),
            Err(e) => {
                artifacts.install("checkpointing", Err::<(), _>(e));
            }
        }
    }
    let done: Vec<mmr_bench::ExperimentResult> = journal
        .as_ref()
        .map(|j| j.experiments().to_vec())
        .unwrap_or_default();

    let started = std::time::Instant::now();
    let mut ordered = Vec::with_capacity(selected.len());
    for e in selected {
        if let Some(prev) = done.iter().find(|r| r.id == e.id) {
            obs::info!("checkpoint: skipping {} (already complete)", e.id);
            ordered.push(prev.clone());
            continue;
        }
        obs::debug!("running {}", e.id);
        let result = run_one_isolated(e, &args.ctx);
        let mut append_failed = false;
        if let Some(j) = journal.as_mut() {
            if artifacts.install("checkpointing", j.append(&result)).is_none() {
                append_failed = true;
            }
        }
        if append_failed {
            journal = None;
        }
        ordered.push(result);
    }
    obs::progress::finish("experiments", ordered.len() as u64, started);

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
    if let Some(path) = &args.trace_path {
        artifacts.install("span trace export", emit_trace(path));
    }
    if let Some(path) = &args.metrics_path {
        artifacts.install("metrics export", emit_metrics(path, args.metrics_format));
    }

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
