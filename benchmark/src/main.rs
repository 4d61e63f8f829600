//! The workload ledger: end-to-end and per-layer measurements of the
//! reproduction's real workloads (see README.md).
//!
//! ```text
//! mmr-ledger --workload W [--seed S] [--seconds T] [--trace 0|1] [--scale F]
//! mmr-ledger all [--runs K] [--seed S] [--seconds T] [--against PARENT_EXE] [--rev REV] [--out FILE]
//! mmr-ledger compare A.json[:SET] B.json[:SET]
//! ```
//!
//! A run prints `name value unit` lines, then one JSON object as its last
//! line. With `--trace 0` the metrics are the end-to-end ones of
//! `BENCHMARK.json`, measured with no tracing; with `--trace 1` they are
//! the per-layer ones, from a separate traced run. Per-layer metrics of a
//! layer the workload never calls read 0.

mod cache;
mod compare;
mod kernel;
mod measure;
mod spec;
mod suite;
mod trace;

use kernel::Route;
use measure::{cpu_seconds, median, peak_rss_mb, quartiles, relative_iqr};
use serde_json::{Number, Value};
use spec::{as_f64, get, Spec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Worker threads of every multi-threaded call: the host's two cores.
pub const WORKERS: usize = 2;

/// Where runs write (trace files, store directories), relative to the
/// directory the benchmark runs from: under the package's own ignored
/// `target/`.
pub const RUN_DIR: &str = "benchmark/target/bench_run";

const DEFAULT_SEED: u64 = 20110606;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Metric name → value, in the order produced.
pub type Layers = Vec<(String, f64)>;

/// Operations attempted and failed, for the result line.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The timed state of one workload.
pub trait Workload {
    /// Untimed work before each repetition.
    fn prepare(&mut self) {}
    /// One timed repetition.
    fn rep(&mut self, tally: &mut Tally);
    /// Untimed checks after the last repetition.
    fn verify(&mut self, _tally: &mut Tally) {}
}

/// `n` scaled down for smoke runs, never below 1.
pub fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Wall seconds taken by `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn setup(workload: &str, seed: u64, scale: f64) -> Box<dyn Workload> {
    match workload {
        "suite" => Box::new(suite::Suite::setup(seed, suite::trials(scale), &[])),
        "rb16" => Box::new(kernel::Kernel::setup(Route::Rb, seed, scale)),
        "direct2" => Box::new(kernel::Kernel::setup(Route::Direct, seed, scale)),
        "cache" => Box::new(cache::Cache::setup(seed, scale)),
        other => unreachable!("workload {other} is validated against BENCHMARK.json"),
    }
}

/// Set the workload up, then repeat it until another repetition would
/// overrun `seconds`; report medians. The other [`SETUPS`] − 1 set-ups are
/// timed between repetitions and dropped, so a short burst of host noise
/// reaches one of them, not all.
fn end_to_end(workload: &str, seed: u64, scale: f64, seconds: f64, tally: &mut Tally) -> Layers {
    let (t, mut w) = timed(|| setup(workload, seed, scale));
    let mut setups = vec![t];
    let spare_setup = |setups: &mut Vec<f64>| {
        let (t, spare) = timed(|| setup(workload, seed, scale));
        drop(spare);
        setups.push(t);
    };
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    loop {
        if setups.len() < SETUPS {
            spare_setup(&mut setups);
        }
        w.prepare();
        let cpu = cpu_seconds();
        let (t, ()) = timed(|| w.rep(tally));
        cpus.push(cpu_seconds() - cpu);
        walls.push(t);
        let spent: f64 = walls.iter().sum();
        if spent + spent / walls.len() as f64 > seconds {
            break;
        }
    }
    while setups.len() < SETUPS {
        spare_setup(&mut setups);
    }
    w.verify(tally);
    eprintln!("{workload}: set-up seconds {setups:?}, repetition wall seconds {walls:?}, cpu seconds {cpus:?}");
    vec![
        ("wall_s".into(), median(&walls)),
        ("cpu_s".into(), median(&cpus)),
        ("setup_s".into(), median(&setups)),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]
}

fn traced(workload: &str, seed: u64, scale: f64, tally: &mut Tally) -> Layers {
    let route = match workload {
        "suite" => return suite::traced(seed, scale, tally),
        "cache" => return cache::traced(seed, scale, tally),
        "rb16" => Route::Rb,
        _ => Route::Direct,
    };
    let (layers, chrome) = kernel::traced(route, seed, scale, tally);
    let path = format!("{RUN_DIR}/{workload}.trace.json");
    std::fs::write(&path, chrome).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("{workload}: spans of the first chunk written to {path}");
    layers
}

fn num(v: f64) -> Value {
    Value::Number(Number::F(v))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

/// One run of one workload: metric lines, then the result object.
fn run(spec: &Spec, args: &RunArgs) -> ExitCode {
    std::fs::create_dir_all(RUN_DIR).unwrap_or_else(|e| panic!("create {RUN_DIR}: {e}"));
    let mut tally = Tally::default();
    let (list, produced) = if args.trace {
        (
            &spec.per_layer,
            traced(&args.workload, args.seed, args.scale, &mut tally),
        )
    } else {
        let e2e = end_to_end(
            &args.workload,
            args.seed,
            args.scale,
            args.seconds,
            &mut tally,
        );
        (&spec.end_to_end, e2e)
    };
    let produced: BTreeMap<String, f64> = produced.into_iter().collect();
    for name in produced.keys() {
        assert!(
            list.iter().any(|m| &m.name == name),
            "metric {name} is not in BENCHMARK.json"
        );
    }
    let mut metrics = Vec::new();
    for m in list {
        // End-to-end metrics are always produced; a per-layer metric of a
        // layer this workload never calls reads 0.
        let value = produced.get(&m.name).copied();
        let value = if args.trace {
            value.unwrap_or(0.0)
        } else {
            value.expect("end-to-end metric produced")
        };
        assert!(value.is_finite(), "{} = {value}", m.name);
        println!("{} {value} {}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            obj(vec![
                ("value", num(value)),
                ("unit", Value::String(m.unit.clone())),
            ]),
        ));
    }
    let result = obj(vec![
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Number(Number::U(tally.attempted))),
        ("failed", Value::Number(Number::U(tally.failed))),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct AllArgs {
    runs: u64,
    seed: u64,
    seconds: f64,
    against: Option<PathBuf>,
    rev: String,
    out: Option<String>,
}

/// Runs every workload `runs` times, one process per run, as set `a`.
/// With `--against PARENT_EXE`, the parent's runs are set `a` and this
/// build's set `b`: each parent run and change run of a workload follow
/// each other, and which goes first alternates by round, so the two runs
/// of a pair meet the same phase of a drifting host. An A/A check passes
/// this build's own path.
fn all(spec: &Spec, args: &AllArgs) -> ExitCode {
    let this = std::env::current_exe().expect("path of this executable");
    let sets = match &args.against {
        Some(parent) => vec![("a", parent.clone()), ("b", this)],
        None => vec![("a", this)],
    };
    let mut results: BTreeMap<&str, BTreeMap<&str, Vec<Value>>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..args.runs {
        for w in &spec.workloads {
            let mut order: Vec<_> = sets.iter().collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for (set, exe) in order {
                let out = Command::new(exe)
                    .args(["--workload", w, "--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                    .stderr(Stdio::inherit())
                    .output()
                    .unwrap_or_else(|e| panic!("run {}: {e}", exe.display()));
                let stdout = String::from_utf8_lossy(&out.stdout);
                let parsed = stdout
                    .lines()
                    .last()
                    .and_then(|l| serde_json::from_str::<Value>(l).ok());
                let Some(result) = parsed else {
                    eprintln!("round {round} set {set} {w}: no result ({})", out.status);
                    ok = false;
                    continue;
                };
                ok &= out.status.success();
                let wall = as_f64(get(get(get(&result, "metrics"), "wall_s"), "value"));
                eprintln!("round {round} set {set} {w}: wall_s {wall:?} ({})", out.status);
                results
                    .entry(set)
                    .or_default()
                    .entry(w)
                    .or_default()
                    .push(result);
            }
        }
    }
    let summary = |runs: &Vec<Value>| {
        let fields = spec
            .end_to_end
            .iter()
            .filter_map(|m| {
                let v: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| as_f64(get(get(get(r, "metrics"), &m.name), "value")))
                    .collect();
                if v.is_empty() {
                    return None;
                }
                let (q1, q3) = quartiles(&v);
                let stats = obj(vec![
                    ("median", num(median(&v))),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("rel_iqr", num(relative_iqr(&v))),
                ]);
                Some((m.name.clone(), stats))
            })
            .collect();
        Value::Object(fields)
    };
    let per_set = |f: &dyn Fn(&Vec<Value>) -> Value| {
        Value::Object(
            results
                .iter()
                .map(|(set, ws)| {
                    let ws = ws
                        .iter()
                        .map(|(w, runs)| (w.to_string(), f(runs)))
                        .collect();
                    (set.to_string(), Value::Object(ws))
                })
                .collect(),
        )
    };
    let doc = obj(vec![
        ("rev", Value::String(args.rev.clone())),
        ("seed", Value::Number(Number::U(args.seed))),
        (
            "host_cores",
            Value::Number(Number::U(mmr_bench::default_threads() as u64)),
        ),
        ("seconds", num(args.seconds)),
        ("summary", per_set(&summary)),
        ("sets", per_set(&|runs| Value::Array(runs.clone()))),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("run set serializes");
    match &args.out {
        Some(path) => {
            std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"))
        }
        None => println!("{text}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: mmr-ledger --workload W [--seed S] [--seconds T] [--trace 0|1] [--scale F]
       mmr-ledger all [--runs K] [--seed S] [--seconds T] [--against PARENT_EXE] [--rev REV] [--out FILE]
       mmr-ledger compare A.json[:SET] B.json[:SET]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let spec = spec::spec();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().map(String::as_str);
    if mode == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage("compare takes two run-set files");
        };
        return match (compare::load(a), compare::load(b)) {
            (Ok(a), Ok(b)) if !compare::compare(&spec, &a, &b) => ExitCode::SUCCESS,
            (Ok(_), Ok(_)) => ExitCode::FAILURE,
            (Err(e), _) | (_, Err(e)) => usage(&e),
        };
    }
    let is_all = mode == Some("all");
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter().skip(usize::from(is_all));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--scale" | "--runs" | "--rev"
            | "--out" | "--against" => {
                let Some(v) = it.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                flags.insert(flag, v);
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        flags.get(flag).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| format!("{flag} must be a positive number, got {v}"))
        })
    };
    let seed = match flags
        .get("--seed")
        .map_or(Ok(DEFAULT_SEED), |v| v.parse::<u64>())
    {
        Ok(s) => s,
        Err(_) => return usage("--seed must be a non-negative integer"),
    };
    let (seconds, scale, runs) = match (
        number("--seconds", spec.run_seconds),
        number("--scale", 1.0),
        number("--runs", 1.0),
    ) {
        (Ok(s), Ok(f), Ok(r)) => (s, f, r as u64),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return usage(&e),
    };
    if is_all {
        return all(
            &spec,
            &AllArgs {
                runs,
                seed,
                seconds,
                against: flags.get("--against").map(PathBuf::from),
                rev: flags.get("--rev").unwrap_or(&"unknown").to_string(),
                out: flags.get("--out").map(|s| s.to_string()),
            },
        );
    }
    let Some(workload) = flags.get("--workload") else {
        return usage("--workload is required");
    };
    if !spec.workloads.iter().any(|w| w == workload) {
        return usage(&format!(
            "unknown workload {workload}; expected one of {:?}",
            spec.workloads
        ));
    }
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return usage(&format!("--trace must be 0 or 1, got {v}")),
    };
    run(
        &spec,
        &RunArgs {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            scale,
        },
    )
}
