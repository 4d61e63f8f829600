//! Every workload at `--scale 0.01`: the printed metrics are exactly those
//! of `BENCHMARK.json`, every correctness check runs and passes at the
//! default seed and at seed 7, the traced run's Chrome trace parses with
//! its spans nested in chunks, and draw counts repeat exactly.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Object(fields) => Value::field(fields, key),
        _ => &Value::NULL,
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => panic!("expected a string, got {v:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        _ => panic!("expected a number, got {v:?}"),
    }
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn expected(list: &str) -> Vec<(String, String)> {
    let spec: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    items(get(&spec, list))
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_owned(),
                text(get(m, "unit")).to_owned(),
            )
        })
        .collect()
}

/// Checks in one pass of the suite.
const SUITE_CHECKS: f64 = 67.0;

/// Checks in one pass of a scaled-down `cache` run: lem42 and thm62.
const CACHE_PASS_CHECKS: f64 = 7.0;

/// The fewest checks a passing run makes, so that a check that stops
/// running shows.
fn min_checks(workload: &str, trace: bool) -> f64 {
    match (workload, trace) {
        // One pass; the traced run makes four.
        ("suite", false) => SUITE_CHECKS,
        ("suite", true) => 4.0 * SUITE_CHECKS,
        // One repetition: each model's estimate inside the paper's bounds.
        // Traced, per model: the two replays agree, the worker counts
        // agree, the bounds, and the replay agrees with the entry point.
        ("rb16" | "direct2", false) => 4.0,
        ("rb16" | "direct2", true) => 16.0,
        // Cold, warm and grown passes, the grown pass again uncached, and
        // six checks of the store; traced, one more pass and the re-open.
        ("cache", false) => 4.0 * CACHE_PASS_CHECKS + 6.0,
        ("cache", true) => 5.0 * CACHE_PASS_CHECKS + 7.0,
        _ => unreachable!("no workload {workload}"),
    }
}

fn workdir(workload: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

/// One run; returns its metrics as (name, value, unit) after checking the
/// output's shape and that nothing failed.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_mmr-ledger"))
        .current_dir(workdir(workload))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.01"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {}\n{stderr}",
        out.status
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, metric_lines) = lines.split_last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    let keys: Vec<&str> = match &result {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        get(&result, "correct"),
        &Value::Bool(true),
        "{workload}: {stderr}"
    );
    let attempted = number(get(&result, "attempted"));
    assert!(
        attempted >= min_checks(workload, trace),
        "{workload} trace {trace}: only {attempted} checks ran"
    );
    assert_eq!(
        number(get(&result, "failed")),
        0.0,
        "{workload} seed {seed}: failed_frac > 0"
    );

    let want = expected(if trace { "per_layer" } else { "end_to_end" });
    let Value::Object(metrics) = get(&result, "metrics") else {
        panic!("metrics is not an object")
    };
    let got: Vec<(String, f64, String)> = metrics
        .iter()
        .map(|(k, m)| {
            (
                k.clone(),
                number(get(m, "value")),
                text(get(m, "unit")).to_owned(),
            )
        })
        .collect();
    let named: Vec<(String, String)> = got.iter().map(|(k, _, u)| (k.clone(), u.clone())).collect();
    assert_eq!(
        named, want,
        "{workload}: JSON metrics differ from BENCHMARK.json"
    );
    let printed: Vec<(String, String)> = metric_lines
        .iter()
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "`name value unit` line: {l}");
            parts[1].parse::<f64>().expect("value parses");
            (parts[0].to_owned(), parts[2].to_owned())
        })
        .collect();
    assert_eq!(
        printed, want,
        "{workload}: printed lines differ from BENCHMARK.json"
    );
    if !trace {
        for (name, value, _) in &got {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
    got
}

/// Every span other than a chunk lies inside some chunk span.
fn assert_spans_nest(workload: &str) {
    let path = workdir(workload)
        .join("benchmark/target/bench_run")
        .join(format!("{workload}.trace.json"));
    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("trace file written"))
            .expect("trace parses");
    let spans: Vec<(&str, f64, f64)> = items(get(&trace, "traceEvents"))
        .iter()
        .map(|e| {
            (
                text(get(e, "name")),
                number(get(e, "ts")),
                number(get(e, "dur")),
            )
        })
        .collect();
    let chunks: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.0 == "chunk")
        .map(|s| (s.1, s.1 + s.2))
        .collect();
    assert_eq!(
        chunks.len(),
        1,
        "{workload}: raw spans of exactly one chunk"
    );
    let layers = spans.iter().filter(|s| s.0 != "chunk");
    let mut count = 0;
    for (name, ts, dur) in layers {
        count += 1;
        assert!(
            chunks.iter().any(|&(a, b)| a <= *ts && ts + dur <= b),
            "{workload}: {name} at {ts} is outside every chunk"
        );
    }
    assert!(count > 0, "{workload}: no layer spans");
}

fn check(workload: &str, trace_file: bool) {
    for seed in [20110606, 7] {
        run(workload, seed, false);
    }
    let traced = run(workload, 7, true);
    if trace_file {
        assert_spans_nest(workload);
        // Draw counts are exact: a second traced run repeats them.
        let counts = |m: &[(String, f64, String)]| -> Vec<(String, f64)> {
            m.iter()
                .filter(|x| x.2 == "count")
                .map(|x| (x.0.clone(), x.1))
                .collect()
        };
        let again = run(workload, 7, true);
        assert_eq!(
            counts(&traced),
            counts(&again),
            "{workload}: draw counts differ between runs"
        );
        assert!(
            counts(&traced).iter().any(|c| c.1 > 0.0),
            "{workload}: no draws counted"
        );
    }
}

#[test]
fn suite() {
    check("suite", false);
}

#[test]
fn rb16() {
    check("rb16", true);
}

#[test]
fn direct2() {
    check("direct2", true);
}

#[test]
fn cache() {
    check("cache", false);
}
