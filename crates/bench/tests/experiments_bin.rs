//! Black-box tests of the `experiments` binary: argument validation,
//! atomic output, exports and chaos runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn rejects_zero_trials() {
    let out = experiments(&["--trials", "0", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trials must be at least 1"), "{stderr}");
}

#[test]
fn rejects_malformed_trials_and_seed() {
    let out = experiments(&["--trials", "many", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trials takes a positive integer"));

    let out = experiments(&["--seed", "0x12", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed takes an integer"));

    let out = experiments(&["--trials"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trials needs a value"));
}

#[test]
fn rejects_bad_threads() {
    let out = experiments(&["--threads", "0", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be at least 1"));

    let out = experiments(&["--threads", "lots", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads takes a positive integer"));

    let out = experiments(&["--threads"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads needs a value"));
}

#[test]
fn results_are_identical_across_thread_counts() {
    // The executor's determinism contract, observed end to end through the
    // binary: a seeded run's structured output is identical (modulo timing
    // metadata and throughput diagnostics, which strip_diagnostics zeroes)
    // whether the grid runs on one worker or eight — and telemetry
    // collection does not perturb it.
    let dir = temp_dir("threads");
    let base = ["--quick", "--seed", "7", "t1", "lem42", "thm51"];
    let mut runs: Vec<mmr_bench::RunResult> = Vec::new();
    for threads in ["1", "2", "3", "8"] {
        let json = dir.join(format!("t{threads}.json"));
        let metrics = dir.join(format!("m{threads}.json"));
        let out = experiments(
            &[
                &base[..],
                &[
                    "--threads",
                    threads,
                    "--json",
                    json.to_str().unwrap(),
                    "--metrics",
                    metrics.to_str().unwrap(),
                ],
            ]
            .concat(),
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let parsed: mmr_bench::RunResult =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap())
                .expect("valid run result json");
        assert_eq!(parsed.threads, threads.parse::<usize>().unwrap());
        assert!(parsed.experiments.iter().all(|e| e.elapsed_secs >= 0.0));
        // Telemetry was collected alongside and parses back as a snapshot.
        let snap: obs::Snapshot = serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap())
            .expect("valid metrics snapshot json");
        assert!(snap.counter("mc.runner.runs").unwrap_or(0) > 0);
        runs.push(parsed);
    }
    let baseline = runs[0].strip_diagnostics();
    assert!(
        baseline
            .experiments
            .iter()
            .any(|e| !e.diagnostics.is_empty()),
        "estimator experiments should surface convergence diagnostics"
    );
    for run in &runs[1..] {
        assert_eq!(baseline, run.strip_diagnostics());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quiet_silences_stderr() {
    let out = experiments(&["--quick", "--quiet", "t1"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "expected silent stderr, got: {stderr}");
}

#[test]
fn unwritable_metrics_is_typed_error_after_results_land() {
    // A bad --metrics path is a typed I/O error (exit 2) — and because
    // exports run last, the partial results written before it are intact.
    let dir = temp_dir("unwritable");
    let json = dir.join("results.json");
    let metrics = dir.join("no-such-subdir").join("metrics.json");
    let out = experiments(&[
        "--quick",
        "--json",
        json.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "t1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot access"), "{stderr}");
    let parsed: mmr_bench::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap())
            .expect("results written before the failed export");
    assert_eq!(parsed.experiments.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_and_prom_exports_are_structurally_valid() {
    let dir = temp_dir("exports");
    let trace = dir.join("trace.json");
    let prom = dir.join("metrics.prom");
    let out = experiments(&[
        "--quick",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
        "--metrics-format",
        "prom",
        "t1",
        "thm62",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The Chrome trace parses and carries one span per experiment.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).expect("valid trace json");
    let serde_json::Value::Object(fields) = &parsed else {
        panic!("trace root should be an object");
    };
    let serde_json::Value::Array(events) = serde_json::Value::field(fields, "traceEvents") else {
        panic!("traceEvents should be an array");
    };
    let text = |ev: &serde_json::Value, key: &str| match ev {
        serde_json::Value::Object(f) => match serde_json::Value::field(f, key) {
            serde_json::Value::String(s) => s.clone(),
            _ => String::new(),
        },
        _ => String::new(),
    };
    let number = |ev: &serde_json::Value, key: &str| match ev {
        serde_json::Value::Object(f) => match serde_json::Value::field(f, key) {
            serde_json::Value::Number(n) => n.as_f64(),
            other => panic!("{key} should be a number, got {other:?}"),
        },
        _ => panic!("a trace event should be an object"),
    };
    let spans: Vec<(String, f64, f64)> = events
        .iter()
        .filter(|ev| text(ev, "ph") == "X")
        .map(|ev| (text(ev, "name"), number(ev, "ts"), number(ev, "dur")))
        .collect();
    let names: Vec<&str> = spans.iter().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(names, ["t1", "thm62"], "one complete event per experiment");
    // The experiments ran one after the other, so their spans must not
    // overlap: t1 ends before thm62 starts.
    let ((_, t1_ts, t1_dur), (_, thm62_ts, _)) = (&spans[0], &spans[1]);
    assert!(t1_ts + t1_dur <= *thm62_ts, "spans overlap: {spans:?}");

    // The Prometheus exposition passes the exporter's own lint.
    let text = std::fs::read_to_string(&prom).unwrap();
    obs::export::lint(&text).expect("prom exposition lints clean");
    assert!(text.contains("exp_t1_runs"), "{text}");

    // An unknown format is rejected up front.
    let out = experiments(&["--quick", "--metrics-format", "xml", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("json or prom"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rejects_unknown_flag_and_unknown_experiment() {
    for args in [
        &["--frobnicate"][..],
        &["--lanes", "8", "t1"],
        &["--baseline", "x", "t1"],
        // Removed surfaces: live telemetry, the heartbeat, the journal.
        &["--serve", "127.0.0.1:0", "t1"],
        &["--progress", "t1"],
        &["--checkpoint", "state.mmrj", "t1"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{args:?}"
        );
    }

    let out = experiments(&["--quick", "not-an-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment id"));

    // There is no `bench` subcommand; the word parses as an experiment id.
    let out = experiments(&["bench"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown experiment id \"bench\""),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn list_and_help_succeed() {
    let out = experiments(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("thm62"));

    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(
        help.contains("--cache") && help.contains("--chaos"),
        "{help}"
    );
}

#[test]
fn chaos_spec_is_validated_at_parse_time() {
    let out = experiments(&["--chaos", "zebra", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos takes SEED"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = experiments(&["--chaos", "7:nope", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("torn|export|hard"), "{stderr}");

    // The stall profile went with the pool watchdog; the chunk-retry
    // profiles went with the retry.
    for spec in ["7:stalls", "7:mixed", "7:panics", "7:corrupt"] {
        let out = experiments(&["--chaos", spec, "t1"]);
        assert_eq!(out.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--chaos profile must be one of"),
            "{spec}: {stderr}"
        );
    }

    // A bare seed meant `mixed`, which is gone: the profile is required.
    let out = experiments(&["--chaos", "7", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--chaos takes SEED:PROFILE"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = experiments(&["--chaos"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chaos needs SEED"));
}

#[test]
fn chaos_recoverable_run_is_bit_identical_to_fault_free() {
    // The master invariant, observed end to end through the binary: a
    // chaos run whose faults are recoverable (torn cache writes) produces
    // exactly the same structured results as the clean run, modulo timing
    // diagnostics and the fault ledger itself. Each side writes a fresh
    // cache directory.
    use montecarlo::fault::{FaultPlan, Profile};
    let dir = temp_dir("chaos-e2e");
    let clean_json = dir.join("clean.json");
    let chaos_json = dir.join("chaos.json");
    let ids = ["lem42", "thm62"];

    let out = experiments(
        &[
            &[
                "--quick",
                "--cache",
                dir.join("clean-cache").to_str().unwrap(),
                "--json",
                clean_json.to_str().unwrap(),
            ],
            &ids[..],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Seed-search a plan that provably tears record 0 — the first record
    // the fresh cache writes — so the run cannot pass vacuously.
    let chaos_seed = (0..100_000u64)
        .find(|&s| FaultPlan::new(s, Profile::TornWrites).torn_write(0))
        .expect("a tearing seed exists");
    let out = experiments(
        &[
            &[
                "--quick",
                "--cache",
                dir.join("chaos-cache").to_str().unwrap(),
                "--json",
                chaos_json.to_str().unwrap(),
                "--chaos",
                &format!("{chaos_seed}:torn"),
            ],
            &ids[..],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let clean: mmr_bench::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&clean_json).unwrap()).unwrap();
    let chaos: mmr_bench::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&chaos_json).unwrap()).unwrap();
    assert!(
        chaos
            .experiments
            .iter()
            .any(|e| e.fault_ledger.injected_torn_writes > 0),
        "the plan must have actually torn a cache write"
    );
    assert!(chaos.experiments.iter().all(|e| !e.degraded));
    assert_eq!(clean.strip_diagnostics(), chaos.strip_diagnostics());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hard_chaos_degrades_with_exit_3_and_honest_summary() {
    use montecarlo::fault::{FaultPlan, Profile};
    let dir = temp_dir("chaos-hard");
    let json = dir.join("results.json");

    // A hard fault on chunk 0 panics every experiment's first chunk: the
    // chunk is abandoned, the run degrades instead of erroring.
    let chaos_seed = (0..100_000u64)
        .find(|&s| FaultPlan::new(s, Profile::Hard).chunk_panics(0))
        .expect("a hard-failing seed exists");
    let out = experiments(&[
        "--quick",
        "--json",
        json.to_str().unwrap(),
        "--chaos",
        &format!("{chaos_seed}:hard"),
        "lem42",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 DEGRADED"), "{stderr}");

    let parsed: mmr_bench::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert!(
        parsed.experiments[0].degraded,
        "the record must carry the flag"
    );
    assert!(parsed.experiments[0].fault_ledger.chunks_abandoned > 0);
    assert!(
        parsed.experiments[0].report.contains("DEGRADED"),
        "the human report must flag partial estimates"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn export_chaos_fails_metrics_with_typed_error() {
    let dir = temp_dir("chaos-export");
    let json = dir.join("results.json");
    let metrics = dir.join("metrics.json");
    let out = experiments(&[
        "--quick",
        "--json",
        json.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--chaos",
        "7:export",
        "t1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected export fault"), "{stderr}");
    assert!(!metrics.exists(), "the export must have been blocked");
    assert!(json.exists(), "results land before exports run");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_and_json_are_written_atomically_together() {
    let dir = temp_dir("out");
    let report = dir.join("report.md");
    let json = dir.join("results.json");

    let out = experiments(&[
        "--quick",
        "--out",
        report.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
        "t1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&report).unwrap();
    assert!(text.starts_with("# Experiment report"));
    assert!(text.contains("## T1"));
    assert!(text.contains("total wall time"));

    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).expect("valid json output");
    drop(parsed);

    assert!(!dir.join("report.md.tmp").exists());
    assert!(!dir.join("results.json.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
