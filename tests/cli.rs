//! Smoke tests for the `mmreliab` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table1_prints_all_models() {
    let (ok, stdout, _) = run(&["table1"]);
    assert!(ok);
    for name in [
        "Sequential Consistency",
        "Total Store Order",
        "Partial Store Order",
        "Weak Ordering",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn survival_reports_bounds_and_estimates() {
    let (ok, stdout, _) = run(&[
        "survival", "--model", "tso", "--trials", "4000", "--seed", "1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("paper bounds"));
    assert!(stdout.contains("Rao-Blackwellised"));
    assert!(stdout.contains("direct simulation"));
}

#[test]
fn survival_below_f64_range_prints_a_bound() {
    // At n = 1000 every sampled factor 2^-K has K > 1074 and rounds to 0.
    for model in ["tso", "pso", "wo"] {
        let (ok, stdout, stderr) = run(&[
            "survival",
            "--model",
            model,
            "--threads",
            "1000",
            "--trials",
            "10",
            "--workers",
            "1",
        ]);
        assert!(ok, "{model}: {stdout}{stderr}");
        // The bound is on the sampled estimate, not on Pr[A]: at n = 1000
        // under TSO it sits 75 bits under the paper's lower bound.
        assert!(
            stdout.contains("Rao-Blackwellised:   below f64 range   (estimate's log2 < -"),
            "{model}: {stdout}"
        );
        assert!(
            stdout.contains(
                "\n                       the samples do not resolve Pr[A]; \
                 the bound is on their estimate only\n"
            ),
            "{model}: {stdout}"
        );
        assert!(!stdout.contains("(log2 < "), "{model}: {stdout}");
        // The linear bounds underflow to 0; their log2 values do not.
        let paper = paper_log2(&stdout, "paper bounds:");
        assert!(
            paper.len() == 2 && paper.iter().all(|b| b.is_finite() && *b < -1000.0),
            "{model}: {stdout}"
        );
        for bad in ["NaN", "inf"] {
            assert!(!stdout.contains(bad), "{model}: {stdout}");
        }
    }
    // SC's exact value underflows the same way.
    let (ok, stdout, stderr) = run(&[
        "survival",
        "--model",
        "sc",
        "--threads",
        "1000",
        "--trials",
        "10",
        "--workers",
        "1",
    ]);
    assert!(ok, "sc: {stdout}{stderr}");
    let paper = paper_log2(&stdout, "paper (exact):");
    assert!(
        paper.len() == 1 && paper[0].is_finite() && paper[0] < -1000.0,
        "sc: {stdout}"
    );
}

/// The log2 values printed on `survival`'s paper line that starts with
/// `label`: the numbers after its `log2`.
fn paper_log2(stdout: &str, label: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {stdout}"));
    let (_, log2) = line
        .split_once("log2")
        .unwrap_or_else(|| panic!("no log2 on {line:?}"));
    log2.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().unwrap_or_else(|_| panic!("{w:?} on {line:?}")))
        .collect()
}

#[test]
fn windows_shows_law_comparison() {
    let (ok, stdout, _) = run(&["windows", "--model", "wo", "--trials", "4000"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("paper law"));
    assert!(stdout.contains("mean gamma"));
}

#[test]
fn sweep_grid_renders_heatmap() {
    let (ok, stdout, _) = run(&["sweep", "--param", "grid", "--model", "tso"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("scale:"));
}

#[test]
fn trace_renders_rounds() {
    let (ok, stdout, _) = run(&["trace", "--model", "tso", "--m", "5", "--seed", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("after round"));
    assert!(stdout.contains("gamma ="));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_command_creates_no_artifact() {
    // The shared flags are installed only for a command that runs: an
    // unknown one leaves neither the flight log nor the cache behind.
    let dir = std::env::temp_dir().join(format!("mmreliab-cli-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (flight, cache) = (dir.join("run.flight"), dir.join("cache"));
    let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
        .args(["frobnicate", "--flight", flight.to_str().unwrap()])
        .args(["--cache", cache.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command frobnicate"), "{stderr}");
    assert!(
        !flight.exists() && !cache.exists(),
        "an unknown command created an artifact"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_flag_value_fails() {
    let (ok, _, stderr) = run(&["survival", "--model"]);
    assert!(!ok);
    assert!(stderr.contains("--model needs a value"));
}

#[test]
fn zero_trials_rejected() {
    let (ok, _, stderr) = run(&["opsim", "--trials", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--trials must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn zero_threads_rejected() {
    let (ok, _, stderr) = run(&["opsim", "--threads", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn zero_workers_rejected() {
    let (ok, _, stderr) = run(&["survival", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn zero_m_rejected() {
    let (ok, _, stderr) = run(&["trace", "--m", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--m must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Asserts `args` fails naming `flag` and the value it got.
fn rejects_value(args: &[&str], flag: &str, takes: &str, got: &str) {
    let (ok, _, stderr) = run(args);
    assert!(!ok, "{args:?}");
    let expected = format!("{flag} takes {takes}, got \"{got}\"");
    assert!(stderr.contains(&expected), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn malformed_seed_names_the_flag() {
    rejects_value(
        &["survival", "--seed", "abc"],
        "--seed",
        "an unsigned integer",
        "abc",
    );
}

#[test]
fn malformed_threads_names_the_flag() {
    let huge = "99999999999999999999";
    rejects_value(
        &["survival", "--threads", huge],
        "--threads",
        "a positive integer",
        huge,
    );
}

#[test]
fn malformed_trials_names_the_flag() {
    rejects_value(
        &["opsim", "--trials", "1e6"],
        "--trials",
        "a positive integer",
        "1e6",
    );
}

#[test]
fn malformed_m_names_the_flag() {
    rejects_value(&["trace", "--m", "-3"], "--m", "a positive integer", "-3");
}

#[test]
fn malformed_workers_names_the_flag() {
    rejects_value(
        &["windows", "--workers", "four"],
        "--workers",
        "a positive integer",
        "four",
    );
}

#[test]
fn survival_output_is_identical_across_worker_counts() {
    // --workers only changes wall-clock time: the chunk-tiled executor
    // produces the same bits at any worker count.
    let survival = [
        "survival", "--model", "tso", "--trials", "4000", "--seed", "5",
    ];
    let windows = [
        "windows", "--model", "wo", "--trials", "20000", "--seed", "11",
    ];
    let opsim = ["opsim", "--threads", "2", "--trials", "4000", "--seed", "3"];
    for base in [&survival[..], &windows[..], &opsim[..]] {
        let (ok1, one, _) = run(&[base, &["--workers", "1"]].concat());
        let (ok4, four, _) = run(&[base, &["--workers", "4"]].concat());
        assert!(ok1 && ok4, "{base:?}");
        assert_eq!(one, four, "{base:?}");
    }
}

#[test]
fn metrics_flag_writes_parseable_snapshot_and_quiet_is_quiet() {
    let dir = std::env::temp_dir().join(format!("mmreliab-cli-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");

    let (ok, stdout, stderr) = run(&[
        "survival",
        "--model",
        "tso",
        "--trials",
        "4000",
        "--seed",
        "5",
        "--quiet",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // Results go to stdout regardless of --quiet; status lines are gone.
    assert!(stdout.contains("paper bounds"));
    assert!(stderr.is_empty(), "{stderr}");

    let snap: obs::Snapshot = serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics snapshot parses");
    assert!(snap.counter("mc.runner.trials_completed").unwrap_or(0) >= 4000);

    // Telemetry flags do not perturb the seeded result.
    let (ok_plain, plain, _) = run(&[
        "survival", "--model", "tso", "--trials", "4000", "--seed", "5",
    ]);
    assert!(ok_plain);
    assert_eq!(stdout, plain);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flag_fails_with_usage() {
    for args in [
        &["survival", "--bogus"][..],
        &["windows", "--lanes", "8"],
        // Removed surfaces: the heartbeat and live telemetry.
        &["opsim", "--trials", "2000", "--progress"],
        &["table1", "--serve", "127.0.0.1:0"],
        // The retired metrics format switch: JSON is the one format.
        &["table1", "--metrics-format", "prom"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}");
    }
}

#[test]
fn inspect_renders_a_survival_flight_log_and_diffs_it_against_itself() {
    let dir = std::env::temp_dir().join(format!("mmreliab-cli-inspect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("survival.flight");
    let log = log.to_str().unwrap();

    let (ok, _, stderr) = run(&[
        "survival", "--model", "tso", "--trials", "4000", "--seed", "5", "--flight", log,
    ]);
    assert!(ok, "{stderr}");

    let (ok, timeline, stderr) = run(&["inspect", log]);
    assert!(ok, "{stderr}");
    assert!(timeline.contains("flight timeline: "), "{timeline}");
    assert!(timeline.contains("run_start"), "{timeline}");
    assert!(timeline.contains("chunk_claimed"), "{timeline}");

    let (ok, diff, stderr) = run(&["inspect", log, "--diff", log]);
    assert!(ok, "{stderr}");
    assert!(diff.contains("payload divergence: 0"), "{diff}");

    // A missing artifact is a usage error, not a panic.
    let (ok, _, stderr) = run(&["inspect", dir.join("absent").to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
