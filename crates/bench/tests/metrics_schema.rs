//! Schema validation of the `--metrics` snapshot emitted by a full
//! (quick-context) 16-experiment run. Run by ci.sh as the machine check
//! that the telemetry surface stays complete: runner counters, pool
//! counters, per-memory-model attribution, histograms, and spans.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metrics-schema-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_run_metrics_snapshot_has_complete_schema() {
    let dir = temp_dir("full");
    let metrics = dir.join("metrics.json");
    let json = dir.join("results.json");

    // All 16 experiments (no ids selects the whole registry), quick context.
    // Two worker threads so the persistent pool actually dispatches tickets
    // (at --threads 1 the caller drains every scatter inline).
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--quick",
            "--quiet",
            "--threads",
            "2",
            "--json",
            json.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("spawn experiments binary");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --quiet suppresses every status line.
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let snap: obs::Snapshot = serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap())
        .expect("metrics snapshot parses as obs::Snapshot");

    // Runner layer: every experiment drives the Monte-Carlo runner, so the
    // chunk machinery must show real work.
    assert!(snap.counter("mc.runner.runs").unwrap_or(0) > 0);
    assert!(snap.counter("mc.runner.chunks_claimed").unwrap_or(0) > 0);
    assert!(snap.counter("mc.runner.trials_completed").unwrap_or(0) > 0);
    // The retry counter exists (registered) even when no chunk panicked.
    assert_eq!(snap.counter("mc.runner.chunks_retried"), Some(0));
    assert_eq!(snap.counter("mc.runner.deadline_truncations"), Some(0));

    // Pool layer.
    assert!(snap.counter("mc.pool.scatter_calls").unwrap_or(0) > 0);
    assert!(snap.counter("mc.pool.tickets_submitted").unwrap_or(0) > 0);
    assert_eq!(
        snap.counter("mc.pool.tickets_submitted"),
        snap.counter("mc.pool.tickets_run"),
    );

    // Per-memory-model attribution: all four named models ran trials.
    for model in ["SC", "TSO", "PSO", "WO"] {
        let trials = snap.counter(&format!("mmr.model.{model}.trials"));
        assert!(trials.unwrap_or(0) > 0, "no trials attributed to {model}");
    }

    // Histograms observed real durations.
    for name in ["mc.runner.chunk_wall_us", "mc.pool.queue_wait_us"] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.max >= h.min);
    }

    // Per-experiment counters and spans for the whole registry.
    let registry = mmr_bench::registry();
    assert_eq!(registry.len(), 16);
    for e in &registry {
        assert_eq!(
            snap.counter(&format!("exp.{}.runs", e.id)),
            Some(1),
            "exp.{}.runs missing or wrong",
            e.id
        );
        let span = snap
            .span(e.id)
            .unwrap_or_else(|| panic!("span {} missing", e.id));
        assert_eq!(span.count, 1);
        assert!(span.total_us >= span.max_us);
    }

    // The structured results written alongside are unaffected by telemetry:
    // they parse and carry the full registry.
    let run: mmr_bench::RunResult =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(run.experiments.len(), 16);

    std::fs::remove_dir_all(&dir).unwrap();
}
