//! The shared unusable-artifact degradation contract, table-driven over
//! every artifact flag of the `experiments` binary: an unusable path
//! warns (`warning: <artifact> disabled: …`), the run completes
//! with results intact, and the process exits 2.

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("experiments-degrade-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_artifact_flag_degrades_to_warning_and_exit_2_with_results_intact() {
    let dir = tmp_dir("flags");
    // A plain file whose "subdirectory" can never exist: using it as a
    // parent directory is unusable for every artifact kind.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let unusable = blocker.join("sub").join("artifact");
    let unusable = unusable.to_str().unwrap();

    let cases: &[(&str, &str)] = &[
        ("--metrics", unusable),
        ("--trace", unusable),
        ("--flight", unusable),
        ("--dossier-dir", unusable),
        ("--cache", unusable),
    ];
    for (i, (flag, value)) in cases.iter().enumerate() {
        let json = dir.join(format!("results-{i}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                "--quick",
                "--json",
                json.to_str().unwrap(),
                flag,
                value,
                "t1",
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("disabled"), "{flag}: {stderr}");
        let parsed: mmr_bench::RunResult =
            serde_json::from_str(&std::fs::read_to_string(&json).unwrap())
                .unwrap_or_else(|e| panic!("{flag}: results must land: {e:?}"));
        assert_eq!(parsed.experiments.len(), 1, "{flag}");
        assert!(!parsed.experiments[0].degraded, "{flag}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degraded_artifact_outranks_a_degraded_run_in_the_exit_code() {
    // Exit-code precedence is 2 (missing artifact) > 3 (degraded run):
    // the hard chaos profile alone exits 3, but a degraded artifact on
    // the same run must surface as 2.
    let dir = tmp_dir("precedence");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let unusable = blocker.join("sub").join("f.flight");

    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--quick",
            "--seed",
            "20110606",
            "--chaos",
            "999:hard",
            "--flight",
            unusable.to_str().unwrap(),
            "t1",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("flight event log disabled"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
