//! The shared unusable-artifact degradation contract, table-driven over
//! every artifact flag of the `mmreliab` binary: an unusable path
//! warns (`warning: <artifact> disabled: …`), the results still
//! print, and the process exits 2 — never 0 (the caller must notice the
//! missing artifact) and never a crash (the computation must survive).

use std::path::PathBuf;
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmreliab-degrade-{tag}-{}", std::process::id()));
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
    for (flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
            .args(["table1", flag, value])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("disabled"), "{flag}: {stderr}");
        assert!(
            stdout.contains("Sequential Consistency"),
            "{flag}: results must land before the degradation surfaces: {stdout}"
        );
    }

    // A usable path for every flag is the control: exit 0, no warning.
    let ok = dir.join("ok");
    std::fs::create_dir_all(&ok).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
        .args([
            "table1",
            "--metrics",
            ok.join("m.json").to_str().unwrap(),
            "--flight",
            ok.join("f.flight").to_str().unwrap(),
            "--dossier-dir",
            ok.join("dossiers").to_str().unwrap(),
            "--cache",
            ok.join("cache").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("disabled"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degradations_accumulate_but_exit_code_stays_2() {
    let dir = tmp_dir("multi");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let unusable = blocker.join("sub").join("artifact");
    let unusable = unusable.to_str().unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_mmreliab"))
        .args([
            "table1",
            "--cache",
            unusable,
            "--flight",
            unusable,
            "--dossier-dir",
            unusable,
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("result cache disabled"), "{stderr}");
    assert!(stderr.contains("flight event log disabled"), "{stderr}");
    assert!(stderr.contains("crash dossiers disabled"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
