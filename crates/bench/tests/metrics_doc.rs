//! Schema test: METRICS.md documents every metric name a full
//! experiment run emits, and documents no name the source has dropped.
//! Lives in its own test binary so the process-global telemetry registry
//! only sees the suite run below.

use mmr_bench::{registry, run_one_isolated, Ctx};
use std::path::{Path, PathBuf};

/// The workspace root.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn metrics_doc() -> String {
    std::fs::read_to_string(Path::new(ROOT).join("METRICS.md")).expect("METRICS.md readable")
}

/// First backticked token of every `|` table row in METRICS.md.
fn documented_names(doc: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(start) = line.find('`') else {
            continue;
        };
        let rest = &line[start + 1..];
        let Some(end) = rest.find('`') else { continue };
        names.push(rest[..end].to_owned());
    }
    names
}

/// Whether `name` matches a documented pattern, where a single `*` segment
/// wildcards one dot-separated segment (e.g. `exp.*.runs`).
fn covered(name: &str, patterns: &[String]) -> bool {
    patterns.iter().any(|p| {
        if !p.contains('*') {
            return p == name;
        }
        let pat: Vec<&str> = p.split('.').collect();
        let got: Vec<&str> = name.split('.').collect();
        pat.len() == got.len() && pat.iter().zip(&got).all(|(p, g)| *p == "*" || p == g)
    })
}

#[test]
fn metrics_doc_covers_every_emitted_name() {
    let patterns = documented_names(&metrics_doc());
    assert!(
        patterns.len() > 20,
        "METRICS.md should document the full name table, parsed {}",
        patterns.len()
    );

    // A full registry sweep at a quick size: every experiment instruments
    // itself, so the snapshot below is the complete runtime name universe.
    let ctx = Ctx::quick().with_threads(2);
    for e in &registry() {
        let result = run_one_isolated(e, &ctx);
        assert_eq!(result.mismatched, 0, "{}: {}", e.id, result.report);
    }
    let snap = obs::snapshot();
    assert!(!snap.counters.is_empty(), "expected a live telemetry build");

    let mut missing = Vec::new();
    for name in snap
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .chain(snap.gauges.iter().map(|g| g.name.as_str()))
        .chain(snap.histograms.iter().map(|h| h.name.as_str()))
    {
        if !covered(name, &patterns) {
            missing.push(name.to_owned());
        }
    }
    missing.sort();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "telemetry names missing from METRICS.md: {missing:?}"
    );
}

/// The non-test Rust source of `src/` and every `crates/*/src/`: each
/// file up to its first `#[cfg(test)]`, so a test that still names a
/// dropped metric cannot keep its row alive.
fn product_source() -> String {
    let root = Path::new(ROOT);
    let mut dirs: Vec<PathBuf> = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(krate.unwrap().path().join("src"));
    }
    let mut source = String::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let end = text.find("#[cfg(test)]").unwrap_or(text.len());
                source.push_str(&text[..end]);
            }
        }
    }
    source
}

#[test]
fn metrics_doc_names_no_metric_the_source_dropped() {
    // The reverse of the coverage check: every literal name in the table
    // is a string literal somewhere in the product source. (Wildcard rows
    // are built with `format!` and covered by the run above.)
    let source = product_source();
    let stale: Vec<String> = documented_names(&metrics_doc())
        .into_iter()
        .filter(|name| !name.contains('*') && !source.contains(&format!("\"{name}\"")))
        .collect();
    assert!(
        stale.is_empty(),
        "METRICS.md documents names no source emits: {stale:?}"
    );
}

#[test]
fn wildcard_matching_is_segment_exact() {
    let pats = vec!["exp.*.runs".to_owned(), "mc.runner.runs".to_owned()];
    assert!(covered("exp.thm62.runs", &pats));
    assert!(covered("mc.runner.runs", &pats));
    assert!(!covered("exp.thm62.elapsed_us", &pats));
    assert!(!covered("exp.thm62.runs.extra", &pats));
    assert!(!covered("mc.runner.trials_completed", &pats));
}
