//! Schema test: METRICS.md documents every metric name a full
//! experiment run emits. Lives in its own test binary so the process-global
//! telemetry registry only sees the suite run below.

use mmr_bench::{registry, run_one_isolated, Ctx};

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
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md");
    let doc = std::fs::read_to_string(doc_path).expect("METRICS.md readable");
    let patterns = documented_names(&doc);
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

#[test]
fn wildcard_matching_is_segment_exact() {
    let pats = vec!["exp.*.runs".to_owned(), "mc.runner.runs".to_owned()];
    assert!(covered("exp.thm62.runs", &pats));
    assert!(covered("mc.runner.runs", &pats));
    assert!(!covered("exp.thm62.elapsed_us", &pats));
    assert!(!covered("exp.thm62.runs.extra", &pats));
    assert!(!covered("mc.runner.trials_completed", &pats));
}
