//! Prometheus text-format exposition of a [`Snapshot`], plus a lint for
//! the invariants scrapers rely on.
//!
//! Mapping:
//!
//! * counters → `# TYPE name counter` and one sample;
//! * gauges → `# TYPE name gauge` and one sample;
//! * histograms → `# TYPE name histogram` with cumulative `name_bucket`
//!   samples over the log₂ buckets (`le` is the inclusive upper bound of
//!   each integer bucket: `0` for the zero bucket, `2·lo − 1` for
//!   `[lo, 2·lo)`), a `+Inf` bucket, `name_sum`, and `name_count`;
//! * spans → `span_<name>_count` / `span_<name>_total_us` counters and a
//!   `span_<name>_max_us` gauge (the `span_` prefix keeps aggregate span
//!   names from colliding with metric names after sanitization).
//!
//! Metric names are sanitized to `[a-zA-Z0-9_:]` (dots become
//! underscores), matching the exposition-format grammar.
//!
//! Every family is preceded by a `# HELP` line whose text is sourced
//! from the METRICS.md name table (compiled in via `include_str!`), so
//! the exposition is self-describing and cannot drift from the repo's
//! own metric reference. Names the table does not document get an
//! explicit fallback text; [`lint`] requires the HELP line either way.

use crate::Snapshot;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The METRICS.md name table, parsed once: `(pattern, meaning)` rows
/// where a pattern may contain `*` wildcard segments
/// (`mmr.model.*.trials`).
fn help_table() -> &'static [(String, String)] {
    static TABLE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rows = Vec::new();
        for line in include_str!("../../../../METRICS.md").lines() {
            // Documented rows look like: | `name` | `source` | Meaning. |
            let Some(rest) = line.trim().strip_prefix("| `") else {
                continue;
            };
            let Some((name, rest)) = rest.split_once('`') else {
                continue;
            };
            let cells: Vec<&str> = rest.split('|').collect();
            if cells.len() < 3 {
                continue;
            }
            let meaning = cells[cells.len() - 2].trim().replace('`', "");
            if !meaning.is_empty() {
                rows.push((name.to_owned(), meaning));
            }
        }
        rows
    })
}

/// Whether a METRICS.md pattern covers a raw metric name (`*` matches
/// exactly one dot-separated segment).
fn covers(pattern: &str, name: &str) -> bool {
    let pat: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    pat.len() == segs.len() && pat.iter().zip(&segs).all(|(p, s)| *p == "*" || p == s)
}

/// The METRICS.md meaning of a raw (pre-sanitization) name, or an
/// explicit fallback for undocumented names.
fn help_text(raw: &str) -> String {
    help_table()
        .iter()
        .find(|(pattern, _)| covers(pattern, raw))
        .map_or_else(
            || "Undocumented metric; add a row to METRICS.md.".to_owned(),
            |(_, meaning)| meaning.clone(),
        )
}

/// Replaces every character outside the Prometheus metric-name alphabet
/// with `_` (and prefixes `_` when the name starts with a digit).
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' || (c.is_ascii_digit() && i > 0) {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders the snapshot in the Prometheus text exposition format.
#[must_use]
pub fn prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if let Some(b) = &snapshot.build_info {
        let _ = writeln!(out, "# HELP mmr_build_info {}", help_text("mmr_build_info"));
        let _ = writeln!(out, "# TYPE mmr_build_info gauge");
        let _ = writeln!(
            out,
            "mmr_build_info{{version=\"{}\",git_rev=\"{}\",host_cores=\"{}\",chunk_width=\"{}\"}} 1",
            label_escape(&b.version),
            label_escape(&b.git_rev),
            b.host_cores,
            b.chunk_width
        );
    }
    for c in &snapshot.counters {
        let name = sanitize(&c.name);
        let _ = writeln!(out, "# HELP {name} {}", help_text(&c.name));
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snapshot.gauges {
        let name = sanitize(&g.name);
        let _ = writeln!(out, "# HELP {name} {}", help_text(&g.name));
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        let _ = writeln!(out, "# HELP {name} {}", help_text(&h.name));
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            // Inclusive integer upper bound of the log2 bucket.
            let le = if b.lo == 0 { 0 } else { 2 * b.lo - 1 };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    for s in &snapshot.spans {
        let name = format!("span_{}", sanitize(&s.name));
        let base = help_text(&s.name);
        let _ = writeln!(out, "# HELP {name}_count {base} (completed spans)");
        let _ = writeln!(out, "# TYPE {name}_count counter");
        let _ = writeln!(out, "{name}_count {}", s.count);
        let _ = writeln!(out, "# HELP {name}_total_us {base} (total duration, us)");
        let _ = writeln!(out, "# TYPE {name}_total_us counter");
        let _ = writeln!(out, "{name}_total_us {}", s.total_us);
        let _ = writeln!(out, "# HELP {name}_max_us {base} (longest single span, us)");
        let _ = writeln!(out, "# TYPE {name}_max_us gauge");
        let _ = writeln!(out, "{name}_max_us {}", s.max_us);
    }
    out
}

/// Checks the invariants scrape consumers rely on:
///
/// 1. every sample line belongs to a metric declared by a preceding
///    `# TYPE` line (histogram `_bucket`/`_sum`/`_count` samples belong to
///    their base name);
/// 2. histogram bucket counts are monotone non-decreasing in declaration
///    order;
/// 3. every histogram's `+Inf` bucket equals its `_count` sample;
/// 4. every `# TYPE` line is immediately preceded by a non-empty
///    `# HELP` line for the same metric name.
///
/// # Errors
///
/// The first violated invariant, as a human-readable message with the
/// offending line.
pub fn lint(text: &str) -> Result<(), String> {
    let mut declared: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut last_bucket: Option<(String, u64)> = None; // (histogram, cumulative)
    let mut inf_buckets: Vec<(String, u64)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut last_help: Option<String> = None;

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().ok_or(format!("bare HELP line: {line:?}"))?;
            let help = parts.next().unwrap_or("").trim();
            if help.is_empty() {
                return Err(format!("HELP without text: {line:?}"));
            }
            last_help = Some(name.to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("bare TYPE line: {line:?}"))?;
            let kind = parts.next().ok_or(format!("TYPE without kind: {line:?}"))?;
            if last_help.as_deref() != Some(name) {
                return Err(format!("TYPE not preceded by its # HELP: {line:?}"));
            }
            declared.push((name.to_owned(), kind.to_owned()));
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment form: {line:?}"));
        }
        // Sample line: `name[{labels}] value`.
        let metric_end = line
            .find(['{', ' '])
            .ok_or(format!("malformed sample line: {line:?}"))?;
        let metric = &line[..metric_end];
        let value: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(format!("sample without an integer value: {line:?}"))?;

        // Resolve the declared family this sample belongs to.
        let family = declared
            .iter()
            .rev()
            .find(|(name, kind)| {
                metric == name
                    || (kind == "histogram"
                        && [
                            format!("{name}_bucket"),
                            format!("{name}_sum"),
                            format!("{name}_count"),
                        ]
                        .contains(&metric.to_owned()))
            })
            .ok_or(format!("sample not preceded by a # TYPE: {line:?}"))?
            .clone();

        if family.1 == "histogram" && metric == format!("{}_bucket", family.0) {
            if line.contains("le=\"+Inf\"") {
                inf_buckets.push((family.0.clone(), value));
            }
            match &last_bucket {
                Some((name, prev)) if *name == family.0 && value < *prev => {
                    return Err(format!(
                        "histogram {} buckets not monotone: {} after {}",
                        family.0, value, prev
                    ));
                }
                _ => {}
            }
            last_bucket = Some((family.0.clone(), value));
        } else {
            last_bucket = None;
            if family.1 == "histogram" && metric == format!("{}_count", family.0) {
                counts.push((family.0.clone(), value));
            }
        }
    }

    for (name, inf) in &inf_buckets {
        let count = counts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .ok_or(format!("histogram {name} has +Inf bucket but no _count"))?;
        if *inf != count {
            return Err(format!(
                "histogram {name}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    for (name, _) in &counts {
        if !inf_buckets.iter().any(|(n, _)| n == name) {
            return Err(format!("histogram {name} lacks a +Inf bucket"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSnapshot, GaugeSnapshot, HistogramBucket, HistogramSnapshot, SpanSnapshot};

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "mc.runner.runs".into(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "mc.pool.workers_busy".into(),
                value: 2,
            }],
            histograms: vec![HistogramSnapshot {
                name: "mc.runner.chunk_wall_us".into(),
                count: 7,
                sum: 900,
                min: 0,
                max: 600,
                buckets: vec![
                    HistogramBucket { lo: 0, count: 1 },
                    HistogramBucket { lo: 64, count: 4 },
                    HistogramBucket { lo: 512, count: 2 },
                ],
            }],
            spans: vec![SpanSnapshot {
                name: "thm62".into(),
                count: 1,
                total_us: 1500,
                max_us: 1500,
            }],
            span_events: Vec::new(),
            flight_events: None,
            build_info: None,
        }
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("mc.runner.runs"), "mc_runner_runs");
        assert_eq!(sanitize("exp.t1.runs"), "exp_t1_runs");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c"), "a_b_c");
    }

    #[test]
    fn help_table_covers_documented_names() {
        assert_eq!(
            help_text("mc.runner.runs"),
            "Monte-Carlo runner invocations."
        );
        // Wildcard segments resolve per the METRICS.md convention.
        assert!(help_text("mmr.model.SC.trials").contains("Survival trials per model"));
        assert!(help_text("exp.t1.runs").contains("Completions per experiment"));
        // Span rows are looked up by raw span name.
        assert!(help_text("t1").contains("one span per completed run"));
        // Undocumented names get the explicit fallback.
        assert!(help_text("export.test.undocumented").contains("Undocumented metric"));
        assert!(!covers("mmr.model.*.trials", "mmr.model.trials"));
    }

    #[test]
    fn exposition_has_types_buckets_and_passes_lint() {
        let text = prometheus(&sample());
        assert!(text.contains("# HELP mc_runner_runs Monte-Carlo runner invocations."));
        assert!(text.contains("# TYPE mc_runner_runs counter"));
        assert!(text.contains("# HELP span_thm62_count Experiment runtime. (completed spans)"));
        assert!(text.contains("mc_runner_runs 3"));
        assert!(text.contains("# TYPE mc_pool_workers_busy gauge"));
        assert!(text.contains("# TYPE mc_runner_chunk_wall_us histogram"));
        // Cumulative buckets with inclusive integer bounds: 0 | [64,128) →
        // le=127 | [512,1024) → le=1023, then +Inf == count.
        assert!(text.contains("mc_runner_chunk_wall_us_bucket{le=\"0\"} 1"));
        assert!(text.contains("mc_runner_chunk_wall_us_bucket{le=\"127\"} 5"));
        assert!(text.contains("mc_runner_chunk_wall_us_bucket{le=\"1023\"} 7"));
        assert!(text.contains("mc_runner_chunk_wall_us_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("mc_runner_chunk_wall_us_sum 900"));
        assert!(text.contains("mc_runner_chunk_wall_us_count 7"));
        assert!(text.contains("span_thm62_count 1"));
        assert!(text.contains("span_thm62_total_us 1500"));
        lint(&text).unwrap();
    }

    #[test]
    fn empty_snapshot_is_lintable() {
        let snap = Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            span_events: Vec::new(),
            flight_events: None,
            build_info: None,
        };
        let text = prometheus(&snap);
        assert!(text.is_empty());
        lint(&text).unwrap();
    }

    #[test]
    fn lint_rejects_undeclared_samples() {
        let err = lint("orphan_metric 5\n").unwrap_err();
        assert!(err.contains("not preceded by a # TYPE"), "{err}");
    }

    #[test]
    fn lint_rejects_non_monotone_buckets() {
        let text = "# HELP h a histogram\n\
                    # TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"3\"} 4\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\n\
                    h_count 5\n";
        let err = lint(text).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn lint_rejects_inf_count_mismatch() {
        let text = "# HELP h a histogram\n\
                    # TYPE h histogram\n\
                    h_bucket{le=\"1\"} 4\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    h_sum 9\n\
                    h_count 5\n";
        let err = lint(text).unwrap_err();
        assert!(err.contains("+Inf bucket 4 != _count 5"), "{err}");
    }

    #[test]
    fn lint_requires_help_before_type() {
        let err = lint("# TYPE h counter\nh 1\n").unwrap_err();
        assert!(err.contains("not preceded by its # HELP"), "{err}");
        // HELP for a different name does not satisfy the requirement.
        let err = lint("# HELP other text\n# TYPE h counter\nh 1\n").unwrap_err();
        assert!(err.contains("not preceded by its # HELP"), "{err}");
        // Empty HELP text is rejected outright.
        let err = lint("# HELP h\n# TYPE h counter\nh 1\n").unwrap_err();
        assert!(err.contains("HELP without text"), "{err}");
        lint("# HELP h fine\n# TYPE h counter\nh 1\n").unwrap();
    }

    #[test]
    fn build_info_renders_as_labeled_gauge_and_lints() {
        let mut snap = sample();
        snap.build_info = Some(crate::BuildInfo {
            version: "0.1.0".into(),
            git_rev: "abc123\"x".into(),
            host_cores: 8,
            chunk_width: 4096,
        });
        let text = prometheus(&snap);
        assert!(text.contains("# HELP mmr_build_info "), "{text}");
        assert!(text.contains("# TYPE mmr_build_info gauge"), "{text}");
        assert!(
            text.contains(
                "mmr_build_info{version=\"0.1.0\",git_rev=\"abc123\\\"x\",host_cores=\"8\",chunk_width=\"4096\"} 1"
            ),
            "{text}"
        );
        // The HELP text comes from the METRICS.md table, not the fallback.
        assert!(!text.contains("mmr_build_info Undocumented"), "{text}");
        lint(&text).unwrap();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn live_snapshot_passes_lint() {
        crate::global().counter("export.test.prom").add(2);
        crate::global()
            .histogram("export.test.prom_hist")
            .record(100);
        drop(crate::span("export.test.prom_span"));
        lint(&prometheus(&crate::snapshot())).unwrap();
    }
}
