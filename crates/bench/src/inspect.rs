//! `inspect`: the read-only forensic analyzer over flight artifacts.
//!
//! One entry point, [`inspect`], sniffs what it was pointed at and
//! renders the matching report:
//!
//! * a **flight event log** (`MMRE` frames, written by `--flight`) —
//!   chronological timeline with per-chunk causality chains and the
//!   event-type histogram; with `--diff OTHER`, the payload comparison
//!   against a second log (typically a chaos run against its fault-free
//!   twin);
//! * a **crash dossier** (JSON, written into `--dossier-dir`) — reason,
//!   request key, fault-ledger delta, and the final ring of events;
//! * a **cache directory** (`seg-*.mmrs` segments) or **dossier
//!   directory** — a per-file record census without modifying anything.
//!
//! Everything here is strictly read-only: unlike `Store::open`, which
//! truncates torn tails as part of recovery, a forensic pass must leave
//! the evidence exactly as the crash left it.

use std::fmt::Write as _;
use std::path::Path;

/// Inspects `path` (auto-detecting its artifact type) and renders the
/// report. `diff` adds the two-log payload comparison and is only
/// meaningful when `path` is a flight event log.
///
/// # Errors
///
/// A human-readable message when the artifact cannot be read or is not
/// one of the recognized types.
pub fn inspect(path: &Path, diff: Option<&Path>) -> Result<String, String> {
    if path.is_dir() {
        if diff.is_some() {
            return Err("--diff only applies to flight event logs".into());
        }
        return inspect_dir(path);
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if bytes.starts_with(b"MMRE") {
        return inspect_flight(path, &bytes, diff);
    }
    if diff.is_some() {
        return Err("--diff only applies to flight event logs".into());
    }
    if bytes.starts_with(b"{") {
        return inspect_dossier(path, &bytes);
    }
    Err(format!(
        "{}: not a flight log (MMRE), dossier (JSON), or cache directory",
        path.display()
    ))
}

/// Parses one flight log leniently: the valid prefix plus a note about
/// anything truncated or skipped.
fn parse_flight(path: &Path, bytes: &[u8]) -> Result<(obs::flight::ParsedLog, String), String> {
    let text = String::from_utf8_lossy(bytes);
    let parsed = obs::flight::parse_log(&text);
    let mut notes = String::new();
    if parsed.torn {
        let _ = writeln!(
            notes,
            "note: torn tail truncated after {} valid events ({})",
            parsed.events.len(),
            path.display()
        );
    }
    if parsed.skipped > 0 {
        let _ = writeln!(
            notes,
            "note: {} well-framed line(s) of an unknown version skipped",
            parsed.skipped
        );
    }
    Ok((parsed, notes))
}

fn inspect_flight(path: &Path, bytes: &[u8], diff: Option<&Path>) -> Result<String, String> {
    let (parsed, notes) = parse_flight(path, bytes)?;
    let mut out = notes;
    out.push_str(&obs::flight::render_timeline(&parsed.events));
    out.push_str(&obs::flight::render_histogram(&parsed.events));
    if let Some(other) = diff {
        let other_bytes =
            std::fs::read(other).map_err(|e| format!("cannot read {}: {e}", other.display()))?;
        if !other_bytes.starts_with(b"MMRE") {
            return Err(format!("{}: not a flight event log", other.display()));
        }
        let (other_parsed, other_notes) = parse_flight(other, &other_bytes)?;
        out.push_str(&other_notes);
        let _ = writeln!(out, "diff vs {}:", other.display());
        out.push_str(&obs::flight::diff_logs(&parsed.events, &other_parsed.events).render());
    }
    Ok(out)
}

fn inspect_dossier(path: &Path, bytes: &[u8]) -> Result<String, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| format!("{}: not UTF-8: {e}", path.display()))?;
    let dossier: obs::flight::Dossier = serde_json::from_str(text)
        .map_err(|e| format!("{}: not a crash dossier: {e:?}", path.display()))?;
    Ok(obs::flight::render_dossier(&dossier))
}

/// A directory is either a cache (segment files) or a dossier drop.
fn inspect_dir(dir: &Path) -> Result<String, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    let segments: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("seg-") && n.ends_with(".mmrs"))
        .collect();
    if !segments.is_empty() {
        return inspect_cache_dir(dir, &segments);
    }
    let dossiers: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("dossier-") && n.ends_with(".json"))
        .collect();
    if !dossiers.is_empty() {
        let mut out = format!("dossier directory: {} dossier(s)\n", dossiers.len());
        for name in dossiers {
            let path = dir.join(name);
            let _ = writeln!(out, "--- {name}");
            match std::fs::read(&path) {
                Ok(bytes) => match inspect_dossier(&path, &bytes) {
                    Ok(text) => out.push_str(&text),
                    Err(e) => {
                        let _ = writeln!(out, "  unreadable: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "  unreadable: {e}");
                }
            }
        }
        return Ok(out);
    }
    Err(format!(
        "{}: directory holds neither cache segments (seg-*.mmrs) nor dossiers (dossier-*.json)",
        dir.display()
    ))
}

/// Read-only census of a cache directory: per-segment valid records,
/// torn tails, and the distinct keys, sorted so two censuses of the same
/// records diff clean whatever order they were appended in.
fn inspect_cache_dir(dir: &Path, segments: &[&String]) -> Result<String, String> {
    let mut out = format!("cache directory: {} segment(s)\n", segments.len());
    let mut keys: Vec<String> = Vec::new();
    let mut total = 0usize;
    for name in segments {
        let bytes = std::fs::read(dir.join(name.as_str()))
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        // The census counts every CRC-valid `put` frame and pulls its
        // content address out of the JSON textually, so it needs no
        // knowledge of (and stays robust to changes in) the entry schema.
        let scan = obs::frame::SEGMENT.scan(&bytes);
        let puts: Vec<&str> = scan
            .frames
            .iter()
            .filter(|f| f.head.ends_with(" put"))
            .map(|f| f.json)
            .collect();
        keys.extend(
            puts.iter()
                .filter_map(|json| json_string_field(json, "key")),
        );
        total += puts.len();
        let _ = writeln!(
            out,
            "  {name}: {} record(s), {} byte(s){}",
            puts.len(),
            bytes.len(),
            if scan.torn { ", TORN TAIL" } else { "" }
        );
    }
    keys.sort();
    keys.dedup();
    let _ = writeln!(
        out,
        "records: {total} total, {} distinct key(s)",
        keys.len()
    );
    for key in &keys {
        let _ = writeln!(out, "  {key}");
    }
    Ok(out)
}

/// Extracts the first `"field":"..."` string value from compact JSON
/// (enough for a content-address census; escapes terminate the value).
fn json_string_field(json: &str, field: &str) -> Option<String> {
    let pat = format!("\"{field}\":\"");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find(['"', '\\'])?;
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmr-inspect-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One framed flight line, built with the real framing helpers.
    fn flight_line(seq: u64, kind: &str, detail: Option<&str>) -> String {
        let detail_json = detail.map_or(String::new(), |d| format!(",\"detail\":\"{d}\""));
        let json = format!(
            "{{\"seq\":{seq},\"t_us\":{},\"tid\":1,\"kind\":\"{kind}\"{detail_json}}}",
            seq * 50
        );
        obs::frame::FLIGHT.encode("1", &json)
    }

    #[test]
    fn flight_log_renders_timeline_and_histogram() {
        let dir = tmp_dir("flight");
        let path = dir.join("run.flight");
        let mut text = String::new();
        text.push_str(&flight_line(0, "run_start", None));
        text.push_str(&flight_line(1, "cache_miss", None));
        text.push_str(&flight_line(2, "cache_miss", None));
        text.push_str(&flight_line(3, "run_end", Some("ok")));
        std::fs::write(&path, &text).unwrap();

        let report = inspect(&path, None).unwrap();
        assert!(report.contains("flight timeline: 4 events"), "{report}");
        assert!(report.contains("event histogram (4 events):"), "{report}");
        assert!(report.contains("2  cache_miss"), "{report}");
        assert!(!report.contains("convergence"), "{report}");
        assert!(!report.contains("note: torn tail"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flight_diff_reports_zero_divergence_for_identical_payload() {
        let dir = tmp_dir("diff");
        let a = dir.join("a.flight");
        let b = dir.join("b.flight");
        let payload = [
            flight_line(0, "run_start", None),
            flight_line(1, "run_end", Some("ok")),
        ]
        .concat();
        std::fs::write(&a, &payload).unwrap();
        // Same payload plus an incident: still zero payload divergence.
        let mut noisy = flight_line(0, "run_start", None);
        noisy.push_str(&flight_line(1, "cache_miss", None));
        noisy.push_str(&flight_line(2, "run_end", Some("ok")));
        std::fs::write(&b, &noisy).unwrap();

        let report = inspect(&a, Some(&b)).unwrap();
        assert!(report.contains("payload divergence: 0"), "{report}");
        assert!(
            report.contains("incident events (informational): 0 vs 1"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_flight_log_is_noted_not_fatal() {
        let dir = tmp_dir("torn");
        let path = dir.join("run.flight");
        let mut text = flight_line(0, "run_start", None);
        let torn = flight_line(1, "run_end", Some("ok"));
        text.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, &text).unwrap();

        let report = inspect(&path, None).unwrap();
        assert!(
            report.contains("note: torn tail truncated after 1 valid events"),
            "{report}"
        );
        assert!(report.contains("flight timeline: 1 events"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn censuses_of_the_same_records_match_whatever_the_append_order() {
        let a = tmp_dir("census-a");
        let b = tmp_dir("census-b");
        fill_cache(&a, &[1, 2, 3, 4]);
        fill_cache(&b, &[4, 3, 2, 1]);
        let census_a = inspect(&a, None).unwrap();
        assert!(census_a.contains("4 distinct key(s)"), "{census_a}");
        assert_eq!(census_a, inspect(&b, None).unwrap());
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    #[test]
    fn dossier_in_the_span_ring_schema_still_renders() {
        // A dossier as written before experiment spans moved into the
        // flight ring: its snapshot carries `spans` and `span_events`.
        let dir = tmp_dir("old-dossier");
        let path = dir.join("dossier-1-000-experiment_panicked.json");
        let snapshot = r#"{"counters": [{"name": "exp.t1.runs", "value": 1}],
            "gauges": [], "histograms": [],
            "spans": [{"name": "t1", "count": 1, "total_us": 420, "max_us": 420}],
            "span_events": [{"name": "t1", "start_us": 10, "dur_us": 420, "tid": 1}],
            "flight_events": [], "build_info": null}"#;
        let dossier = format!(
            r#"{{"reason": "experiment_panicked", "request": "mmrk2|demo",
            "fault_delta": {{"injected_panics": 2}}, "snapshot": {snapshot},
            "events": [{{"seq": 1, "t_us": 5, "tid": 1, "kind": "chunk_failed",
            "chunk": 3, "attempt": 2, "n": null, "value": null, "detail": null}}],
            "build": null}}"#
        );
        std::fs::write(&path, dossier).unwrap();
        let report = inspect(&path, None).unwrap();
        assert!(
            report.contains("crash dossier: experiment_panicked"),
            "{report}"
        );
        assert!(report.contains("injected_panics=2"), "{report}");
        assert!(
            report.contains("snapshot: 1 counters, 0 histograms"),
            "{report}"
        );
        assert!(report.contains("chunk 3: failed -> failed"), "{report}");
        // The same file through the dossier-directory census.
        let listing = inspect(&dir, None).unwrap();
        assert!(listing.contains("1 dossier(s)"), "{listing}");
        assert!(!listing.contains("unreadable"), "{listing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checked-in artifact written by an earlier build (see
    /// `tests/fixtures/`).
    fn fixture(name: &str) -> PathBuf {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).join(name)
    }

    #[test]
    fn retry_era_flight_log_and_dossier_still_render() {
        // The log holds `fault_fired`/`corruption`, `chunk_retried` and
        // `backoff_slept` events, each with an `attempt` field.
        let log = fixture("retry-era.flight");
        let report = inspect(&log, None).unwrap();
        assert!(report.contains("flight timeline: 9 events"), "{report}");
        assert!(!report.contains("note: torn tail"), "{report}");
        assert!(
            report.contains(
                "chunk 1: claimed @694us -> fault corruption -> chunk_retried @2.2ms \
                 -> backoff_slept @2.2ms -> recovered"
            ),
            "{report}"
        );
        assert!(report.contains("1  backoff_slept"), "{report}");
        let diff = inspect(&log, Some(&log)).unwrap();
        assert!(diff.contains("payload divergence: 0"), "{diff}");

        // The dossier's fault delta carries the seven keys of that
        // ledger, `injected_corruptions` and `chunks_retried` among them.
        let dossier = fixture("dossier-0-000-degraded.json");
        let text = std::fs::read_to_string(&dossier).unwrap();
        for key in [
            "injected_panics",
            "injected_corruptions",
            "injected_torn_writes",
            "injected_export_faults",
            "chunks_retried",
            "chunks_abandoned",
            "degraded_runs",
        ] {
            assert!(text.contains(&format!("\"{key}\":")), "{key}");
        }
        let report = inspect(&dossier, None).unwrap();
        assert!(report.contains("crash dossier: degraded"), "{report}");
        assert!(
            report.contains(
                "fault delta: injected_panics=3 chunks_retried=2 chunks_abandoned=1 degraded_runs=1"
            ),
            "{report}"
        );
        assert!(report.contains("-> abandoned -> abandoned"), "{report}");
        let listing = inspect(&fixture(""), None).unwrap();
        assert!(listing.contains("1 dossier(s)"), "{listing}");
        assert!(!listing.contains("unreadable"), "{listing}");
    }

    #[test]
    fn wave_era_flight_log_still_renders_and_diffs_clean() {
        // Written while runs could stop on an RSE target: two
        // `wave_decided` events, each with a `value` field (the RSE).
        let log = fixture("wave-era.flight");
        let report = inspect(&log, None).unwrap();
        assert!(report.contains("flight timeline: 12 events"), "{report}");
        assert!(!report.contains("note: torn tail"), "{report}");
        assert!(
            report.contains("wave_decided       n=16384 continue"),
            "{report}"
        );
        assert!(report.contains("2  wave_decided"), "{report}");
        assert!(report.contains("clean chunks: 8"), "{report}");
        let diff = inspect(&log, Some(&log)).unwrap();
        assert!(
            diff.contains("payload divergence: 0 (2 vs 2 payload events)"),
            "{diff}"
        );
    }

    #[test]
    fn unknown_artifacts_are_rejected_with_a_clear_message() {
        let dir = tmp_dir("unknown");
        let path = dir.join("mystery.bin");
        std::fs::write(&path, "neither fish nor fowl\n").unwrap();
        let err = inspect(&path, None).unwrap_err();
        assert!(err.contains("not a flight log"), "{err}");
        let err = inspect(&dir, None).unwrap_err();
        assert!(err.contains("neither cache segments"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Inserts one small Bernoulli record per seed into the cache at `dir`,
    /// in the order given.
    fn fill_cache(dir: &Path, seeds: &[u64]) {
        let cache = store::Store::open(dir).unwrap();
        for &seed in seeds {
            let key = store::KeySpec {
                kernel: "test/kernel".into(),
                matrix: "SC".into(),
                threads_n: 2,
                filler_m: 1,
                p_bits: 0,
                settle_bits: [0; 4],
                fence_pass_bits: 0,
                acquire_fence: false,
                seed,
                chunk_width: 4096,
            }
            .request(4096);
            let report = store::CachedReport {
                value: store::AccState::Bernoulli(store::BernoulliState {
                    successes: 1,
                    trials: 4096,
                }),
                trials_requested: 4096,
                trials_completed: 4096,
            };
            cache.insert(&key, report, Vec::new());
        }
    }

    #[test]
    fn cache_directory_census_is_read_only() {
        let dir = tmp_dir("cache");
        // Build a real cache dir through the store, then census it.
        fill_cache(&dir, &[7]);

        let before: Vec<_> = {
            let mut v: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| (e.file_name(), e.metadata().unwrap().len()))
                .collect();
            v.sort();
            v
        };
        let out = inspect(&dir, None).unwrap();
        assert!(out.contains("cache directory: "), "{out}");
        assert!(out.contains("1 distinct key(s)"), "{out}");
        let after: Vec<_> = {
            let mut v: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| (e.file_name(), e.metadata().unwrap().len()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(before, after, "inspect must not modify the cache");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
