//! The flight recorder: a bounded in-memory timeline of typed structured
//! events, an optional CRC-framed on-disk mirror, and crash dossiers.
//!
//! Where the metrics registry *counts* what happened, the flight recorder
//! *orders* it: every notable step of a run — a chunk claimed, a fault
//! fired, a chunk abandoned, a convergence wave decided, a cache tier
//! answering, an experiment finished — is appended as one [`FlightEvent`]
//! to a process-global ring of [`crate::DEFAULT_RING_CAP`] events. The
//! ring drops its oldest event when full, but evicts a `span` event only
//! when nothing else is left, so every experiment's span survives a long
//! run (evictions count into `obs.flight_dropped`). Recording follows
//! the same contract as [`crate::set_recording`]: compiled out without
//! the `enabled` feature, pausable at runtime, and additionally gated by
//! [`set_flight_recording`] so the recorder's own overhead can be
//! measured in isolation. Emission never touches an RNG stream; seeded
//! results are bit-identical with the recorder on, off, or mirrored.
//!
//! # Event taxonomy
//!
//! | kind | payload | emitted by |
//! |---|---|---|
//! | `run_start` | `n` = trials requested (`detail` = `"resume"` for cache-resumed runs) | runner |
//! | `run_end` | `n` = trials completed, `detail` = `ok`/`degraded` | runner |
//! | `chunk_claimed` | `chunk` | runner |
//! | `chunk_abandoned` | `chunk` (panicked, run degrades) | runner |
//! | `chunk_failed` | `chunk` (panicked, run fails) | runner |
//! | `fault_fired` | `chunk`, `detail` = `panic` | fault plan |
//! | `wave_decided` | `n` = trials merged, `value` = RSE, `detail` = `converged`/`continue` | stop predicate |
//! | `request` | `detail` = full canonical request key | cache seam |
//! | `cache_hit` / `cache_extend` / `cache_miss` | `detail` = key, `n` = prefix chunks (extend) | store |
//! | `cache_compacted` | `n` = records kept | store |
//! | `span` | `detail` = experiment id, `n` = its wall time in µs (emitted at its end) | experiment harness |
//!
//! Logs written before the runner stopped retrying chunks also hold
//! `chunk_retried` and `backoff_slept` events and an `attempt` field on
//! chunk events; a reader skips the field and renders those kinds like
//! any other it does not know.
//!
//! # On-disk framing
//!
//! [`mirror_to`] appends each event as one `MMRE 1 <crc:08x> <json>` line
//! of the workspace's one framed-log codec ([`crate::frame`], shared with
//! the cache segments): a torn tail truncates to the longest valid prefix
//! on read ([`parse_log`]), well-framed lines of an unknown version are
//! skipped, not fatal, and a valid frame whose JSON is not an event ends
//! the log there.
//!
//! # Crash dossiers
//!
//! [`write_dossier`] bundles the last events, the full metrics
//! [`Snapshot`](crate::Snapshot), a fault-ledger delta, and the request
//! key into one atomically written JSON file under the directory
//! installed by [`set_dossier_dir`] — the runner and the experiment
//! harness call it on panic and on degradation, so any failed run is
//! post-mortem-debuggable from artifacts alone.

use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded flight event. Flat by design (`Option` payload fields a
/// kind does not use stay `None`) so the schema is forward-compatible:
/// a reader tolerates fields it does not know and kinds it has never
/// seen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Emission order within the process, 1-based, gap-free at the
    /// recorder (gaps in a snapshot mean the ring evicted events).
    pub seq: u64,
    /// Microseconds since the process observability epoch.
    pub t_us: u64,
    /// Small stable id of the emitting thread (a trace lane).
    pub tid: u64,
    /// Event kind (see the module-level taxonomy).
    pub kind: String,
    /// Chunk index, for per-chunk events.
    pub chunk: Option<u64>,
    /// A count: trials for run/wave events, prefix chunks for cache
    /// extensions, wall µs for spans.
    pub n: Option<u64>,
    /// A measurement (the RSE for `wave_decided`).
    pub value: Option<f64>,
    /// Free-form qualifier: fault/fate labels, request keys, ids.
    pub detail: Option<String>,
}

/// Builder returned by [`event`]; populate the payload fields that apply
/// and [`emit`](EventBuilder::emit).
#[derive(Debug)]
#[must_use = "an event does nothing until .emit()"]
pub struct EventBuilder {
    kind: &'static str,
    chunk: Option<u64>,
    n: Option<u64>,
    value: Option<f64>,
    detail: Option<String>,
}

/// Starts building a flight event of the given kind.
pub fn event(kind: &'static str) -> EventBuilder {
    EventBuilder {
        kind,
        chunk: None,
        n: None,
        value: None,
        detail: None,
    }
}

impl EventBuilder {
    /// Sets the chunk index.
    pub fn chunk(mut self, chunk: u64) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Sets the count payload.
    pub fn n(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the measurement payload. Non-finite values are dropped (the
    /// field stays `None`) so every serialization of the event is valid
    /// JSON.
    pub fn value(mut self, value: f64) -> Self {
        self.value = value.is_finite().then_some(value);
        self
    }

    /// Sets the free-form qualifier.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Records the event into the ring and appends it to the disk mirror,
    /// if one is installed. A no-op unless both the master recording
    /// switch and the flight switch are on; always a no-op in builds
    /// without the `enabled` feature.
    pub fn emit(self) {
        if !recording() {
            return;
        }
        let t_us = crate::epoch().elapsed().as_micros() as u64;
        let tid = crate::current_tid();
        let dropped = {
            let mut sink = lock();
            sink.seq += 1;
            let ev = FlightEvent {
                seq: sink.seq,
                t_us,
                tid,
                kind: self.kind.to_owned(),
                chunk: self.chunk,
                n: self.n,
                value: self.value,
                detail: self.detail,
            };
            // Written under the sink lock, so the mirror is lossless and
            // in sequence order.
            if let Some(file) = sink.mirror.as_mut() {
                // Serializing a recorder-built event never fails; a mirror
                // that starts failing mid-run must not take the run down.
                if let Ok(json) = serde_json::to_string(&ev) {
                    let _ = file.write_all(crate::frame::FLIGHT.encode("1", &json).as_bytes());
                }
            }
            sink.ring.push(ev)
        };
        if dropped {
            flight_dropped().inc();
        }
    }
}

/// Runtime switch for the flight recorder alone (both this and the
/// master [`crate::set_recording`] switch must be on to record).
static FLIGHT_RECORDING: AtomicBool = AtomicBool::new(true);

/// Pauses (`false`) or resumes (`true`) flight-event recording without
/// touching metric collection — the seam the recorder-overhead
/// benchmark toggles. Purely observational.
pub fn set_flight_recording(on: bool) {
    FLIGHT_RECORDING.store(on, Ordering::Relaxed);
}

/// Whether flight events are currently being recorded.
#[must_use]
pub fn recording() -> bool {
    crate::recording() && FLIGHT_RECORDING.load(Ordering::Relaxed)
}

struct FlightSink {
    ring: crate::ring::Ring<FlightEvent>,
    seq: u64,
    /// The `--flight` disk mirror, if installed.
    mirror: Option<std::fs::File>,
}

static SINK: Mutex<FlightSink> = Mutex::new(FlightSink {
    ring: crate::ring::Ring::new(is_span),
    seq: 0,
    mirror: None,
});

/// `span` events are pinned in the ring: there is one per experiment, and
/// a flood of per-chunk events must not evict the run's timing.
fn is_span(ev: &FlightEvent) -> bool {
    ev.kind == "span"
}

fn lock() -> std::sync::MutexGuard<'static, FlightSink> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cached handle onto the ring-eviction counter.
fn flight_dropped() -> &'static crate::Counter {
    static DROPPED: std::sync::OnceLock<crate::Counter> = std::sync::OnceLock::new();
    DROPPED.get_or_init(|| crate::global().counter("obs.flight_dropped"))
}

/// The retained events, oldest first.
#[must_use]
pub fn events() -> Vec<FlightEvent> {
    lock().ring.in_order()
}

/// Empties the ring (the sequence counter keeps running). For tests and
/// benchmarks that need a clean timeline; a clear is not an eviction, so
/// `obs.flight_dropped` is untouched.
pub fn clear() {
    lock().ring.clear();
}

/// Mirrors every subsequent event to `path` as CRC-framed `MMRE` lines
/// (appending; an existing log grows). Returns the open error if the
/// path is unusable — callers degrade to ring-only recording.
///
/// # Errors
///
/// Any error opening `path` for append.
pub fn mirror_to(path: &Path) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    lock().mirror = Some(file);
    Ok(())
}

/// Stops mirroring (the ring keeps recording).
pub fn unmirror() {
    lock().mirror = None;
}

/// What [`parse_log`] recovered from a flight log.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLog {
    /// Events of the longest valid prefix, in log order.
    pub events: Vec<FlightEvent>,
    /// Whether a torn or corrupt tail was truncated.
    pub torn: bool,
    /// Well-framed lines of an unknown frame version, skipped.
    pub skipped: usize,
}

/// Parses a flight log: keeps the longest prefix of CRC-valid `MMRE`
/// lines, skips well-framed lines of an unknown version, and truncates
/// at the first torn or corrupt line, or valid frame whose JSON is not an
/// event (`torn` reports that).
#[must_use]
pub fn parse_log(text: &str) -> ParsedLog {
    let scan = crate::frame::FLIGHT.scan(text.as_bytes());
    let mut parsed = ParsedLog {
        events: Vec::new(),
        torn: scan.torn,
        skipped: 0,
    };
    for frame in scan.frames {
        if frame.head != "1" {
            parsed.skipped += 1;
        } else if let Ok(ev) = serde_json::from_str::<FlightEvent>(frame.json) {
            parsed.events.push(ev);
        } else {
            parsed.torn = true;
            break;
        }
    }
    parsed
}

/// The canonical key of the request currently being served, published by
/// the cache seam so crash dossiers can attribute a failure to its exact
/// request even though the runner never sees the key.
static CURRENT_REQUEST: Mutex<Option<String>> = Mutex::new(None);

/// Publishes (or clears, with `None`) the canonical request key of the
/// run now in flight.
pub fn set_current_request(key: Option<&str>) {
    *CURRENT_REQUEST
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = key.map(str::to_owned);
}

/// The most recently published request key, if any.
#[must_use]
pub fn current_request() -> Option<String> {
    CURRENT_REQUEST
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Directory crash dossiers are written to (none installed by default).
static DOSSIER_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Per-process dossier sequence number (part of the file name).
static DOSSIER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Installs `dir` as the crash-dossier directory, creating it and
/// probing writability so an unusable path surfaces here (the flag
/// layer's warning + exit-2 contract) instead of at crash time.
///
/// # Errors
///
/// Any error creating the directory or writing the probe file.
pub fn set_dossier_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(".mmre-probe");
    std::fs::write(&probe, b"probe")?;
    let _ = std::fs::remove_file(&probe);
    *DOSSIER_DIR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(dir.to_path_buf());
    Ok(())
}

/// Uninstalls the dossier directory.
pub fn clear_dossier_dir() {
    *DOSSIER_DIR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

fn dossier_dir() -> Option<PathBuf> {
    DOSSIER_DIR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// One crash dossier: everything needed to reconstruct a failed run
/// from artifacts alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dossier {
    /// Why the dossier was written (`worker_panicked`, `degraded`,
    /// `experiment_panicked`, …).
    pub reason: String,
    /// The canonical request key of the failed run, when known.
    pub request: Option<String>,
    /// Fault-ledger delta over the failed run, as `name: count` pairs.
    pub fault_delta: Value,
    /// The full metrics snapshot at dossier time.
    pub snapshot: crate::Snapshot,
    /// The last flight events still in the ring, oldest first.
    pub events: Vec<FlightEvent>,
    /// Build metadata of the producing binary (`Option` so dossiers
    /// written before it existed still deserialize).
    pub build: Option<crate::BuildInfo>,
}

/// Writes a crash dossier (atomically: tmp + rename) into the installed
/// dossier directory. Returns `Ok(None)` when no directory is installed
/// — emission sites call this unconditionally and stay silent by
/// default.
///
/// # Errors
///
/// Any error serializing or writing the dossier file.
pub fn write_dossier(
    reason: &str,
    request: Option<&str>,
    fault_delta: &[(&str, u64)],
) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = dossier_dir() else {
        return Ok(None);
    };
    let delta = Value::Object(
        fault_delta
            .iter()
            .map(|&(name, count)| (name.to_owned(), Value::Number(serde::Number::U(count))))
            .collect(),
    );
    let dossier = Dossier {
        reason: reason.to_owned(),
        request: request.map(str::to_owned),
        fault_delta: delta,
        snapshot: crate::snapshot(),
        events: events(),
        build: crate::build_info(),
    };
    let json = serde_json::to_string_pretty(&dossier)
        .map_err(|e| std::io::Error::other(format!("dossier serialization failed: {e:?}")))?;
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let seq = DOSSIER_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("dossier-{}-{seq:03}-{slug}.json", std::process::id());
    let path = dir.join(&name);
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, json)?;
    std::fs::rename(&tmp, &path)?;
    Ok(Some(path))
}

/// Event kinds that are deterministic run payload: equal between a
/// chaos run and its fault-free twin whenever recovery succeeded.
/// Everything else (faults, abandoned chunks, cache traffic) is incident
/// reporting, compared only informationally by [`diff_logs`].
#[must_use]
pub fn is_payload(ev: &FlightEvent) -> bool {
    matches!(
        ev.kind.as_str(),
        "request" | "run_start" | "run_end" | "wave_decided"
    )
}

fn fmt_t(t_us: u64) -> String {
    if t_us < 1_000 {
        format!("{t_us}us")
    } else {
        format!("{:.1}ms", t_us as f64 / 1_000.0)
    }
}

fn fmt_payload(ev: &FlightEvent) -> String {
    let mut out = String::new();
    if let Some(c) = ev.chunk {
        let _ = write!(out, " chunk={c}");
    }
    if let Some(n) = ev.n {
        let _ = write!(out, " n={n}");
    }
    if let Some(v) = ev.value {
        let _ = write!(out, " value={v:.4e}");
    }
    if let Some(d) = &ev.detail {
        let _ = write!(out, " {d}");
    }
    out
}

/// Renders the chronological timeline plus per-chunk causality chains —
/// the `inspect` view of a flight log.
#[must_use]
pub fn render_timeline(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flight timeline: {} events", events.len());
    for ev in events {
        let _ = writeln!(
            out,
            "  {:>10}  t{:<3} {:<18}{}",
            fmt_t(ev.t_us),
            ev.tid,
            ev.kind,
            fmt_payload(ev)
        );
    }
    // Per-chunk causality: every chunk that saw an incident, with its
    // ordered chain of events and its fate.
    let mut chunks: Vec<u64> = events.iter().filter_map(|e| e.chunk).collect();
    chunks.sort_unstable();
    chunks.dedup();
    let mut clean = 0usize;
    let mut chains: Vec<String> = Vec::new();
    for c in chunks {
        let evs: Vec<&FlightEvent> = events.iter().filter(|e| e.chunk == Some(c)).collect();
        let incident = evs.iter().any(|e| e.kind != "chunk_claimed");
        if !incident {
            clean += 1;
            continue;
        }
        let fate = if evs.iter().any(|e| e.kind == "chunk_failed") {
            "failed"
        } else if evs.iter().any(|e| e.kind == "chunk_abandoned") {
            "abandoned"
        } else {
            "recovered"
        };
        let steps: Vec<String> = evs
            .iter()
            .map(|e| match e.kind.as_str() {
                "chunk_claimed" => format!("claimed @{}", fmt_t(e.t_us)),
                "fault_fired" => format!("fault {}", e.detail.as_deref().unwrap_or("?")),
                "chunk_abandoned" => "abandoned".to_owned(),
                "chunk_failed" => "failed".to_owned(),
                k => format!("{k} @{}", fmt_t(e.t_us)),
            })
            .collect();
        chains.push(format!("  chunk {c}: {} -> {fate}", steps.join(" -> ")));
    }
    if !chains.is_empty() || clean > 0 {
        let _ = writeln!(out, "per-chunk causality:");
        for chain in &chains {
            let _ = writeln!(out, "{chain}");
        }
        let _ = writeln!(out, "  clean chunks: {clean} claimed without incident");
    }
    out
}

/// Renders the event-type histogram, most frequent first.
#[must_use]
pub fn render_histogram(events: &[FlightEvent]) -> String {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for ev in events {
        match counts.iter_mut().find(|(k, _)| *k == ev.kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((ev.kind.clone(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::new();
    let _ = writeln!(out, "event histogram ({} events):", events.len());
    for (kind, n) in counts {
        let _ = writeln!(out, "  {n:>6}  {kind}");
    }
    out
}

/// Renders the convergence trajectory: one row per `wave_decided`
/// event, trials vs RSE, with the stop decision.
#[must_use]
pub fn render_convergence(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    let waves: Vec<&FlightEvent> = events.iter().filter(|e| e.kind == "wave_decided").collect();
    if waves.is_empty() {
        let _ = writeln!(out, "convergence trajectory: no wave decisions recorded");
        return out;
    }
    let _ = writeln!(out, "convergence trajectory ({} waves):", waves.len());
    for (i, w) in waves.iter().enumerate() {
        let _ = writeln!(
            out,
            "  wave {:>3}: n={:<10} rse={:<12} {}",
            i + 1,
            w.n.unwrap_or(0),
            w.value
                .map_or_else(|| "?".to_owned(), |v| format!("{v:.4e}")),
            w.detail.as_deref().unwrap_or("")
        );
    }
    out
}

/// What [`diff_logs`] found comparing two event streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogDiff {
    /// Positions where the payload sequences disagree (plus any length
    /// difference). Zero means the runs computed identically.
    pub payload_divergences: usize,
    /// Payload events in each stream.
    pub payload_a: usize,
    /// Payload events in the second stream.
    pub payload_b: usize,
    /// Incident (non-payload) events in each stream.
    pub incidents_a: usize,
    /// Incident events in the second stream.
    pub incidents_b: usize,
    /// Human-readable descriptions of the first few divergences.
    pub first_divergences: Vec<String>,
}

/// Compares two flight logs — typically a chaos run against its
/// fault-free twin. Payload events ([`is_payload`]) are compared as an
/// ordered sequence with timestamps, thread ids, and sequence numbers
/// ignored; incident events are only counted. A recovered chaos run
/// diverges in zero payload positions.
#[must_use]
pub fn diff_logs(a: &[FlightEvent], b: &[FlightEvent]) -> LogDiff {
    // Everything except emission metadata: the deterministic payload.
    let key = |e: &FlightEvent| {
        (
            e.kind.clone(),
            e.chunk,
            e.n,
            e.value.map(f64::to_bits),
            e.detail.clone(),
        )
    };
    let pa: Vec<&FlightEvent> = a.iter().filter(|e| is_payload(e)).collect();
    let pb: Vec<&FlightEvent> = b.iter().filter(|e| is_payload(e)).collect();
    let mut divergences = pa.len().abs_diff(pb.len());
    let mut first: Vec<String> = Vec::new();
    for (i, (ea, eb)) in pa.iter().zip(&pb).enumerate() {
        if key(ea) != key(eb) {
            divergences += 1;
            if first.len() < 5 {
                first.push(format!(
                    "#{i}: {}{}  vs  {}{}",
                    ea.kind,
                    fmt_payload(ea),
                    eb.kind,
                    fmt_payload(eb)
                ));
            }
        }
    }
    if pa.len() != pb.len() && first.len() < 5 {
        first.push(format!(
            "payload lengths differ: {} vs {}",
            pa.len(),
            pb.len()
        ));
    }
    LogDiff {
        payload_divergences: divergences,
        payload_a: pa.len(),
        payload_b: pb.len(),
        incidents_a: a.len() - pa.len(),
        incidents_b: b.len() - pb.len(),
        first_divergences: first,
    }
}

/// What [`diff_trajectories`] found comparing two convergence
/// trajectories (the `wave_decided` sequences two logs recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryDiff {
    /// Waves in the first trajectory.
    pub waves_a: usize,
    /// Waves in the second trajectory.
    pub waves_b: usize,
    /// 1-based index of the first wave where the trajectories disagree
    /// (on trial count, RSE bits, or decision), counting a missing wave
    /// in the shorter trajectory as a divergence. `None` when identical.
    pub first_divergence: Option<usize>,
}

/// Compares the convergence trajectories of two event streams: the
/// ordered `wave_decided` sequences, keyed by trial count, RSE bits, and
/// stop decision: two bit-identical runs diverge at no wave.
#[must_use]
pub fn diff_trajectories(a: &[FlightEvent], b: &[FlightEvent]) -> TrajectoryDiff {
    let waves = |evs: &[FlightEvent]| -> Vec<(Option<u64>, Option<u64>, Option<String>)> {
        evs.iter()
            .filter(|e| e.kind == "wave_decided")
            .map(|e| (e.n, e.value.map(f64::to_bits), e.detail.clone()))
            .collect()
    };
    let wa = waves(a);
    let wb = waves(b);
    let first_divergence = wa
        .iter()
        .zip(&wb)
        .position(|(x, y)| x != y)
        .or_else(|| (wa.len() != wb.len()).then(|| wa.len().min(wb.len())))
        .map(|i| i + 1);
    TrajectoryDiff {
        waves_a: wa.len(),
        waves_b: wb.len(),
        first_divergence,
    }
}

impl TrajectoryDiff {
    /// Renders the one-line trajectory verdict.
    #[must_use]
    pub fn render(&self) -> String {
        match self.first_divergence {
            None => format!(
                "convergence trajectories: identical ({} waves)\n",
                self.waves_a
            ),
            Some(i) => format!(
                "convergence trajectories: first divergence at wave {i} ({} vs {} waves)\n",
                self.waves_a, self.waves_b
            ),
        }
    }
}

impl LogDiff {
    /// Renders the diff summary (`payload divergence: 0` is the line a
    /// recovered chaos run must print against its twin).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "payload divergence: {} ({} vs {} payload events)",
            self.payload_divergences, self.payload_a, self.payload_b
        );
        let _ = writeln!(
            out,
            "incident events (informational): {} vs {}",
            self.incidents_a, self.incidents_b
        );
        for line in &self.first_divergences {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// Renders a [`Dossier`] for the `inspect` command.
#[must_use]
pub fn render_dossier(d: &Dossier) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "crash dossier: {}", d.reason);
    if let Some(req) = &d.request {
        let _ = writeln!(out, "request: {req}");
    }
    if let Value::Object(fields) = &d.fault_delta {
        let nonzero: Vec<String> = fields
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Number(n) if n.as_f64() != 0.0 => Some(format!("{k}={}", n.as_f64() as u64)),
                _ => None,
            })
            .collect();
        let _ = writeln!(
            out,
            "fault delta: {}",
            if nonzero.is_empty() {
                "none".to_owned()
            } else {
                nonzero.join(" ")
            }
        );
    }
    let _ = writeln!(
        out,
        "snapshot: {} counters, {} histograms",
        d.snapshot.counters.len(),
        d.snapshot.histograms.len()
    );
    out.push_str(&render_timeline(&d.events));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: &str) -> FlightEvent {
        FlightEvent {
            seq,
            t_us: seq * 100,
            tid: 1,
            kind: kind.to_owned(),
            chunk: None,
            n: None,
            value: None,
            detail: None,
        }
    }

    fn frame(json: &str) -> String {
        crate::frame::FLIGHT.encode("1", json)
    }

    #[test]
    fn frame_and_parse_round_trip() {
        let event = FlightEvent {
            chunk: Some(7),
            n: Some(4096),
            value: Some(0.031_25),
            detail: Some("panic".to_owned()),
            ..ev(3, "fault_fired")
        };
        let json = serde_json::to_string(&event).unwrap();
        let log = format!("{}{}", frame(&json), frame(&json));
        let parsed = parse_log(&log);
        assert!(!parsed.torn);
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.events[0], event);
        assert_eq!(parsed.events[0].value, Some(0.031_25));
    }

    #[test]
    fn torn_tail_truncates_to_valid_prefix() {
        let json = serde_json::to_string(&ev(1, "run_start")).unwrap();
        let good = frame(&json);
        // A partial final line (torn write) keeps the valid prefix.
        let torn = format!("{good}{}", &good[..good.len() / 2]);
        let parsed = parse_log(&torn);
        assert!(parsed.torn);
        assert_eq!(parsed.events.len(), 1);
        // A corrupt (bit-flipped) line also truncates.
        let mut corrupt = format!("{good}{good}");
        let flip = corrupt.len() - 10;
        corrupt.replace_range(flip..=flip, "X");
        let parsed = parse_log(&corrupt);
        assert!(parsed.torn);
        assert_eq!(parsed.events.len(), 1);
    }

    #[test]
    fn unknown_version_is_skipped_not_fatal() {
        let json = serde_json::to_string(&ev(1, "run_start")).unwrap();
        let future = crate::frame::FLIGHT.encode("9", &json);
        let log = format!("{future}{}", frame(&json));
        let parsed = parse_log(&log);
        assert!(!parsed.torn);
        assert_eq!(parsed.skipped, 1);
        assert_eq!(parsed.events.len(), 1);
    }

    #[test]
    fn empty_log_parses_clean() {
        let parsed = parse_log("");
        assert!(!parsed.torn);
        assert!(parsed.events.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn emit_records_into_ring_and_mirror() {
        let _guard = crate::test_ring_lock();
        let dir = std::env::temp_dir().join(format!("mmre-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emit.mmre");
        let _ = std::fs::remove_file(&path);
        crate::set_recording(true);
        set_flight_recording(true);
        mirror_to(&path).unwrap();
        event("chunk_claimed").chunk(11).emit();
        event("chunk_abandoned").chunk(11).emit();
        unmirror();
        let mine: Vec<FlightEvent> = events()
            .into_iter()
            .filter(|e| e.chunk == Some(11))
            .collect();
        assert!(mine.len() >= 2);
        let parsed = parse_log(&std::fs::read_to_string(&path).unwrap());
        assert!(!parsed.torn);
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.events[0].kind, "chunk_claimed");
        assert_eq!(parsed.events[1].kind, "chunk_abandoned");
        assert!(parsed.events[0].seq < parsed.events[1].seq);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn flight_switch_gates_emission() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        set_flight_recording(false);
        let before = events().len();
        event("run_start").n(1).emit();
        assert_eq!(events().len(), before);
        set_flight_recording(true);
    }

    #[test]
    fn bad_json_in_a_valid_frame_truncates_the_log() {
        let json = serde_json::to_string(&ev(1, "run_start")).unwrap();
        let log = format!("{}{}{}", frame(&json), frame("{\"not\":1}"), frame(&json));
        let parsed = parse_log(&log);
        assert!(parsed.torn);
        assert_eq!(parsed.events.len(), 1);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn ring_overflow_counts_dropped_events() {
        // Flooding capacity + 50 events can keep at most capacity of them,
        // so at least 50 evictions must be accounted to obs.flight_dropped
        // (other tests in this process may evict more; never fewer).
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        set_flight_recording(true);
        let before = flight_dropped().get();
        for i in 0..(crate::DEFAULT_RING_CAP + 50) {
            event("flood").n(i as u64).emit();
        }
        let after = flight_dropped().get();
        assert!(
            after >= before + 50,
            "expected >= 50 drops, got {}",
            after - before
        );
        // The snapshot surfaces the same counter.
        assert_eq!(crate::snapshot().counter("obs.flight_dropped"), Some(after));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn ring_is_bounded() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        set_flight_recording(true);
        for i in 0..(crate::DEFAULT_RING_CAP + 50) {
            event("bounded").n(i as u64).emit();
        }
        let kept = events();
        assert_eq!(kept.len(), crate::DEFAULT_RING_CAP);
        // Oldest first, and the newest survive.
        assert!(kept.windows(2).all(|w| w[0].seq < w[1].seq));
        let last = kept.last().unwrap();
        let newest = (crate::DEFAULT_RING_CAP + 49) as u64;
        assert_eq!((last.kind.as_str(), last.n), ("bounded", Some(newest)));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_events_outlive_a_flood_of_other_events() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        set_flight_recording(true);
        clear();
        event("span").detail("first").n(5).emit();
        for i in 0..(2 * crate::DEFAULT_RING_CAP) {
            event("chunk_claimed").chunk(i as u64).emit();
        }
        event("span").detail("second").n(7).emit();
        let kept = events();
        assert_eq!(kept.len(), crate::DEFAULT_RING_CAP);
        let spans: Vec<_> = kept
            .iter()
            .filter(|e| e.kind == "span")
            .map(|e| e.detail.as_deref().unwrap())
            .collect();
        assert_eq!(spans, ["first", "second"]);
        assert!(kept.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn events_carry_a_stable_thread_id() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        set_flight_recording(true);
        event("tid_probe").emit();
        let mine = crate::current_tid();
        assert!(events()
            .iter()
            .any(|e| e.kind == "tid_probe" && e.tid == mine));
        // A different thread gets a different id.
        let other = std::thread::spawn(crate::current_tid).join().unwrap();
        assert_ne!(mine, other);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_records_nothing() {
        event("run_start").n(1).emit();
        assert!(events().is_empty());
    }

    #[test]
    fn dossier_round_trips_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!("mmre-dossier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(write_dossier("unit", None, &[]).unwrap(), None);
        set_dossier_dir(&dir).unwrap();
        let path = write_dossier("unit test", Some("mmrk1|demo"), &[("injected_panics", 3)])
            .unwrap()
            .unwrap();
        clear_dossier_dir();
        let text = std::fs::read_to_string(&path).unwrap();
        let d: Dossier = serde_json::from_str(&text).unwrap();
        assert_eq!(d.reason, "unit test");
        assert_eq!(d.request.as_deref(), Some("mmrk1|demo"));
        let rendered = render_dossier(&d);
        assert!(rendered.contains("injected_panics=3"), "{rendered}");
        // No tmp file left behind.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .all(|f| { !f.unwrap().file_name().to_string_lossy().ends_with(".tmp") }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_renders_causality_chains() {
        let events = vec![
            FlightEvent {
                chunk: Some(3),
                ..ev(1, "chunk_claimed")
            },
            FlightEvent {
                chunk: Some(4),
                ..ev(2, "chunk_claimed")
            },
            FlightEvent {
                chunk: Some(4),
                detail: Some("panic".to_owned()),
                ..ev(3, "fault_fired")
            },
            FlightEvent {
                chunk: Some(4),
                ..ev(4, "chunk_abandoned")
            },
        ];
        let text = render_timeline(&events);
        assert!(text.contains("chunk 4: claimed"), "{text}");
        assert!(
            text.contains("fault panic -> abandoned -> abandoned"),
            "{text}"
        );
        assert!(text.contains("clean chunks: 1"), "{text}");
        let hist = render_histogram(&events);
        assert!(hist.contains("2  chunk_claimed"), "{hist}");
    }

    #[test]
    fn convergence_lists_waves() {
        let events = vec![
            FlightEvent {
                n: Some(16384),
                value: Some(0.08),
                detail: Some("continue".to_owned()),
                ..ev(1, "wave_decided")
            },
            FlightEvent {
                n: Some(32768),
                value: Some(0.04),
                detail: Some("converged".to_owned()),
                ..ev(2, "wave_decided")
            },
        ];
        let text = render_convergence(&events);
        assert!(text.contains("2 waves"), "{text}");
        assert!(text.contains("n=16384"), "{text}");
        assert!(text.contains("converged"), "{text}");
        assert!(render_convergence(&[]).contains("no wave decisions"));
    }

    #[test]
    fn diff_ignores_timing_but_catches_payload_changes() {
        let a = vec![
            FlightEvent {
                n: Some(100),
                ..ev(1, "run_start")
            },
            FlightEvent {
                chunk: Some(0),
                ..ev(2, "chunk_claimed")
            },
            FlightEvent {
                chunk: Some(0),
                detail: Some("panic".to_owned()),
                ..ev(3, "fault_fired")
            },
            FlightEvent {
                n: Some(100),
                detail: Some("ok".to_owned()),
                ..ev(4, "run_end")
            },
        ];
        // Twin: same payload, different timestamps/seq, no incidents.
        let b = vec![
            FlightEvent {
                n: Some(100),
                t_us: 999,
                tid: 7,
                ..ev(9, "run_start")
            },
            FlightEvent {
                n: Some(100),
                detail: Some("ok".to_owned()),
                t_us: 1_500,
                ..ev(10, "run_end")
            },
        ];
        let d = diff_logs(&a, &b);
        assert_eq!(d.payload_divergences, 0, "{:?}", d.first_divergences);
        assert_eq!((d.payload_a, d.payload_b), (2, 2));
        assert_eq!((d.incidents_a, d.incidents_b), (2, 0));
        assert!(d.render().contains("payload divergence: 0"));
        // A diverging payload is caught.
        let mut c = b.clone();
        c[1].n = Some(96);
        let d = diff_logs(&a, &c);
        assert_eq!(d.payload_divergences, 1);
        assert!(!d.first_divergences.is_empty());
    }
}
