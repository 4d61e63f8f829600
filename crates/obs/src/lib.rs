//! In-process telemetry for the reproduction: a metrics registry of atomic
//! counters/gauges/histograms, RAII span timers with a ring-buffer event
//! sink, the flight recorder, and a small leveled stderr logger.
//!
//! The crate exists so that the Monte-Carlo stack (pool → runner → model →
//! experiments) can report what it is doing without perturbing what it
//! computes. Two invariants define the design:
//!
//! * **Strictly out-of-band.** Telemetry never touches an RNG stream,
//!   never reorders work, and never feeds back into any seeded
//!   computation. Handles are updated with relaxed atomics off the hot
//!   path (per chunk / per run, never per trial), so every seeded result
//!   is bit-for-bit identical whether collection is on, off, or absent.
//! * **The disabled path is a compile-time no-op.** Built without the
//!   `enabled` feature (`--no-default-features`), every handle is a
//!   zero-sized struct with empty inlined methods and [`snapshot`] returns
//!   an empty [`Snapshot`]. A runtime master switch ([`set_recording`])
//!   additionally pauses collection in `enabled` builds, which is what the
//!   overhead benchmarks toggle.
//!
//! Collection is process-global: every crate in the workspace feeds the
//! same [`global`] registry, and a binary emits one JSON [`Snapshot`] at
//! exit (the `--metrics <path>` flag).
//!
//! # Example
//!
//! ```
//! let hits = obs::global().counter("example.hits");
//! hits.add(3);
//! let snap = obs::snapshot();
//! # #[cfg(feature = "enabled")]
//! assert!(snap.counter("example.hits").unwrap() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degrade;
pub mod export;
pub mod flight;
pub mod log;
mod metrics;
mod ring;
mod span;

pub use flight::FlightEvent;
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket, HistogramSnapshot,
    Registry,
};
pub use span::{span, SpanEventSnapshot, SpanGuard, SpanSnapshot};

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The process-wide registry every instrumented crate records into.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Runtime master switch; collection starts enabled.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Pauses (`false`) or resumes (`true`) all metric and span collection at
/// runtime. Purely observational: results of instrumented code are
/// identical either way.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether collection is currently recording (always `false` in builds
/// without the `enabled` feature).
#[must_use]
pub fn recording() -> bool {
    cfg!(feature = "enabled") && RECORDING.load(Ordering::Relaxed)
}

/// Default capacity of the bounded event rings (span timeline and flight
/// recorder) when neither [`set_ring_capacity`] nor `MMR_OBS_RING`
/// overrides it.
pub const DEFAULT_RING_CAP: usize = 1024;

/// Programmatic ring-capacity override; 0 means "not set".
static RING_CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the shared ring capacity at runtime (clamped to ≥ 1).
/// Passing `0` clears the override, falling back to the `MMR_OBS_RING`
/// environment variable and then [`DEFAULT_RING_CAP`]. Shrinking takes
/// effect on the next push to each ring: the oldest surplus events are
/// evicted and accounted to the ring's drop counter.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP_OVERRIDE.store(cap, Ordering::Relaxed);
}

/// Parses a ring capacity from an `MMR_OBS_RING`-style value (clamped to
/// ≥ 1; unparsable values are ignored).
fn ring_cap_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// The current shared ring capacity: [`set_ring_capacity`] override if
/// set, else `MMR_OBS_RING` (read once per process), else
/// [`DEFAULT_RING_CAP`].
#[must_use]
pub fn ring_capacity() -> usize {
    let o = RING_CAP_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    static FROM_ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    FROM_ENV
        .get_or_init(|| ring_cap_from_env(std::env::var("MMR_OBS_RING").ok().as_deref()))
        .unwrap_or(DEFAULT_RING_CAP)
}

/// Build metadata stamped once by the binary and carried on every
/// [`Snapshot`], Prometheus exposition (`mmr_build_info`) and crash
/// dossier — so any artifact can be traced back to the exact build and
/// host shape that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildInfo {
    /// The binary's crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Short git revision of the working tree, or `unknown`.
    pub git_rev: String,
    /// Logical cores available to this process at startup.
    pub host_cores: u64,
    /// The deterministic chunk width results are tiled in.
    pub chunk_width: u64,
}

impl BuildInfo {
    /// Detects build metadata at startup: `git rev-parse --short HEAD`
    /// (best-effort) and the host's available parallelism.
    #[must_use]
    pub fn detect(version: &str, chunk_width: u64) -> BuildInfo {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
        BuildInfo {
            version: version.to_owned(),
            git_rev,
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            chunk_width,
        }
    }
}

/// The stamped build metadata, if any.
static BUILD_INFO: std::sync::Mutex<Option<BuildInfo>> = std::sync::Mutex::new(None);

/// Stamps the process-wide build metadata (binaries call this once at
/// startup; later calls replace it).
pub fn set_build_info(info: BuildInfo) {
    *BUILD_INFO
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(info);
}

/// The stamped build metadata, if a binary has provided one.
#[must_use]
pub fn build_info() -> Option<BuildInfo> {
    BUILD_INFO
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Monotonic epoch shared by span and flight timestamps: pinned on first
/// use, so both timelines interleave on one clock.
pub(crate) fn epoch() -> std::time::Instant {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

/// A small stable id for the recording thread, assigned on first use.
/// Purely for trace-event attribution (Chrome trace `tid` lanes); it is
/// not the OS thread id.
pub(crate) fn current_tid() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One coherent JSON-serializable view of everything collected so far:
/// counters, gauges, histograms, per-name span aggregates, and the recent
/// span events still in the ring buffer. Collection is out-of-band, so a
/// snapshot may be taken at any time from any thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
    /// The most recent span events, oldest first (bounded ring buffer).
    pub span_events: Vec<SpanEventSnapshot>,
    /// The most recent flight-recorder events, oldest first (bounded ring
    /// buffer). `Option` so snapshots serialized before the flight
    /// recorder existed still deserialize; use
    /// [`flight_events`](Snapshot::flight_events) to read it.
    pub flight_events: Option<Vec<FlightEvent>>,
    /// Build metadata stamped by the binary ([`set_build_info`]);
    /// `Option` so snapshots serialized before it existed still
    /// deserialize.
    pub build_info: Option<BuildInfo>,
}

impl Snapshot {
    /// The value of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of a gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// A histogram by name, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// A span aggregate by name, if present.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The retained flight events (empty for snapshots that predate the
    /// flight recorder).
    #[must_use]
    pub fn flight_events(&self) -> &[FlightEvent] {
        self.flight_events.as_deref().unwrap_or(&[])
    }
}

/// Snapshots the [`global`] registry plus the span sink and the flight
/// recorder ring.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    let (spans, span_events) = span::snapshot();
    snap.spans = spans;
    snap.span_events = span_events;
    snap.flight_events = Some(flight::events());
    snap.build_info = build_info();
    snap
}

/// Serializes tests across modules that toggle process-global recording
/// state (the master switch, the flight switch, the ring capacity).
#[cfg(test)]
pub(crate) fn test_ring_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The master switch is process-global, so tests that toggle or depend
    /// on it serialize through this lock.
    fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_ring_lock()
    }

    #[test]
    fn ring_cap_env_parses_and_clamps() {
        assert_eq!(ring_cap_from_env(None), None);
        assert_eq!(ring_cap_from_env(Some("")), None);
        assert_eq!(ring_cap_from_env(Some("not a number")), None);
        assert_eq!(ring_cap_from_env(Some(" 256 ")), Some(256));
        assert_eq!(ring_cap_from_env(Some("0")), Some(1));
    }

    #[test]
    fn set_ring_capacity_overrides_and_clears() {
        let _guard = recording_lock();
        let baseline = ring_capacity();
        set_ring_capacity(64);
        assert_eq!(ring_capacity(), 64);
        set_ring_capacity(0);
        assert_eq!(ring_capacity(), baseline);
    }

    #[test]
    fn recording_switch_roundtrips() {
        let _guard = recording_lock();
        set_recording(true);
        assert_eq!(recording(), cfg!(feature = "enabled"));
        set_recording(false);
        assert!(!recording());
        set_recording(true);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_is_a_zero_sized_no_op() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        let c = global().counter("disabled.counter");
        c.add(7);
        let h = global().histogram("disabled.hist");
        h.record(7);
        drop(span("disabled.span"));
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.span_events.is_empty());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn snapshot_sees_global_updates() {
        let _guard = recording_lock();
        let c = global().counter("lib.test.counter");
        c.add(41);
        c.inc();
        let g = global().gauge("lib.test.gauge");
        g.set(17);
        let h = global().histogram("lib.test.hist");
        h.record(100);
        drop(span("lib.test.span"));
        let snap = snapshot();
        assert!(snap.counter("lib.test.counter").unwrap() >= 42);
        assert_eq!(snap.gauge("lib.test.gauge"), Some(17));
        assert!(snap.histogram("lib.test.hist").unwrap().count >= 1);
        assert!(snap.span("lib.test.span").unwrap().count >= 1);
        assert!(snap.counter("lib.test.missing").is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn paused_recording_drops_updates() {
        let _guard = recording_lock();
        let c = global().counter("lib.test.paused");
        set_recording(false);
        c.add(1000);
        set_recording(true);
        assert_eq!(snapshot().counter("lib.test.paused"), Some(0));
    }
}
