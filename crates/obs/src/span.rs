//! RAII span timers over a monotonic clock.
//!
//! [`span("name")`](span) returns a guard; dropping it records one timed
//! event into a process-global sink. The sink keeps (a) per-name
//! aggregates (count / total / max) forever and (b) the most recent
//! events in a bounded ring buffer, so a snapshot can both attribute
//! total time per pipeline stage and show the recent timeline.
//! Timestamps are microseconds since the process observability epoch
//! ([`crate::epoch`], shared with the flight recorder), which keeps
//! every snapshot field an integer.
//!
//! # Overflow semantics
//!
//! The ring holds [`crate::ring_capacity`] events (1024 by default;
//! `obs::set_ring_capacity` / `MMR_OBS_RING` override it). Once full,
//! every new event **overwrites the oldest surviving event** —
//! aggregates keep counting forever, only the individual timeline is
//! bounded. Each eviction increments the `obs.spans_dropped` counter, so
//! a snapshot (or a Chrome trace exported from it) always states how
//! much of the timeline was evicted: `spans_dropped + len(span_events)`
//! equals the total number of events ever recorded.

use serde::{Deserialize, Serialize};

#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// Per-name running totals.
#[cfg(feature = "enabled")]
#[derive(Debug)]
struct Aggregate {
    name: &'static str,
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// One finished span kept in the ring.
#[cfg(feature = "enabled")]
#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    tid: u64,
}

/// Cached handle onto the eviction counter; resolved once per process.
#[cfg(feature = "enabled")]
fn spans_dropped() -> &'static crate::Counter {
    static DROPPED: OnceLock<crate::Counter> = OnceLock::new();
    DROPPED.get_or_init(|| crate::global().counter("obs.spans_dropped"))
}

#[cfg(feature = "enabled")]
#[derive(Debug)]
struct Sink {
    aggregates: Vec<Aggregate>,
    ring: crate::ring::Ring<Event>,
}

#[cfg(feature = "enabled")]
fn sink() -> &'static Mutex<Sink> {
    static SINK: Mutex<Sink> = Mutex::new(Sink {
        aggregates: Vec::new(),
        ring: crate::ring::Ring::new(),
    });
    &SINK
}

#[cfg(feature = "enabled")]
fn record(name: &'static str, start_us: u64, dur_us: u64) {
    let event = Event {
        name,
        start_us,
        dur_us,
        tid: crate::current_tid(),
    };
    let dropped = {
        let mut sink = sink()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match sink.aggregates.iter_mut().find(|a| a.name == name) {
            Some(a) => {
                a.count += 1;
                a.total_us += dur_us;
                a.max_us = a.max_us.max(dur_us);
            }
            None => sink.aggregates.push(Aggregate {
                name,
                count: 1,
                total_us: dur_us,
                max_us: dur_us,
            }),
        }
        sink.ring.push(crate::ring_capacity(), event)
    };
    if dropped > 0 {
        spans_dropped().add(dropped);
    }
}

/// Starts a timed span; the time from this call until the guard drops is
/// recorded under `name`. Recording honors the runtime master switch at
/// *drop* time; a span opened while paused and closed while recording is
/// still counted (the window is what matters, not the toggle race).
#[must_use = "a span measures the scope of its guard; dropping it immediately records ~0"]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "enabled")]
    {
        SpanGuard {
            name,
            start: Instant::now(),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        SpanGuard {}
    }
}

/// RAII guard returned by [`span`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    name: &'static str,
    #[cfg(feature = "enabled")]
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if crate::recording() {
            let dur_us = self.start.elapsed().as_micros() as u64;
            let start_us = self
                .start
                .saturating_duration_since(crate::epoch())
                .as_micros() as u64;
            record(self.name, start_us, dur_us);
        }
    }
}

/// Aggregate timing for one span name in a [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl SpanSnapshot {
    /// Mean span duration in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// One recent span event in a [`crate::Snapshot`] ring buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEventSnapshot {
    /// Span name.
    pub name: String,
    /// Start time, microseconds since the process span epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Small stable id of the recording thread (trace-lane attribution;
    /// not the OS thread id).
    pub tid: u64,
}

/// Current aggregates (sorted by name) and ring contents (oldest first).
pub(crate) fn snapshot() -> (Vec<SpanSnapshot>, Vec<SpanEventSnapshot>) {
    #[cfg(feature = "enabled")]
    {
        let sink = sink()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut spans: Vec<SpanSnapshot> = sink
            .aggregates
            .iter()
            .map(|a| SpanSnapshot {
                name: a.name.to_owned(),
                count: a.count,
                total_us: a.total_us,
                max_us: a.max_us,
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        let events = sink
            .ring
            .in_order()
            .into_iter()
            .map(|e| SpanEventSnapshot {
                name: e.name.to_owned(),
                start_us: e.start_us,
                dur_us: e.dur_us,
                tid: e.tid,
            })
            .collect();
        (spans, events)
    }
    #[cfg(not(feature = "enabled"))]
    {
        (Vec::new(), Vec::new())
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn span_records_aggregate_and_event() {
        let _guard = crate::test_ring_lock();
        {
            let _g = span("span.test.basic");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let (spans, events) = snapshot();
        let agg = spans.iter().find(|s| s.name == "span.test.basic").unwrap();
        assert!(agg.count >= 1);
        assert!(agg.total_us >= 1_000, "slept 2ms, got {}us", agg.total_us);
        assert!(agg.max_us <= agg.total_us);
        assert!(agg.mean_us() > 0.0);
        assert!(events.iter().any(|e| e.name == "span.test.basic"));
    }

    #[test]
    fn nested_spans_both_record() {
        {
            let _outer = span("span.test.outer");
            let _inner = span("span.test.inner");
        }
        let (spans, _) = snapshot();
        assert!(spans.iter().any(|s| s.name == "span.test.outer"));
        assert!(spans.iter().any(|s| s.name == "span.test.inner"));
    }

    #[test]
    fn ring_is_bounded() {
        let _guard = crate::test_ring_lock();
        let cap = crate::ring_capacity();
        for _ in 0..(cap + 50) {
            drop(span("span.test.flood"));
        }
        let (spans, events) = snapshot();
        assert!(events.len() <= cap);
        let agg = spans.iter().find(|s| s.name == "span.test.flood").unwrap();
        assert!(agg.count >= (cap + 50) as u64);
        // Oldest-first ordering: start times never decrease for one name
        // (other tests interleave, so only check our own floods).
        let floods: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "span.test.flood")
            .map(|e| e.start_us)
            .collect();
        assert!(floods.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ring_overflow_counts_dropped_spans() {
        // Flooding capacity + 50 events can keep at most capacity of them,
        // so at least 50 evictions must be accounted to obs.spans_dropped
        // (other tests in this process may evict more; never fewer).
        let _guard = crate::test_ring_lock();
        let cap = crate::ring_capacity();
        let before = spans_dropped().get();
        for _ in 0..(cap + 50) {
            drop(span("span.test.drop_count"));
        }
        let after = spans_dropped().get();
        assert!(
            after >= before + 50,
            "expected >= 50 drops, got {}",
            after - before
        );
        // The snapshot surfaces the same counter.
        assert_eq!(crate::snapshot().counter("obs.spans_dropped"), Some(after));
    }

    #[test]
    fn shrunk_ring_capacity_evicts_and_counts() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        crate::set_ring_capacity(8);
        let before = spans_dropped().get();
        for _ in 0..20 {
            drop(span("span.test.shrunk"));
        }
        let (_, events) = snapshot();
        crate::set_ring_capacity(0);
        assert!(
            events.len() <= 8,
            "ring held {} events at cap 8",
            events.len()
        );
        assert!(spans_dropped().get() >= before + 12);
    }

    #[test]
    fn events_carry_a_stable_thread_id() {
        let _guard = crate::test_ring_lock();
        drop(span("span.test.tid"));
        let (_, events) = snapshot();
        let mine = crate::current_tid();
        assert!(events
            .iter()
            .any(|e| e.name == "span.test.tid" && e.tid == mine));
        // A different thread gets a different id.
        let other = std::thread::spawn(crate::current_tid).join().unwrap();
        assert_ne!(mine, other);
    }
}
