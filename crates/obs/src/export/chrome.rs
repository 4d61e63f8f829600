//! Chrome trace-event JSON from the span ring buffer and the flight
//! recorder.
//!
//! The output follows the Trace Event Format's JSON-object form: a
//! top-level `"traceEvents"` array of complete (`"ph": "X"`) events, one
//! per ring-buffer span, with microsecond `ts`/`dur` — exactly what
//! Perfetto and `chrome://tracing` open directly. Flight-recorder events
//! interleave on the same clock as thread-scoped instant events
//! (`"ph": "i"`, `"cat": "flight"`). Aggregate-only data (counters,
//! per-name span totals) has no timeline and is summarized in
//! `"otherData"` instead.

use super::json_escape;
use crate::Snapshot;
use std::fmt::Write as _;

/// Renders the snapshot's span and flight timelines as Chrome
/// trace-event JSON.
///
/// Every ring-buffer span becomes one complete event: `ts` is the span's
/// start in microseconds since the process observability epoch, `dur`
/// its duration, `pid` is always 1 (one process), and `tid` is the
/// recorder's stable small thread id. Every flight event becomes one
/// thread-scoped instant event at its `ts`, with its payload fields as
/// `args`. Both rings are drop-oldest bounded;
/// `otherData.spans_dropped` / `otherData.flight_dropped` report how
/// many earlier events were evicted before this export.
#[must_use]
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"traceEvents\": [");
    let mut emitted = 0usize;
    for e in &snapshot.span_events {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            if emitted == 0 { "" } else { "," },
            json_escape(&e.name),
            e.start_us,
            e.dur_us,
            e.tid
        );
        emitted += 1;
    }
    for e in snapshot.flight_events() {
        let mut args = vec![format!("\"seq\": {}", e.seq)];
        if let Some(c) = e.chunk {
            args.push(format!("\"chunk\": {c}"));
        }
        if let Some(a) = e.attempt {
            args.push(format!("\"attempt\": {a}"));
        }
        if let Some(n) = e.n {
            args.push(format!("\"n\": {n}"));
        }
        if let Some(v) = e.value.filter(|v| v.is_finite()) {
            args.push(format!("\"value\": {v}"));
        }
        if let Some(d) = &e.detail {
            args.push(format!("\"detail\": \"{}\"", json_escape(d)));
        }
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"cat\": \"flight\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
            if emitted == 0 { "" } else { "," },
            json_escape(&e.kind),
            e.t_us,
            e.tid,
            args.join(", ")
        );
        emitted += 1;
    }
    if emitted > 0 {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"spans_dropped\": \"{}\", \
         \"flight_dropped\": \"{}\"}}\n}}\n",
        snapshot.counter("obs.spans_dropped").unwrap_or(0),
        snapshot.counter("obs.flight_dropped").unwrap_or(0)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, SpanEventSnapshot};

    fn empty() -> Snapshot {
        Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            span_events: Vec::new(),
            flight_events: None,
            build_info: None,
        }
    }

    #[test]
    fn empty_snapshot_is_valid_and_has_empty_array() {
        let text = chrome_trace(&empty());
        assert!(text.contains("\"traceEvents\": []"));
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
    }

    #[test]
    fn events_become_complete_trace_events() {
        let mut snap = empty();
        snap.span_events = vec![
            SpanEventSnapshot {
                name: "alpha".into(),
                start_us: 10,
                dur_us: 5,
                tid: 1,
            },
            SpanEventSnapshot {
                name: "beta \"quoted\"".into(),
                start_us: 20,
                dur_us: 7,
                tid: 2,
            },
        ];
        let text = chrome_trace(&snap);
        // Parses as JSON and carries both events with the X phase.
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"name\": \"alpha\""));
        assert!(text.contains("beta \\\"quoted\\\""));
        assert!(text.contains("\"ts\": 10"));
        assert!(text.contains("\"dur\": 7"));
        assert!(text.contains("\"tid\": 2"));
    }

    #[test]
    fn flight_events_become_instant_events() {
        let mut snap = empty();
        snap.flight_events = Some(vec![
            crate::FlightEvent {
                seq: 1,
                t_us: 40,
                tid: 3,
                kind: "chunk_retried".into(),
                chunk: Some(9),
                attempt: Some(2),
                n: None,
                value: None,
                detail: None,
            },
            crate::FlightEvent {
                seq: 2,
                t_us: 55,
                tid: 3,
                kind: "wave_decided".into(),
                chunk: None,
                attempt: None,
                n: Some(16384),
                value: Some(0.25),
                detail: Some("continue".to_owned()),
            },
        ]);
        let text = chrome_trace(&snap);
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 2);
        assert!(text.contains("\"cat\": \"flight\""));
        assert!(text.contains("\"chunk\": 9"));
        assert!(text.contains("\"value\": 0.25"));
        assert!(text.contains("\"detail\": \"continue\""));
        assert!(text.contains("\"flight_dropped\""));
        // Spans and flight events share one array without comma faults.
        snap.span_events = vec![SpanEventSnapshot {
            name: "alpha".into(),
            start_us: 10,
            dur_us: 5,
            tid: 1,
        }];
        let text = chrome_trace(&snap);
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 1);
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 2);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn live_snapshot_round_trips() {
        drop(crate::span("export.test.chrome"));
        let text = chrome_trace(&crate::snapshot());
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert!(text.contains("export.test.chrome"));
    }
}
