//! Chrome trace-event JSON from the flight recorder's ring.
//!
//! The output follows the Trace Event Format's JSON-object form: a
//! top-level `"traceEvents"` array with microsecond timestamps — exactly
//! what Perfetto and `chrome://tracing` open directly. A `span` flight
//! event (one per finished experiment) becomes a complete (`"ph": "X"`)
//! event named after the experiment; every other flight event becomes a
//! thread-scoped instant event (`"ph": "i"`, `"cat": "flight"`).
//! Aggregate-only data (counters) has no timeline and is summarized in
//! `"otherData"` instead.

use super::json_escape;
use crate::Snapshot;
use std::fmt::Write as _;

/// Renders the snapshot's flight timeline as Chrome trace-event JSON.
///
/// A `span` event is emitted when its experiment ends, with `n` = its
/// wall time in µs, so it becomes one complete event with `dur = n` and
/// `ts = t_us − n`, named by its `detail`. Every other event becomes one
/// thread-scoped instant event at its `t_us`, with its payload fields as
/// `args`. Timestamps are microseconds since the process observability
/// epoch, `pid` is always 1 (one process), and `tid` is the recorder's
/// stable small thread id. The ring is bounded and keeps `span` events
/// over the others; `otherData.flight_dropped` reports how many earlier
/// events were evicted before this export.
#[must_use]
pub fn chrome_trace(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"traceEvents\": [");
    for (i, e) in snapshot.flight_events().iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        if e.kind == "span" {
            let dur = e.n.unwrap_or(0);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {dur}, \"pid\": 1, \"tid\": {}}}",
                json_escape(e.detail.as_deref().unwrap_or("span")),
                e.t_us.saturating_sub(dur),
                e.tid
            );
            continue;
        }
        let mut args = vec![format!("\"seq\": {}", e.seq)];
        if let Some(c) = e.chunk {
            args.push(format!("\"chunk\": {c}"));
        }
        if let Some(n) = e.n {
            args.push(format!("\"n\": {n}"));
        }
        if let Some(d) = &e.detail {
            args.push(format!("\"detail\": \"{}\"", json_escape(d)));
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"flight\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
            json_escape(&e.kind),
            e.t_us,
            e.tid,
            args.join(", ")
        );
    }
    if !snapshot.flight_events().is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"flight_dropped\": \"{}\"}}\n}}\n",
        snapshot.counter("obs.flight_dropped").unwrap_or(0)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlightEvent;

    fn empty() -> Snapshot {
        Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            flight_events: None,
            build_info: None,
        }
    }

    fn event(seq: u64, t_us: u64, kind: &str) -> FlightEvent {
        FlightEvent {
            seq,
            t_us,
            tid: 3,
            kind: kind.into(),
            chunk: None,
            n: None,
            detail: None,
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
        snap.flight_events = Some(vec![
            FlightEvent {
                n: Some(5),
                detail: Some("alpha".into()),
                tid: 1,
                ..event(1, 15, "span")
            },
            FlightEvent {
                n: Some(7),
                detail: Some("beta \"quoted\"".into()),
                tid: 2,
                ..event(2, 27, "span")
            },
        ]);
        let text = chrome_trace(&snap);
        // Parses as JSON and carries both spans with the X phase, started
        // `n` µs before they were recorded.
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 2);
        assert!(text.contains("\"name\": \"alpha\""));
        assert!(text.contains("beta \\\"quoted\\\""));
        assert!(text.contains("\"ts\": 10"));
        assert!(text.contains("\"ts\": 20, \"dur\": 7"));
        assert!(text.contains("\"tid\": 2"));
    }

    #[test]
    fn flight_events_become_instant_events() {
        let mut snap = empty();
        let mut events = vec![
            FlightEvent {
                chunk: Some(9),
                ..event(1, 40, "chunk_claimed")
            },
            FlightEvent {
                n: Some(16384),
                detail: Some("ok".to_owned()),
                ..event(2, 55, "run_end")
            },
        ];
        snap.flight_events = Some(events.clone());
        let text = chrome_trace(&snap);
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 2);
        assert!(text.contains("\"cat\": \"flight\""));
        assert!(text.contains("\"chunk\": 9"));
        assert!(text.contains("\"n\": 16384"));
        assert!(text.contains("\"detail\": \"ok\""));
        assert!(text.contains("\"flight_dropped\""));
        // Spans and instants share one array without comma faults.
        events.push(FlightEvent {
            n: Some(5),
            detail: Some("alpha".into()),
            ..event(3, 60, "span")
        });
        snap.flight_events = Some(events);
        let text = chrome_trace(&snap);
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 1);
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 2);
    }

    #[test]
    fn live_snapshot_round_trips() {
        let _guard = crate::test_ring_lock();
        crate::set_recording(true);
        crate::flight::set_flight_recording(true);
        crate::flight::event("span")
            .detail("export.test.chrome")
            .n(3)
            .emit();
        let text = chrome_trace(&crate::snapshot());
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        drop(value);
        assert!(text.contains("export.test.chrome"));
    }
}
