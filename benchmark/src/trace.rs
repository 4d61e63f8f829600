//! The traced run's instruments: a span recorder around calls into each
//! layer's public kernel functions, and an RNG wrapper that counts draws.
//!
//! Spans live in the benchmark, never in the program. Aggregates (count,
//! self nanoseconds, draws) are kept per span name; raw spans are kept
//! only while [`Recorder::keep`] is set, and written out as a Chrome trace
//! when the run ends.

use rand::rngs::SmallRng;
use rand::RngCore;
use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// A [`SmallRng`] that counts the 64-bit words drawn through it. Every
/// layer kernel is generic over `R: Rng + ?Sized`, so this wraps the RNG
/// handed to each call without touching the program; the stream itself
/// is unchanged, so a counted replay is bit-identical to an uncounted one.
pub struct Counting {
    rng: SmallRng,
    draws: u64,
}

impl Counting {
    pub fn new(rng: SmallRng) -> Counting {
        Counting { rng, draws: 0 }
    }
}

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// Wraps calls into a layer. The untraced implementation compiles to the
/// bare call, so one kernel loop serves both the timed replay and the
/// traced one.
pub trait Probe {
    type Rng: RngCore;
    fn span<T>(
        &mut self,
        name: &'static str,
        rng: &mut Self::Rng,
        f: impl FnOnce(&mut Self, &mut Self::Rng) -> T,
    ) -> T;

    /// Called after each chunk of trials.
    fn chunk_done(&mut self) {}
}

/// No tracing: the call and nothing else.
pub struct Untraced;

impl Probe for Untraced {
    type Rng = SmallRng;
    #[inline(always)]
    fn span<T>(
        &mut self,
        _: &'static str,
        rng: &mut SmallRng,
        f: impl FnOnce(&mut Self, &mut SmallRng) -> T,
    ) -> T {
        f(self, rng)
    }
}

/// Per-name span totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub draws: u64,
}

struct Raw {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// The span recorder of the traced run.
pub struct Recorder {
    origin: Instant,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    aggs: BTreeMap<&'static str, Agg>,
    raw: Vec<Raw>,
    /// While set, every finished span is also kept raw for the Chrome
    /// trace.
    pub keep: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            aggs: BTreeMap::new(),
            raw: Vec::new(),
            keep: false,
        }
    }

    /// Totals for one span name (zero when it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Sum of the self time of every span whose name starts with `prefix`.
    pub fn self_ns(&self, prefix: &str) -> u64 {
        self.aggs
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// The kept spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let us = |ns: u64| Value::Number(Number::F(ns as f64 / 1000.0));
        let events = self
            .raw
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("name".into(), Value::String(r.name.into())),
                    ("ph".into(), Value::String("X".into())),
                    ("ts".into(), us(r.start_ns)),
                    ("dur".into(), us(r.dur_ns)),
                    ("pid".into(), Value::Number(Number::U(1))),
                    ("tid".into(), Value::Number(Number::U(1))),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

impl Probe for Recorder {
    type Rng = Counting;
    fn span<T>(
        &mut self,
        name: &'static str,
        rng: &mut Counting,
        f: impl FnOnce(&mut Self, &mut Counting) -> T,
    ) -> T {
        let draws_before = rng.draws;
        self.open.push(0);
        let start = Instant::now();
        let out = f(self, rng);
        let end = Instant::now();
        let children = self.open.pop().expect("span stack balanced");
        let dur_ns = (end - start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            *parent += dur_ns;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.self_ns += dur_ns.saturating_sub(children);
        agg.draws += rng.draws - draws_before;
        if self.keep {
            self.raw.push(Raw {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
        out
    }

    /// Raw spans are kept for one chunk at most.
    fn chunk_done(&mut self) {
        self.keep = false;
    }
}
