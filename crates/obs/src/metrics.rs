//! The metrics registry: named atomic counters, gauges, and log₂-bucket
//! histograms with cloneable typed handles.
//!
//! Handles are `Arc`s onto plain atomics; updating one is a relaxed RMW
//! with no lock, so instrumented code can record from any worker thread.
//! The registry itself is only locked to create a handle or to take a
//! [`Snapshot`](crate::Snapshot) — both off every hot path.

use serde::{Deserialize, Serialize};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter (dropped while recording is paused).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::recording() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. busy-worker count).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge (dropped while recording is paused).
    #[inline]
    pub fn set(&self, value: u64) {
        if crate::recording() {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is currently lower.
    #[inline]
    pub fn set_max(&self, value: u64) {
        if crate::recording() {
            self.cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        if crate::recording() {
            self.cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts one (saturating at zero is the caller's concern; pairs
    /// of `inc`/`dec` keep it balanced).
    #[inline]
    pub fn dec(&self) {
        if crate::recording() {
            self.cell.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Bucket `0` holds zeros; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
    buckets: [AtomicU64; BUCKETS],
}

/// A histogram of `u64` samples over power-of-two buckets — cheap enough
/// to record per chunk, coarse enough that 65 atomics cover all of `u64`.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Records one sample (dropped while recording is paused).
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::recording() {
            let idx = if value == 0 {
                0
            } else {
                64 - value.leading_zeros() as usize
            };
            self.cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.cells.count.fetch_add(1, Ordering::Relaxed);
            self.cells.sum.fetch_add(value, Ordering::Relaxed);
            self.cells.min.fetch_min(value, Ordering::Relaxed);
            self.cells.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }
}

/// A named collection of metrics, snapshottable as one coherent view.
///
/// `const`-constructible so it can back a process-wide `static`
/// ([`crate::global`]); crates keep their own handle structs (built once
/// through [`counter`](Registry::counter) and friends) and never touch the
/// registry lock afterwards.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
    histograms: Mutex<Vec<(String, Histogram)>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// The counter named `name`, created on first use. Handles to the same
    /// name share one cell.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = lock(&self.counters);
        if let Some((_, c)) = entries.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter {
            cell: Arc::new(AtomicU64::new(0)),
        };
        entries.push((name.to_owned(), c.clone()));
        c
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut entries = lock(&self.gauges);
        if let Some((_, g)) = entries.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge {
            cell: Arc::new(AtomicU64::new(0)),
        };
        entries.push((name.to_owned(), g.clone()));
        g
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut entries = lock(&self.histograms);
        if let Some((_, h)) = entries.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        let h = Histogram {
            cells: Arc::new(HistogramCells {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                buckets: [ZERO; BUCKETS],
            }),
        };
        entries.push((name.to_owned(), h.clone()));
        h
    }

    /// A point-in-time view of every registered metric, sorted by name
    /// (the flight events are filled in by [`crate::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> crate::Snapshot {
        let mut counters: Vec<CounterSnapshot> = lock(&self.counters)
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSnapshot> = lock(&self.gauges)
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = lock(&self.histograms)
            .iter()
            .map(|(name, h)| snapshot_histogram(name, h))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        crate::Snapshot {
            counters,
            gauges,
            histograms,
            flight_events: None,
            build_info: None,
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

fn snapshot_histogram(name: &str, h: &Histogram) -> HistogramSnapshot {
    let count = h.cells.count.load(Ordering::Relaxed);
    let min = h.cells.min.load(Ordering::Relaxed);
    HistogramSnapshot {
        name: name.to_owned(),
        count,
        sum: h.cells.sum.load(Ordering::Relaxed),
        min: if count == 0 { 0 } else { min },
        max: h.cells.max.load(Ordering::Relaxed),
        buckets: h
            .cells
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| HistogramBucket {
                    lo: if i == 0 { 0 } else { 1u64 << (i - 1) },
                    count: n,
                })
            })
            .collect(),
    }
}

/// One counter in a [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One occupied power-of-two bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket (`0`, then powers of two).
    pub lo: u64,
    /// Samples that landed in `[lo, 2 * max(lo, 1))`.
    pub count: u64,
}

/// One histogram in a [`crate::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (wrapping is the caller's concern).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Occupied buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_cell_per_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(5);
        g.inc();
        g.dec();
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, u64::MAX);
        let bucket = |lo: u64| hs.buckets.iter().find(|b| b.lo == lo).map(|b| b.count);
        assert_eq!(bucket(0), Some(1)); // 0
        assert_eq!(bucket(1), Some(1)); // 1
        assert_eq!(bucket(2), Some(2)); // 2, 3
        assert_eq!(bucket(4), Some(1)); // 4
        assert_eq!(bucket(512), Some(1)); // 1000
        assert_eq!(bucket(1u64 << 63), Some(1)); // u64::MAX
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        r.gauge("z").set(1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.gauge("z"), Some(1));
    }

    #[test]
    fn empty_histogram_snapshot_is_well_formed() {
        let r = Registry::new();
        let _ = r.histogram("empty");
        let snap = r.snapshot();
        let hs = snap.histogram("empty").unwrap();
        assert_eq!((hs.count, hs.min, hs.max), (0, 0, 0));
        assert!(hs.buckets.is_empty());
        assert_eq!(hs.mean(), 0.0);
    }
}
