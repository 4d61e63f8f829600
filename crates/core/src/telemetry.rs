//! Per-memory-model telemetry: cross-model comparison is the paper's core
//! deliverable, so trial counts and wall time stay broken down by model
//! (`mmr.model.<short>.*`) in every snapshot.
//!
//! Handles are resolved once per process over [`MemoryModel::NAMED`]; an
//! unnamed (custom-matrix) model folds into the `other` bucket. Recording
//! happens once per runner call — never per trial — and is strictly
//! out-of-band: seeded estimates are identical with telemetry on or off.

use memmodel::MemoryModel;
use std::sync::OnceLock;
use std::time::Instant;

pub(crate) struct ModelMetrics {
    /// Trials simulated under this model (any estimator kind).
    pub trials: obs::Counter,
    /// Wall time spent in runner calls for this model, microseconds.
    pub elapsed_us: obs::Counter,
}

fn metrics_for(model: MemoryModel) -> &'static ModelMetrics {
    struct Cache {
        named: Vec<(MemoryModel, ModelMetrics)>,
        other: ModelMetrics,
    }
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let handles = |short: &str| {
        let g = obs::global();
        ModelMetrics {
            trials: g.counter(&format!("mmr.model.{short}.trials")),
            elapsed_us: g.counter(&format!("mmr.model.{short}.elapsed_us")),
        }
    };
    let cache = CACHE.get_or_init(|| Cache {
        named: MemoryModel::NAMED
            .iter()
            .map(|m| (*m, handles(m.short_name())))
            .collect(),
        other: handles("other"),
    });
    cache
        .named
        .iter()
        .find(|(m, _)| *m == model)
        .map_or(&cache.other, |(_, metrics)| metrics)
}

/// Times one runner call for `model`, crediting `trials` and the elapsed
/// wall time to the model's counters. The closure's value passes through
/// untouched.
pub(crate) fn timed_run<T>(model: MemoryModel, trials: u64, run: impl FnOnce() -> T) -> T {
    let metrics = metrics_for(model);
    let started = obs::recording().then(Instant::now);
    let value = run();
    if let Some(started) = started {
        metrics.trials.add(trials);
        metrics.elapsed_us.add(started.elapsed().as_micros() as u64);
    }
    value
}
