//! Per-estimator convergence diagnostics collected during experiment runs.
//!
//! Experiments produce text reports; this module is the structured side
//! channel that lets `experiments_results.json` and `EXPERIMENTS.md` carry
//! `mean ± half-width` and relative-standard-error columns without every
//! experiment changing its return type. An experiment (or the library code
//! it calls — estimator kernels may run on pool worker threads) records
//! one [`EstimatorDiag`] per named estimate into a process-global buffer;
//! [`run_one_isolated`](crate::run_one_isolated) opens an exclusive
//! [`Session`] around each experiment and drains the buffer into that
//! experiment's [`ExperimentResult`](crate::ExperimentResult).
//!
//! Everything except `trials_per_sec` is a deterministic function of
//! `(trials, seed)`;
//! [`RunResult::strip_diagnostics`](crate::RunResult::strip_diagnostics)
//! zeroes the throughput so determinism checks can compare whole results.

use montecarlo::{EstimatorStats, RunReport};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Convergence diagnostics of one named estimate.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct EstimatorDiag {
    /// Stable name, `<experiment>.<estimate>` by convention.
    pub name: String,
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the 95 % normal-approximation confidence interval,
    /// so the estimate reads `mean ± ci95_half_width`.
    pub ci95_half_width: f64,
    /// Relative standard error `sem / |mean|`.
    pub rse: f64,
    /// Trials that contributed to the estimate.
    pub trials: u64,
    /// Effective trials per wall-clock second (0 when unknown). Timing
    /// only — every other field is deterministic in `(trials, seed)`.
    pub trials_per_sec: f64,
}

/// Maps the non-finite sentinels (`NaN` from empty estimators, `inf` from
/// zero-variance ones) to 0 so diagnostics always serialize as valid JSON.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl EstimatorDiag {
    /// Diagnostics of a finished estimator, with throughput derived from
    /// an externally measured wall time (pass `Duration::ZERO` when the
    /// estimate's own wall time is unknown).
    #[must_use]
    pub fn from_stats(
        name: impl Into<String>,
        est: &impl EstimatorStats,
        elapsed: Duration,
    ) -> EstimatorDiag {
        let z95 = montecarlo::normal_quantile(0.975);
        let secs = elapsed.as_secs_f64();
        EstimatorDiag {
            name: name.into(),
            mean: finite(est.mean()),
            ci95_half_width: finite(z95 * est.sem()),
            rse: finite(est.rse()),
            trials: est.count(),
            trials_per_sec: if secs > 0.0 {
                finite(est.count() as f64 / secs)
            } else {
                0.0
            },
        }
    }
}

fn pending() -> MutexGuard<'static, Vec<EstimatorDiag>> {
    static PENDING: Mutex<Vec<EstimatorDiag>> = Mutex::new(Vec::new());
    PENDING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one diagnostic into the buffer of the active session. Safe to
/// call from pool worker threads; without an open session the record is
/// simply discarded at the next session start.
pub fn record(diag: EstimatorDiag) {
    pending().push(diag);
}

/// Records the diagnostics of a runner report, using the report's own wall
/// time for throughput.
pub fn record_report<A: EstimatorStats>(name: impl Into<String>, report: &RunReport<A>) {
    record(EstimatorDiag::from_stats(
        name,
        &report.value,
        report.elapsed,
    ));
}

/// Exclusive claim on the diagnostics buffer for the duration of one
/// experiment. Opening a session clears leftovers from earlier (possibly
/// panicked) runs; concurrent sessions serialize, so a drain only ever
/// sees records made under its own session.
pub struct Session(#[allow(dead_code)] MutexGuard<'static, ()>);

/// Opens a session, clearing any stale records.
#[must_use]
pub fn session() -> Session {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    pending().clear();
    Session(guard)
}

impl Session {
    /// Takes every record made since the session opened.
    #[must_use]
    pub fn drain(&self) -> Vec<EstimatorDiag> {
        std::mem::take(&mut *pending())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use montecarlo::{BernoulliEstimate, Runner, Seed};
    use rand::Rng;

    #[test]
    fn session_drains_only_its_own_records() {
        let stale = session();
        record(EstimatorDiag::from_stats(
            "stale.estimate",
            &montecarlo::BernoulliEstimate::from_counts(1, 2),
            Duration::ZERO,
        ));
        drop(stale);

        let s = session();
        let report = Runner::new(Seed(71))
            .with_threads(1)
            .run::<BernoulliEstimate, _>(2_000, || (), |_, rng| rng.gen_bool(0.5), None)
            .unwrap()
            .0;
        record_report("test.live", &report);
        let drained = s.drain();
        assert_eq!(drained.len(), 1, "stale record must be gone: {drained:?}");
        let d = &drained[0];
        assert_eq!(d.name, "test.live");
        assert_eq!(d.trials, 2_000);
        assert!((d.mean - 0.5).abs() < 0.1);
        assert!(d.ci95_half_width > 0.0 && d.rse > 0.0);
        assert!(d.trials_per_sec > 0.0);
    }

    #[test]
    fn degenerate_estimators_serialize_finitely() {
        let d = EstimatorDiag::from_stats(
            "empty",
            &montecarlo::BernoulliEstimate::new(),
            Duration::ZERO,
        );
        assert_eq!(d.mean, 0.0);
        assert_eq!(d.rse, 0.0);
        assert_eq!(d.trials_per_sec, 0.0);
        let json = serde_json::to_string(&d).unwrap();
        let back: EstimatorDiag = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
