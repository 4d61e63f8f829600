//! Noise-aware throughput regression gate over two [`BenchReport`]s.
//!
//! The gate compares per-pipeline `trials_per_sec` of a current run against
//! a checked-in baseline (`BENCH_e2e.json`). Raw throughput is noisy —
//! especially on shared or single-core hosts — so the pass/fail threshold
//! is derived from the reports themselves: both runs carry telemetry
//! on/off overhead arms (`joined_mt` vs `joined_mt_notel` per model) that
//! measure the *same* workload twice, and the spread of those ratios
//! around 1.0 is a direct read of the machine's run-to-run jitter. The
//! tolerance is `clamp(0.30 + 2 * max |ratio - 1|, 0.30, 0.45)`: never
//! tighter than 30% (ordinary scheduling noise), never looser than 45%
//! (so a genuine 2x slowdown — ratio 0.5 — always fails).
//!
//! Only runs of the same size compare: pipelines are matched on
//! `(name, model, trials)`, since some throughputs scale with the trial
//! count (a warm cache replay costs the same at any size).

use crate::perf::BenchReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use textplot::BarChart;

/// One pipeline's baseline-vs-current comparison.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GateRow {
    /// Pipeline id.
    pub name: String,
    /// Memory model short name, or `-`.
    pub model: String,
    /// Baseline throughput.
    pub baseline_tps: f64,
    /// Current throughput.
    pub current_tps: f64,
    /// `current / baseline`; below `1 - tolerance` regresses.
    pub ratio: f64,
    /// Whether this pipeline regressed.
    pub regressed: bool,
}

/// The gate's verdict over every pipeline present in both reports.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GateOutcome {
    /// Per-pipeline comparisons, in the current report's order.
    pub rows: Vec<GateRow>,
    /// Current pipelines with no usable baseline at the same
    /// `(name, model, trials)`, as `name/model@trials`.
    pub skipped: Vec<String>,
    /// The noise-aware relative slowdown threshold used.
    pub tolerance: f64,
    /// Whether any pipeline regressed.
    pub regressed: bool,
}

/// The relative-slowdown threshold for a baseline/current pair, derived
/// from both reports' telemetry-overhead arms (see the module docs).
#[must_use]
pub fn tolerance(baseline: &BenchReport, current: &BenchReport) -> f64 {
    let jitter = baseline
        .telemetry_overhead
        .iter()
        .chain(current.telemetry_overhead.iter())
        .map(|t| (t.throughput_ratio - 1.0).abs())
        .fold(0.0f64, f64::max);
    (0.30 + 2.0 * jitter).clamp(0.30, 0.45)
}

/// Compares `current` against `baseline`, pipeline by pipeline.
///
/// Pipelines are matched by `(name, model, trials)`; a current pipeline
/// with no baseline at the same trial count is skipped and listed in
/// [`GateOutcome::skipped`] (the gate guards regressions, not coverage).
#[must_use]
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> GateOutcome {
    let tol = tolerance(baseline, current);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for cur in &current.pipelines {
        let Some(base) = baseline.pipelines.iter().find(|p| {
            p.name == cur.name && p.model == cur.model && p.trials == cur.trials && p.trials_per_sec > 0.0
        }) else {
            skipped.push(format!("{}/{}@{}", cur.name, cur.model, cur.trials));
            continue;
        };
        let ratio = cur.trials_per_sec / base.trials_per_sec;
        rows.push(GateRow {
            name: cur.name.clone(),
            model: cur.model.clone(),
            baseline_tps: base.trials_per_sec,
            current_tps: cur.trials_per_sec,
            ratio,
            regressed: ratio < 1.0 - tol,
        });
    }
    GateOutcome {
        regressed: rows.iter().any(|r| r.regressed),
        tolerance: tol,
        rows,
        skipped,
    }
}

/// Sanity findings about a baseline report that the gate should surface
/// loudly instead of silently passing. Today that is one condition: a
/// baseline with no trajectory `history` (hand-edited or produced by a
/// pre-trajectory build) — comparisons against it still run, but the file
/// cannot seed the perf trajectory and should be regenerated.
#[must_use]
pub fn baseline_warnings(baseline: &BenchReport) -> Vec<String> {
    let mut warnings = Vec::new();
    if baseline.history.is_empty() {
        warnings.push(format!(
            "baseline (git_rev {}) carries no trajectory history; the gate \
             still compares throughput, but the output file will start a \
             fresh trajectory — regenerate the baseline with this binary \
             to seed one",
            baseline.git_rev
        ));
    }
    warnings
}

impl GateOutcome {
    /// A human-readable comparison: a bar chart of current/baseline ratios
    /// (1.00 = parity) with regressed pipelines called out.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate: {} pipelines, tolerance {:.0}% ({})",
            self.rows.len(),
            self.tolerance * 100.0,
            if self.regressed { "REGRESSED" } else { "ok" }
        );
        let mut bars = BarChart::new(40);
        for r in &self.rows {
            let label = if r.model == "-" {
                r.name.clone()
            } else {
                format!("{}/{}", r.name, r.model)
            };
            bars.bar(label, r.ratio);
        }
        out.push_str(&bars.render());
        for r in self.rows.iter().filter(|r| r.regressed) {
            let _ = writeln!(
                out,
                "REGRESSION {:<14} {:<4} {:>12.0} -> {:>12.0} trials/sec ({:.2}x)",
                r.name, r.model, r.baseline_tps, r.current_tps, r.ratio
            );
        }
        if !self.skipped.is_empty() {
            let _ = writeln!(
                out,
                "skipped {} pipelines with no baseline at the same trial count: {}",
                self.skipped.len(),
                self.skipped.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf;

    #[test]
    fn clean_self_comparison_passes() {
        let report = perf::run(500, 7, 1, 4);
        let outcome = compare(&report, &report);
        assert!(!outcome.regressed);
        assert_eq!(outcome.rows.len(), report.pipelines.len());
        assert!(outcome.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-12));
        assert!(outcome.render().contains("perf gate"));
    }

    #[test]
    fn doubled_baseline_regresses() {
        // A baseline claiming 2x the throughput models a 50% slowdown in
        // the current run: ratio 0.5 < 1 - 0.45, below even the loosest
        // tolerance, so the gate must fail.
        let report = perf::run(500, 7, 1, 4);
        let mut doctored = report.clone();
        for p in &mut doctored.pipelines {
            p.trials_per_sec *= 2.0;
        }
        let outcome = compare(&doctored, &report);
        assert!(outcome.regressed);
        assert!(outcome.rows.iter().all(|r| r.regressed));
        assert!(outcome.render().contains("REGRESSION"));
    }

    #[test]
    fn tolerance_tracks_overhead_jitter_within_bounds() {
        let report = perf::run(500, 7, 1, 4);
        let tol = tolerance(&report, &report);
        assert!((0.30..=0.45).contains(&tol), "tolerance {tol}");
        // Wildly jittery overhead arms saturate at the cap.
        let mut noisy = report.clone();
        for t in &mut noisy.telemetry_overhead {
            t.throughput_ratio = 0.5;
        }
        assert_eq!(tolerance(&noisy, &report), 0.45);
    }

    #[test]
    fn history_less_baseline_warns_instead_of_silently_passing() {
        let report = perf::run(500, 7, 1, 4);
        assert!(
            baseline_warnings(&report).is_empty(),
            "a freshly produced report must not warn"
        );
        let mut doctored = report.clone();
        doctored.history.clear();
        let warnings = baseline_warnings(&doctored);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("no trajectory history"), "{warnings:?}");
        // The warning does not change the verdict — the gate still runs.
        assert!(!compare(&doctored, &report).regressed);
    }

    #[test]
    fn unmatched_pipelines_are_skipped() {
        let report = perf::run(500, 7, 1, 4);
        let mut pruned = report.clone();
        pruned.pipelines.retain(|p| p.name != "geom");
        let outcome = compare(&pruned, &report);
        assert!(outcome.rows.iter().all(|r| r.name != "geom"));
        assert!(!outcome.regressed);
    }

    #[test]
    fn pipelines_match_only_at_the_same_trial_count() {
        // A baseline taken at 10x the trials, where a size-dependent
        // pipeline (a warm cache replay) reads 10x the throughput, must
        // not flag the smaller run: nothing matches, and every pipeline is
        // listed as skipped.
        let report = perf::run(500, 7, 1, 4);
        let mut bigger = report.clone();
        for p in &mut bigger.pipelines {
            p.trials *= 10;
            p.trials_per_sec *= 10.0;
        }
        let outcome = compare(&bigger, &report);
        assert!(outcome.rows.is_empty());
        assert!(!outcome.regressed);
        assert_eq!(outcome.skipped.len(), report.pipelines.len());
        let rendered = outcome.render();
        assert!(rendered.contains(&format!("skipped {} pipelines", report.pipelines.len())), "{rendered}");
        assert!(rendered.contains("joined_cached_warm/"), "{rendered}");
        // Against a same-size baseline nothing is skipped.
        assert!(compare(&report, &report).skipped.is_empty());
    }
}
