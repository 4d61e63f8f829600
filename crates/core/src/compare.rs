//! Side-by-side model comparison (the Theorem 6.2 headline table).

use crate::ReliabilityModel;
use memmodel::MemoryModel;
use montecarlo::BernoulliEstimate;
use std::fmt;

/// One model's row in a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// The memory model.
    pub model: MemoryModel,
    /// Analytic `(lo, hi)` bounds on `Pr[A]`, where available (linear
    /// space; only meaningful when the probability is representable).
    pub bounds: Option<(f64, f64)>,
    /// Direct Monte-Carlo estimate.
    pub estimate: BernoulliEstimate,
}

impl ModelRow {
    /// Whether the Monte-Carlo confidence interval is consistent with the
    /// analytic bounds (vacuously true without bounds).
    #[must_use]
    pub fn consistent(&self, confidence: f64) -> bool {
        match self.bounds {
            None => true,
            Some((lo, hi)) => {
                let (ci_lo, ci_hi) = self.estimate.wilson_ci(confidence);
                ci_hi >= lo && ci_lo <= hi
            }
        }
    }
}

/// A comparison of all named memory models at a fixed thread count.
///
/// # Example
///
/// ```
/// use mmr_core::ModelComparison;
///
/// let cmp = ModelComparison::run_with(2, 5_000, 11, 2);
/// assert_eq!(cmp.rows().len(), 4);
/// // Survival orders SC > PSO > TSO > WO.
/// let points: Vec<f64> = cmp.rows().iter().map(|r| r.estimate.point()).collect();
/// assert!(points[0] > points[3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    n: usize,
    rows: Vec<ModelRow>,
}

impl ModelComparison {
    /// Runs the comparison: every named model, `trials` end-to-end
    /// simulations each (deterministic in `seed`), on a budget of
    /// `workers` threads. The four model rows are scattered concurrently
    /// through the shared montecarlo pool, and each row's runner gets a
    /// slice of the budget.
    ///
    /// Every row keeps its serial sub-seed (`seed + row_index`) and rows
    /// are assembled in [`MemoryModel::NAMED`] order, so the comparison is
    /// bit-for-bit identical for any `workers` — including the old fully
    /// serial route.
    #[must_use]
    pub fn run_with(n: usize, trials: u64, seed: u64, workers: usize) -> ModelComparison {
        let models = MemoryModel::NAMED;
        let inner = workers.div_ceil(models.len()).max(1);
        let rows = montecarlo::pool::scatter(models.len(), workers.max(1), move |i| {
            let model = models[i];
            let rm = ReliabilityModel::new(model, n);
            let bounds = rm
                .log2_survival_bounds()
                .map(|(lo, hi)| (2f64.powf(lo), 2f64.powf(hi)));
            ModelRow {
                model,
                bounds,
                estimate: rm.simulate_survival_with(trials, seed.wrapping_add(i as u64), inner),
            }
        });
        ModelComparison { n, rows }
    }

    /// The thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.n
    }

    /// The per-model rows, in [`MemoryModel::NAMED`] order.
    #[must_use]
    pub fn rows(&self) -> &[ModelRow] {
        &self.rows
    }

    /// The row for a specific model, if present.
    #[must_use]
    pub fn row(&self, model: MemoryModel) -> Option<&ModelRow> {
        self.rows.iter().find(|r| r.model == model)
    }
}

impl fmt::Display for ModelComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "survival Pr[A], n = {}", self.n)?;
        for row in &self.rows {
            let bounds = match row.bounds {
                Some((lo, hi)) if (lo - hi).abs() < 1e-12 => format!("= {lo:.6}"),
                Some((lo, hi)) => format!("∈ ({lo:.6}, {hi:.6})"),
                None => String::from("(no closed form)"),
            };
            let (ci_lo, ci_hi) = row.estimate.wilson_ci(0.95);
            writeln!(
                f,
                "  {:<4} paper {:<22} measured {:.6} ± {:.6} [{:.6}, {:.6}] ({}/{})",
                row.model.short_name(),
                bounds,
                row.estimate.point(),
                (ci_hi - ci_lo) / 2.0,
                ci_lo,
                ci_hi,
                row.estimate.successes(),
                row.estimate.trials()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: u64 = if cfg!(debug_assertions) {
        30_000
    } else {
        200_000
    };

    #[test]
    fn two_thread_comparison_reproduces_theorem_62() {
        let cmp = ModelComparison::run_with(2, TRIALS, 42, 2);
        for row in cmp.rows() {
            assert!(
                row.consistent(0.999),
                "{}: estimate {} inconsistent with bounds {:?}",
                row.model,
                row.estimate,
                row.bounds
            );
        }
        // Ordering SC > PSO > TSO > WO.
        let p = |m| cmp.row(m).unwrap().estimate.point();
        assert!(p(MemoryModel::Sc) > p(MemoryModel::Pso));
        assert!(p(MemoryModel::Pso) > p(MemoryModel::Tso));
        assert!(p(MemoryModel::Tso) > p(MemoryModel::Wo));
    }

    #[test]
    fn tso_is_closer_to_wo_than_to_sc() {
        // The paper's qualitative takeaway from Theorem 6.2.
        let cmp = ModelComparison::run_with(2, TRIALS, 43, 2);
        let p = |m| cmp.row(m).unwrap().estimate.point();
        let (sc, tso, wo) = (p(MemoryModel::Sc), p(MemoryModel::Tso), p(MemoryModel::Wo));
        assert!((tso - wo).abs() < (tso - sc).abs());
    }

    #[test]
    fn display_contains_every_model() {
        let cmp = ModelComparison::run_with(2, 2_000, 44, 2);
        let s = cmp.to_string();
        for m in MemoryModel::NAMED {
            assert!(s.contains(m.short_name()));
        }
    }

    #[test]
    fn rows_are_deterministic_in_seed() {
        let a = ModelComparison::run_with(2, 5_000, 45, 2);
        let b = ModelComparison::run_with(2, 5_000, 45, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn rows_are_worker_count_invariant() {
        // The scattered rows and their nested runners keep serial seeds,
        // so any worker budget reproduces the same comparison exactly.
        let base = ModelComparison::run_with(2, 5_000, 46, 1);
        for workers in [2usize, 3, 8] {
            assert_eq!(ModelComparison::run_with(2, 5_000, 46, workers), base);
        }
    }
}
