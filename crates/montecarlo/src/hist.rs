//! Empirical histograms over small non-negative integers.

use std::fmt;

/// A histogram of `u64`-valued observations (window sizes, shift magnitudes…).
///
/// # Example
///
/// ```
/// use montecarlo::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0u64, 0, 1, 2, 2, 2] { h.record(v); }
/// assert_eq!(h.total(), 6);
/// assert_eq!(h.count(2), 3);
/// assert_eq!(h.pmf(0), 1.0 / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = usize::try_from(value).expect("histogram value fits usize");
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Merges another histogram (for parallel reduction).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations equal to `value`.
    #[must_use]
    pub fn count(&self, value: u64) -> u64 {
        usize::try_from(value)
            .ok()
            .and_then(|i| self.counts.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Empirical probability of `value` (`NaN` when empty).
    #[must_use]
    pub fn pmf(&self, value: u64) -> f64 {
        self.count(value) as f64 / self.total as f64
    }

    /// Empirical `Pr[X ≥ value]`.
    #[must_use]
    pub fn tail(&self, value: u64) -> f64 {
        let from = usize::try_from(value).expect("histogram value fits usize");
        let c: u64 = self.counts.iter().skip(from).sum();
        c as f64 / self.total as f64
    }

    /// The largest observed value (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0).map(|i| i as u64)
    }

    /// Empirical mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| i as f64 * c as f64)
            .sum();
        weighted / self.total as f64
    }

    /// Iterates over `(value, count)` pairs with nonzero counts.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
    }

    /// The raw per-value counts, densely indexed from zero.
    #[must_use]
    pub fn dense_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a histogram from [`Histogram::dense_counts`] output.
    ///
    /// The total is recomputed from the counts, so the round-trip is exact.
    ///
    /// # Panics
    ///
    /// Panics if the counts sum past `u64::MAX`.
    #[must_use]
    pub fn from_dense_counts(counts: Vec<u64>) -> Histogram {
        let total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .expect("histogram total overflows u64");
        Histogram { counts, total }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Histogram {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram(n={}", self.total)?;
        for (v, c) in self.iter().take(16) {
            write!(f, ", {v}:{c}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let h: Histogram = [3u64, 1, 3, 3, 0].into_iter().collect();
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.max(), Some(3));
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), None);
        assert!(h.mean().is_nan());
        assert!(h.pmf(0).is_nan());
    }

    #[test]
    fn tail_complements_pmf() {
        let h: Histogram = [0u64, 1, 1, 2, 5].into_iter().collect();
        assert_eq!(h.tail(0), 1.0);
        assert!((h.tail(1) - 0.8).abs() < 1e-12);
        assert!((h.tail(6)).abs() < 1e-12);
    }

    #[test]
    fn merge_is_additive() {
        let mut a: Histogram = [0u64, 1].into_iter().collect();
        let b: Histogram = [1u64, 2, 2].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(2), 2);
    }

    #[test]
    fn extend_accumulates() {
        let mut h = Histogram::new();
        h.extend([1u64, 1, 4]);
        h.extend([4u64]);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn iter_skips_zero_counts() {
        let h: Histogram = [0u64, 5].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (5, 1)]);
    }
}
