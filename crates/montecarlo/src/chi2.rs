//! Chi-square goodness-of-fit against an exact law.

use crate::Histogram;
use analytic::special::chi_square_sf;

/// Result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, PartialEq)]
pub struct GofResult {
    /// The chi-square statistic over the pooled bins.
    pub statistic: f64,
    /// Degrees of freedom (pooled bins − 1).
    pub dof: u64,
    /// The p-value `Pr[χ²_dof > statistic]`.
    pub p_value: f64,
    /// Number of bins after pooling.
    pub bins: usize,
}

impl GofResult {
    /// Whether the observed data is consistent with the law at significance
    /// level `alpha` (i.e. the test does *not* reject).
    #[must_use]
    pub fn consistent_at(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Chi-square goodness-of-fit of `observed` against the law `expected_pmf`.
///
/// Support values are binned individually from 0 upward; the right tail is
/// pooled so every bin has expected count at least `min_expected` (the
/// classic validity rule; 5 is customary). Any expected mass beyond the
/// observed support is folded into the final tail bin.
///
/// # Panics
///
/// Panics if the histogram is empty or fewer than two bins survive pooling.
#[must_use]
pub fn chi_square_gof(
    observed: &Histogram,
    expected_pmf: impl Fn(u64) -> f64,
    min_expected: f64,
) -> GofResult {
    let n = observed.total();
    assert!(n > 0, "cannot test an empty histogram");
    let nf = n as f64;
    let max = observed.max().unwrap_or(0);

    // Walk values upward, pooling a bin forward whenever its expected count
    // is too small; everything from the first undersized tail value onward
    // becomes one pooled tail bin.
    let mut bins: Vec<(f64, f64)> = Vec::new(); // (observed, expected)
    let mut acc_obs = 0.0;
    let mut acc_exp = 0.0;
    for v in 0..=max {
        acc_obs += observed.count(v) as f64;
        acc_exp += expected_pmf(v) * nf;
        if acc_exp >= min_expected {
            bins.push((acc_obs, acc_exp));
            acc_obs = 0.0;
            acc_exp = 0.0;
        }
    }
    // Fold all remaining expected mass (the unobserved tail) plus any
    // leftover accumulation into a final bin.
    let seen_exp: f64 = bins.iter().map(|&(_, e)| e).sum::<f64>() + acc_exp;
    let tail_exp = (nf - seen_exp).max(0.0);
    acc_exp += tail_exp;
    if acc_obs > 0.0 && acc_exp == 0.0 {
        // Observations where the law has zero mass: keep them as their own
        // bin so the statistic registers the impossibility.
        bins.push((acc_obs, 0.0));
    } else if acc_exp > 0.0 || acc_obs > 0.0 {
        if acc_exp >= min_expected || bins.is_empty() {
            bins.push((acc_obs, acc_exp));
        } else if let Some(last) = bins.last_mut() {
            last.0 += acc_obs;
            last.1 += acc_exp;
        }
    }

    assert!(
        bins.len() >= 2,
        "chi-square needs at least two bins after pooling"
    );

    let statistic: f64 = bins
        .iter()
        .map(|&(o, e)| {
            if e > 0.0 {
                (o - e) * (o - e) / e
            } else {
                // Observed mass where the law says zero: infinite evidence.
                if o > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        })
        .sum();
    let dof = (bins.len() - 1) as u64;
    let p_value = if statistic.is_finite() {
        chi_square_sf(statistic, dof)
    } else {
        0.0
    };
    GofResult {
        statistic,
        dof,
        p_value,
        bins: bins.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn geometric_half_sample(rng: &mut SmallRng) -> u64 {
        let mut k = 0;
        while rng.gen_bool(0.5) {
            k += 1;
        }
        k
    }

    #[test]
    fn accepts_matching_law() {
        let mut rng = SmallRng::seed_from_u64(11);
        let h: Histogram = (0..200_000)
            .map(|_| geometric_half_sample(&mut rng))
            .collect();
        let gof = chi_square_gof(&h, |k| 2f64.powi(-(k as i32) - 1), 5.0);
        assert!(
            gof.consistent_at(0.001),
            "true law rejected: p = {}",
            gof.p_value
        );
        assert!(gof.bins >= 5);
    }

    #[test]
    fn rejects_wrong_law() {
        let mut rng = SmallRng::seed_from_u64(13);
        let h: Histogram = (0..200_000)
            .map(|_| geometric_half_sample(&mut rng))
            .collect();
        // Claim the law is geometric with q = 0.4 instead of 0.5.
        let gof = chi_square_gof(&h, |k| 0.4 * 0.6f64.powi(k as i32), 5.0);
        assert!(
            !gof.consistent_at(0.001),
            "wrong law accepted: p = {}",
            gof.p_value
        );
    }

    #[test]
    fn impossible_observation_gives_zero_p() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(0);
        }
        h.record(7); // The point-mass law says Pr[7] = 0.
        let gof = chi_square_gof(&h, |k| f64::from(u8::from(k == 0)), 5.0);
        assert_eq!(gof.p_value, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_histogram_panics() {
        let _ = chi_square_gof(&Histogram::new(), |_| 0.5, 5.0);
    }

    #[test]
    fn pooling_respects_min_expected() {
        let mut rng = SmallRng::seed_from_u64(17);
        let h: Histogram = (0..1000).map(|_| geometric_half_sample(&mut rng)).collect();
        let strict = chi_square_gof(&h, |k| 2f64.powi(-(k as i32) - 1), 50.0);
        let loose = chi_square_gof(&h, |k| 2f64.powi(-(k as i32) - 1), 1.0);
        assert!(strict.bins < loose.bins);
        assert!(strict.dof < loose.dof);
    }
}
