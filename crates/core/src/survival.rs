//! Survival-probability estimation, including the Rao-Blackwellised route.

use crate::{ReliabilityModel, TrialScratch};
use analytic::{thm62, thm63};
use memmodel::MemoryModel;
use montecarlo::{GridSample, Runner, Seed, Welford, WelfordGrid};
use rand::rngs::SmallRng;
use shiftproc::exchangeable;

/// A Rao-Blackwellised survival estimate (Theorem 6.1).
///
/// Direct simulation of the event `A` needs `≫ 1/Pr[A] = e^{+Θ(n²)}` trials;
/// instead we sample window vectors `Γ̄`, evaluate the *conditional*
/// disjointness term exactly, and average. The estimate is reported in
/// `log2` to survive the astronomically small probabilities at large `n`.
///
/// At large enough `n` (e.g. n = 1000 under TSO) every sampled factor
/// `2^-K` has `K > 1074` and rounds to 0, so the estimate is below `f64`
/// range and is reported as an upper bound on the estimate, not on
/// `Pr[A]` ([`below_range`](Self::below_range)). Such samples do not
/// resolve `Pr[A]`: at n = 1000 under TSO the bound sits 75 bits under
/// the paper's proven lower bound on `log2 Pr[A]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbSurvival {
    /// The estimate of `log2 Pr[A]`; when
    /// [`below_range`](Self::below_range) is set, an upper bound on that
    /// estimate, not on `Pr[A]`.
    pub log2_survival: f64,
    /// The sampled mean of the scaled per-vector factor.
    pub mean_factor: f64,
    /// Standard error of `mean_factor`.
    pub factor_sem: f64,
    /// Number of window vectors sampled.
    pub samples: u64,
    /// Every sampled factor underflowed to 0, so `log2_survival` is
    /// `exchangeable::log2_survival(n, 2, 2^-1074)`, the value at the
    /// smallest positive factor: an upper bound on the estimate the
    /// samples' exact mean would give, not on `Pr[A]`, which these samples
    /// do not resolve.
    pub below_range: bool,
}

impl RbSurvival {
    /// The estimate at `n` threads from the Welford fold of its factors.
    ///
    /// # Panics
    ///
    /// Panics if no factor was sampled.
    fn from_factors(n: usize, stats: &Welford) -> RbSurvival {
        let mean = stats.mean();
        let below_range = mean == 0.0;
        // The smallest positive f64, 2^-1074, bounds every factor that
        // rounded to 0.
        let smallest = f64::from_bits(1);
        RbSurvival {
            log2_survival: exchangeable::log2_survival(
                u32::try_from(n).expect("thread count fits u32"),
                2,
                if below_range { smallest } else { mean },
            ),
            mean_factor: mean,
            factor_sem: stats.sem(),
            samples: stats.count(),
            below_range,
        }
    }

    /// `Pr[A]` in linear space (0 when below `f64` range).
    #[must_use]
    pub fn survival(&self) -> f64 {
        2f64.powf(self.log2_survival)
    }

    /// The normalised exponent `−log2 Pr[A] / n²` of Theorem 6.3.
    #[must_use]
    pub fn normalized_exponent(&self, n: usize) -> f64 {
        -self.log2_survival / (n as f64 * n as f64)
    }
}

/// One thread count of the exchangeability grid
/// ([`ReliabilityModel::estimate_exchangeability_grid_with`]): three
/// estimators of `Pr[A]` folded over the same window vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeabilityPoint {
    /// The thread count `n`.
    pub n: usize,
    /// The exact conditional `Pr[A | Γ̄]` of each vector: its mean is
    /// `Pr[A]`.
    pub exact: Welford,
    /// The Theorem 6.1 factor of each vector in draw order.
    pub factor: Welford,
    /// The factor of each vector in reverse order: by exchangeability its
    /// mean is `factor`'s.
    pub reversed: Welford,
}

impl ExchangeabilityPoint {
    /// The Rao-Blackwellised estimate from [`factor`](Self::factor).
    ///
    /// # Panics
    ///
    /// Panics if no factor was sampled.
    #[must_use]
    pub fn rb(&self) -> RbSurvival {
        RbSurvival::from_factors(self.n, &self.factor)
    }
}

impl ReliabilityModel {
    /// Rao-Blackwellised estimate of `Pr[A]` from `trials` window vectors
    /// on `workers` runner threads. When every factor underflows, the
    /// estimate is a bound (see [`RbSurvival`]). Speed only: the estimate
    /// is bit-for-bit identical for any `workers`.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is 0.
    #[must_use]
    pub fn estimate_survival_rb_with(&self, trials: u64, seed: u64, workers: usize) -> RbSurvival {
        let runner = Runner::new(Seed(seed)).with_threads(workers);
        let stats: Welford = self
            .run_cached("rb", &runner, trials, |m, scratch, rng| {
                m.rb_factor(scratch, rng)
            })
            .value;
        RbSurvival::from_factors(self.threads(), &stats)
    }

    /// Rao-Blackwellised estimates of `Pr[A]` at every thread count of
    /// `ns` from one shared draw: each of the `trials` trials draws one
    /// program and this model's `n` windows, and every `ns[k]` reads the
    /// factor of the first `ns[k]` of them
    /// ([`rb_grid_factors`](ReliabilityModel::rb_grid_factors)).
    ///
    /// Given the program the windows are i.i.d., so a prefix of one draw is
    /// a valid window vector for every smaller `n`, and each estimate is
    /// unbiased. The estimates share their programs and windows: they are
    /// common-random-number estimates, and a window is settled once for
    /// the whole grid instead of once per point. The column at
    /// `ns[k] = n` is [`estimate_survival_rb_with`]'s estimate at `seed`
    /// bit for bit. Cached under the result kind `rb-grid/<ns>`, e.g.
    /// `rb-grid/2,3,4,6,8,12,16`. Speed only: the estimates are bit-for-bit
    /// identical for any `workers`.
    ///
    /// [`estimate_survival_rb_with`]: ReliabilityModel::estimate_survival_rb_with
    ///
    /// # Panics
    ///
    /// Panics if some `ns[k]` is 0 or exceeds this model's thread count, if
    /// `ns` has more than [`montecarlo::GridSample::CAPACITY`] points, or if
    /// `trials` is 0 (no factor sampled, as in
    /// [`estimate_survival_rb_with`]).
    #[must_use]
    pub fn estimate_survival_rb_grid_with(
        &self,
        ns: &[usize],
        trials: u64,
        seed: u64,
        workers: usize,
    ) -> Vec<RbSurvival> {
        self.check_grid(ns, GridSample::CAPACITY);
        let grid_ns = ns.to_vec();
        let columns = self.run_grid(
            "rb-grid",
            ns,
            trials,
            seed,
            workers,
            move |m, scratch, rng| m.rb_grid_factors(&grid_ns, scratch, rng),
        );
        ns.iter()
            .enumerate()
            .map(|(k, &n)| RbSurvival::from_factors(n, &columns(k)))
            .collect()
    }

    /// Three estimators of `Pr[A]` at every thread count of `ns` from one
    /// shared draw: each of the `trials` trials draws one program and this
    /// model's windows, and every `ns[k]` reads the first `ns[k]` of them
    /// for the exact conditional `Pr[A | Γ̄]`, the Theorem 6.1 factor and
    /// the factor of the reversed vector
    /// ([`exchangeability_grid_sample`](ReliabilityModel::exchangeability_grid_sample)).
    ///
    /// Given the program the windows are i.i.d., so one prefix is a valid
    /// window vector for all three estimators at every smaller `n`: the
    /// exact mean and the Rao-Blackwellised estimate of Theorem 6.1 are
    /// paired over the same vectors, as are the forward and reversed
    /// factors, so their differences carry no independent sampling noise.
    /// The factor column at `ns[k] = n` is
    /// [`estimate_survival_rb_with`]'s estimate at `seed` bit for bit.
    /// Cached under the result kind `rb-exact-grid/<ns>`, e.g.
    /// `rb-exact-grid/2,3,4`. Speed only: the estimates are bit-for-bit
    /// identical for any `workers`.
    ///
    /// [`estimate_survival_rb_with`]: ReliabilityModel::estimate_survival_rb_with
    ///
    /// # Panics
    ///
    /// Panics if some `ns[k]` is 0 or exceeds this model's thread count or
    /// [`shiftproc::exact::MAX_SUBSET_N`], or if `ns` has more than
    /// [`GridSample::CAPACITY`]` / 3` points.
    #[must_use]
    pub fn estimate_exchangeability_grid_with(
        &self,
        ns: &[usize],
        trials: u64,
        seed: u64,
        workers: usize,
    ) -> Vec<ExchangeabilityPoint> {
        self.check_grid(ns, GridSample::CAPACITY / 3);
        let grid_ns = ns.to_vec();
        let columns = self.run_grid(
            "rb-exact-grid",
            ns,
            trials,
            seed,
            workers,
            move |m, scratch, rng| m.exchangeability_grid_sample(&grid_ns, scratch, rng),
        );
        ns.iter()
            .enumerate()
            .map(|(k, &n)| ExchangeabilityPoint {
                n,
                exact: columns(3 * k),
                factor: columns(3 * k + 1),
                reversed: columns(3 * k + 2),
            })
            .collect()
    }

    /// Panics unless every point of `ns` lies in `1..=threads` and there
    /// are at most `points` of them.
    fn check_grid(&self, ns: &[usize], points: usize) {
        assert!(
            ns.iter().all(|&n| (1..=self.threads()).contains(&n)),
            "grid {ns:?} outside 1..={} threads",
            self.threads()
        );
        assert!(
            ns.len() <= points,
            "{} grid points exceed the capacity of {points}",
            ns.len()
        );
    }

    /// Runs a shared-draw grid trial through the cache seam under the
    /// result kind `<kind>/<ns>` and returns its columns by index. A run of
    /// no trials leaves the grid empty: every column is then an empty
    /// [`Welford`], which fails as an empty `rb` estimate does.
    fn run_grid(
        &self,
        kind: &str,
        ns: &[usize],
        trials: u64,
        seed: u64,
        workers: usize,
        trial: impl Fn(&ReliabilityModel, &mut TrialScratch, &mut SmallRng) -> GridSample
            + Send
            + Sync
            + 'static,
    ) -> impl Fn(usize) -> Welford {
        let runner = Runner::new(Seed(seed)).with_threads(workers);
        let grid: WelfordGrid = self
            .run_cached(&grid_kind(kind, ns), &runner, trials, trial)
            .value;
        move |i| grid.points().get(i).copied().unwrap_or_default()
    }

    /// The paper's analytic bounds `(lo, hi)` on `Pr[A]`, where available:
    ///
    /// * `n = 2`, named models — the Theorem 6.2 constants (footnote-4 PSO
    ///   derived from the window series);
    /// * SC at any `n` — exact (Theorem 6.3's computation);
    /// * any other model at any `n` — the Claim B.2 sandwich
    ///   `[SC·2^-(n-1), SC]`.
    ///
    /// Returned in `log2`. `None` only for custom models at `n = 2` (no
    /// closed form).
    #[must_use]
    pub fn log2_survival_bounds(&self) -> Option<(f64, f64)> {
        let n = u32::try_from(self.threads()).expect("thread count fits u32");
        if n == 1 {
            return Some((0.0, 0.0));
        }
        if n == 2 {
            let (lo, hi) = thm62::survival_bounds(self.memory_model())?;
            return Some((lo.to_f64().log2(), hi.to_f64().log2()));
        }
        let sc = thm63::sc_log2_survival(n);
        match self.memory_model() {
            MemoryModel::Sc => Some((sc, sc)),
            _ => Some((thm63::universal_log2_survival_lower_bound(n), sc)),
        }
    }
}

/// The cache result kind of a shared-draw grid over `ns`, e.g.
/// `rb-grid/2,3,4,6,8,12,16`: the grid's points in the caller's order.
fn grid_kind(kind: &str, ns: &[usize]) -> String {
    let points: Vec<String> = ns.iter().map(usize::to_string).collect();
    format!("{kind}/{}", points.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shiftproc::exact;

    const TRIALS: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        200_000
    };

    #[test]
    fn underflowed_factors_report_a_finite_bound() {
        let smallest = f64::from_bits(1);
        let mut zeros = Welford::new();
        for _ in 0..10 {
            zeros.record(0.0);
        }
        for n in [2usize, 16, 1000] {
            let rb = RbSurvival::from_factors(n, &zeros);
            let bound = exchangeable::log2_survival(n as u32, 2, smallest);
            assert!(rb.below_range, "n = {n}");
            assert!(rb.log2_survival.is_finite(), "n = {n}");
            assert_eq!(rb.log2_survival.to_bits(), bound.to_bits(), "n = {n}");
            assert!(rb.normalized_exponent(n).is_finite(), "n = {n}");
            assert!(!rb.survival().is_nan(), "n = {n}");
            assert_eq!((rb.mean_factor, rb.samples), (0.0, 10));
        }
        // A positive mean, however small, is the estimate itself.
        let mut tiny = Welford::new();
        tiny.record(smallest);
        let rb = RbSurvival::from_factors(1000, &tiny);
        assert!(!rb.below_range);
        assert_eq!(
            rb.log2_survival.to_bits(),
            exchangeable::log2_survival(1000, 2, smallest).to_bits()
        );
    }

    #[test]
    fn rb_matches_exact_for_sc() {
        // SC windows are deterministic, so the RB estimate is exact.
        for n in [2usize, 4, 8, 16] {
            let m = ReliabilityModel::new(MemoryModel::Sc, n);
            let est = m.estimate_survival_rb_with(100, 1, 2);
            let exact = thm63::sc_log2_survival(n as u32);
            assert!(
                (est.log2_survival - exact).abs() < 1e-9,
                "n={n}: {} vs {exact}",
                est.log2_survival
            );
            assert_eq!(est.mean_factor, 1.0);
        }
    }

    #[test]
    fn rb_two_threads_reproduces_theorem_62() {
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 2);
            let est = m.estimate_survival_rb_with(TRIALS, 2, 2);
            let (lo, hi) = m.log2_survival_bounds().unwrap();
            // Allow four standard errors of slack on the factor (the PSO
            // "bounds" are a point, so the whole tolerance is sampling noise).
            let slack = 4.0 * est.factor_sem / est.mean_factor / std::f64::consts::LN_2;
            assert!(
                est.log2_survival >= lo - slack - 1e-6 && est.log2_survival <= hi + slack + 1e-6,
                "{model}: log2 {} outside [{lo}, {hi}] ± {slack}",
                est.log2_survival
            );
        }
    }

    #[test]
    fn rb_agrees_with_direct_simulation_at_n2() {
        for model in [MemoryModel::Tso, MemoryModel::Wo] {
            let m = ReliabilityModel::new(model, 2);
            let rb = m.estimate_survival_rb_with(TRIALS, 3, 2);
            let direct = m.simulate_survival_with(TRIALS, 4, 2);
            let (lo, hi) = direct.wilson_ci(0.999);
            assert!(
                rb.survival() > lo - 0.005 && rb.survival() < hi + 0.005,
                "{model}: RB {} vs direct CI [{lo}, {hi}]",
                rb.survival()
            );
        }
    }

    #[test]
    fn bounds_sandwich_holds_at_larger_n() {
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 6);
            let est = m.estimate_survival_rb_with(TRIALS / 4, 5, 2);
            let (lo, hi) = m.log2_survival_bounds().unwrap();
            assert!(
                est.log2_survival >= lo - 0.5 && est.log2_survival <= hi + 0.5,
                "{model}: {} outside sandwich [{lo}, {hi}]",
                est.log2_survival
            );
        }
    }

    const GRID: [usize; 7] = [2, 3, 4, 6, 8, 12, 16];

    #[test]
    fn grid_top_column_is_the_lone_rb_estimate_bit_for_bit() {
        // The column at the model's own n reads every window of each draw,
        // in the same draw order as the `rb` kernel: same factors, same
        // Welford fold, same chunk merges.
        let trials = 3 * montecarlo::CHUNK_WIDTH + 100;
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 16);
            let seed = 0x6300 + model.short_name().len() as u64;
            let grid = m.estimate_survival_rb_grid_with(&GRID, trials, seed, 2);
            let lone = m.estimate_survival_rb_with(trials, seed, 1);
            let top = grid[GRID.len() - 1];
            assert_eq!(top.log2_survival.to_bits(), lone.log2_survival.to_bits());
            assert_eq!(top.mean_factor.to_bits(), lone.mean_factor.to_bits());
            assert_eq!(top.factor_sem.to_bits(), lone.factor_sem.to_bits());
            assert_eq!(top.samples, trials);
        }
    }

    #[test]
    fn grid_columns_match_the_exact_iid_law_and_sc_is_exact() {
        // WO windows do not depend on the program, so the iid-window route
        // is exact for WO: every column's 99.9% CI on the mean factor must
        // cover the exact factor. SC windows are all 2: every factor is 1.
        let laws = analytic::window_law::WindowLaws::new();
        let wo = ReliabilityModel::new(MemoryModel::Wo, 16);
        let trials = TRIALS / 2;
        let grid = wo.estimate_survival_rb_grid_with(&GRID, trials, 61, 2);
        for (&n, est) in GRID.iter().zip(&grid) {
            let n32 = n as u32;
            let pmf = |g: u64| laws.pmf(MemoryModel::Wo, g).expect("named model");
            let exact_log2 = thm63::log2_survival_iid_windows(n32, pmf, 90);
            let exact_factor =
                (exact_log2 - exchangeable::log2_survival_deterministic(n32, 2)).exp2();
            let half = montecarlo::normal_quantile(0.9995) * est.factor_sem;
            assert!(
                (est.mean_factor - exact_factor).abs() <= half,
                "WO n={n}: factor {} ± {half} misses exact {exact_factor}",
                est.mean_factor
            );
            assert_eq!(est.samples, trials);
        }
        let sc = ReliabilityModel::new(MemoryModel::Sc, 16);
        for (&n, est) in GRID
            .iter()
            .zip(sc.estimate_survival_rb_grid_with(&GRID, 5_000, 62, 1))
        {
            assert_eq!(est.mean_factor, 1.0, "SC n={n}");
            assert_eq!(est.factor_sem, 0.0, "SC n={n}");
        }
    }

    #[test]
    fn grid_request_canon_is_pinned() {
        // The grid's points enter its cache key through the result kind; a
        // change to their encoding must fail here rather than re-key every
        // cached grid silently. WO at thm63's standard seed and trials.
        let m = ReliabilityModel::new(MemoryModel::Wo, 16);
        let runner = Runner::new(Seed((20_110_606 ^ 0x63) + 3 * 1009 + 6));
        let key = m.request_key(&grid_kind("rb-grid", &GRID), &runner, 100_000);
        assert_eq!(
            key.canon(),
            "mmrk2|kernel=mmr-kernels-v3/rb-grid/2,3,4,6,8,12,16|matrix=XXXX|n=16|m=64|\
             p=3fe0000000000000|s=3fe0000000000000,3fe0000000000000,3fe0000000000000,3fe0000000000000|\
             fence=3fe0000000000000|acq=0|seed=000000000132e946|cw=4096|trials=100000|rse=-"
        );
        assert_eq!(key.hash().hex(), "c87c4b094472ffe7fe1ea0e8c1ea1b10");
    }

    #[test]
    fn grid_is_worker_count_invariant_and_rejects_points_above_the_model() {
        let m = ReliabilityModel::new(MemoryModel::Pso, 8);
        let base = m.estimate_survival_rb_grid_with(&[8, 2, 5], 9_000, 3, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                m.estimate_survival_rb_grid_with(&[8, 2, 5], 9_000, 3, workers),
                base
            );
        }
        let above =
            std::panic::catch_unwind(|| m.estimate_survival_rb_grid_with(&[2, 9], 10, 3, 1));
        assert!(above.is_err(), "n = 9 on an 8-thread model must panic");
    }

    const EXCHANGEABILITY: [usize; 3] = [2, 3, 4];

    #[test]
    fn exchangeability_factor_column_is_the_lone_rb_estimate_bit_for_bit() {
        // The n = 4 factor column reads the windows of a 4-thread `rb`
        // trial in its draw order; settling the last window, which `rb`
        // skips, draws nothing. Three chunks and a tail.
        let trials = 3 * montecarlo::CHUNK_WIDTH + 100;
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 4);
            let seed = 0x6100 + model.short_name().len() as u64;
            let grid = m.estimate_exchangeability_grid_with(&EXCHANGEABILITY, trials, seed, 2);
            let lone = m.estimate_survival_rb_with(trials, seed, 1);
            let top = grid[2].rb();
            assert_eq!(grid[2].n, 4);
            assert_eq!(top.log2_survival.to_bits(), lone.log2_survival.to_bits());
            assert_eq!(top.mean_factor.to_bits(), lone.mean_factor.to_bits());
            assert_eq!(top.factor_sem.to_bits(), lone.factor_sem.to_bits());
            assert_eq!(top.samples, trials);
        }
    }

    #[test]
    fn exchangeability_columns_are_a_reference_loop_over_window_vectors() {
        // The reference: every window settled up front, each column from a
        // fresh slice, the reversal through a Vec — folded by the same
        // runner at the same seed.
        let trials = montecarlo::CHUNK_WIDTH + 700;
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 4);
            let seed = 0x6110 + model.short_name().len() as u64;
            let reference: WelfordGrid = Runner::new(Seed(seed))
                .run(
                    trials,
                    move || (m.scratch(), Vec::new()),
                    move |(scratch, back): &mut (TrialScratch, Vec<u64>), rng| {
                        let windows = m.sample_windows_scratch(scratch, rng);
                        GridSample::from_fn(9, |c| {
                            let prefix = &windows[..EXCHANGEABILITY[c / 3]];
                            back.clear();
                            back.extend_from_slice(prefix);
                            back.reverse();
                            [
                                exact::pr_disjoint(prefix),
                                exchangeable::sample_factor(prefix, 2),
                                exchangeable::sample_factor(back, 2),
                            ][c % 3]
                        })
                    },
                    None,
                )
                .expect("panic-free simulation")
                .0
                .value;
            let grid = m.estimate_exchangeability_grid_with(&EXCHANGEABILITY, trials, seed, 1);
            for (k, point) in grid.iter().enumerate() {
                for (c, w) in [point.exact, point.factor, point.reversed]
                    .iter()
                    .enumerate()
                {
                    assert_eq!(
                        w.raw_parts(),
                        reference.points()[3 * k + c].raw_parts(),
                        "{model} n={} column {c}",
                        point.n
                    );
                }
            }
        }
    }

    #[test]
    fn exchangeability_grid_is_worker_count_invariant_and_rejects_bad_grids() {
        let m = ReliabilityModel::new(MemoryModel::Tso, 4);
        let base = m.estimate_exchangeability_grid_with(&[4, 2, 3], 9_000, 5, 1);
        for workers in [2usize, 3, 8] {
            assert_eq!(
                m.estimate_exchangeability_grid_with(&[4, 2, 3], 9_000, 5, workers),
                base
            );
        }
        for ns in [&[2usize, 5][..], &[0, 2], &[1, 2, 2, 3, 3, 4]] {
            let bad =
                std::panic::catch_unwind(|| m.estimate_exchangeability_grid_with(ns, 10, 5, 1));
            let message = bad.expect_err("a bad grid must panic");
            let text = message.downcast_ref::<String>().map_or("", String::as_str);
            assert!(text.contains("grid"), "{ns:?}: {text:?}");
        }
    }

    #[test]
    fn exchangeability_request_canon_is_pinned() {
        // TSO at thm61's standard seed and trials.
        let m = ReliabilityModel::new(MemoryModel::Tso, 4);
        let runner = Runner::new(Seed(20_110_606 ^ 0x61));
        let key = m.request_key(
            &grid_kind("rb-exact-grid", &EXCHANGEABILITY),
            &runner,
            100_000,
        );
        assert_eq!(
            key.canon(),
            "mmrk2|kernel=mmr-kernels-v3/rb-exact-grid/2,3,4|matrix=.X..|n=4|m=64|\
             p=3fe0000000000000|s=3fe0000000000000,3fe0000000000000,3fe0000000000000,3fe0000000000000|\
             fence=3fe0000000000000|acq=0|seed=000000000132dd6f|cw=4096|trials=100000|rse=-"
        );
        assert_eq!(key.hash().hex(), "a24c93ba90226b8ad5729ae5466aa765");
    }

    #[test]
    fn normalized_exponent_is_order_three_halves() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 12);
        let est = m.estimate_survival_rb_with(100, 6, 2);
        let e = est.normalized_exponent(12);
        assert!(e > 1.0 && e < 2.0, "exponent {e}");
    }

    #[test]
    fn single_thread_bounds_are_certainty() {
        let m = ReliabilityModel::new(MemoryModel::Wo, 1);
        assert_eq!(m.log2_survival_bounds(), Some((0.0, 0.0)));
    }

    #[test]
    fn custom_model_has_no_two_thread_closed_form() {
        let m = ReliabilityModel::new(MemoryModel::Custom(memmodel::ReorderMatrix::all()), 2);
        assert!(m.log2_survival_bounds().is_none());
        // But the sandwich applies at n >= 3.
        let m3 = ReliabilityModel::new(MemoryModel::Custom(memmodel::ReorderMatrix::all()), 3);
        assert!(m3.log2_survival_bounds().is_some());
    }
}
