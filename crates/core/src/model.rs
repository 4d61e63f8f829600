//! The joined model configuration and its samplers.

use memmodel::{MemoryModel, OpType, CANONICAL_P};
use montecarlo::{BernoulliEstimate, GridSample, Histogram, Runner, Seed};
use progmodel::{Program, ProgramGenerator};
use rand::Rng;
use settle::{KeyedWindows, ProgramShape, SettleScratch, Settler};
use shiftproc::{exact, exchangeable, ShiftProcess, ShiftScratch};
use std::fmt;

/// Default filler length; window-law truncation error decays like `2^-m`.
pub const DEFAULT_M: usize = 64;

/// The end-to-end reliability model of §6 for one memory model and thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityModel {
    model: MemoryModel,
    settler: Settler,
    n: usize,
    m: usize,
    p: f64,
    acquire_fence: bool,
}

impl ReliabilityModel {
    /// The canonical model: `s = p = 1/2`, filler length [`DEFAULT_M`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(model: MemoryModel, n: usize) -> ReliabilityModel {
        assert!(n >= 1, "at least one thread");
        ReliabilityModel {
            model,
            settler: Settler::for_model(model),
            n,
            m: DEFAULT_M,
            p: CANONICAL_P,
            acquire_fence: false,
        }
    }

    /// Inserts an acquire fence directly before the critical load in every
    /// generated program — the §7 mitigation. The window is then pinned at
    /// the SC size under any memory model.
    #[must_use]
    pub fn with_acquire_fence(mut self) -> ReliabilityModel {
        self.acquire_fence = true;
        self
    }

    /// Replaces the filler length `m` (builder style).
    #[must_use]
    pub fn with_filler_len(mut self, m: usize) -> ReliabilityModel {
        self.m = m;
        self
    }

    /// Replaces the store probability `p`.
    ///
    /// # Errors
    ///
    /// Returns the invalid value if `p` is not in `[0, 1]`.
    pub fn with_store_probability(mut self, p: f64) -> Result<ReliabilityModel, f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(p);
        }
        self.p = p;
        Ok(self)
    }

    /// Replaces the settler (for the generalised per-pair probabilities of
    /// footnote 3, or fence-aware settling).
    #[must_use]
    pub fn with_settler(mut self, settler: Settler) -> ReliabilityModel {
        self.settler = settler;
        self
    }

    /// The memory model.
    #[must_use]
    pub fn memory_model(&self) -> MemoryModel {
        self.model
    }

    /// The thread count `n`.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.n
    }

    /// The filler length `m`.
    #[must_use]
    pub fn filler_len(&self) -> usize {
        self.m
    }

    /// The settler in use.
    #[must_use]
    pub fn settler(&self) -> &Settler {
        &self.settler
    }

    fn generator(&self) -> ProgramGenerator {
        ProgramGenerator::new(self.m)
            .with_store_probability(self.p)
            .expect("validated probability")
    }

    /// The store probability `p` (for the cache key).
    pub(crate) fn store_prob(&self) -> f64 {
        self.p
    }

    /// Whether the §7 acquire-fence mitigation is enabled (for the cache
    /// key — fenced and unfenced runs must never share an address).
    pub(crate) fn acquire_fence(&self) -> bool {
        self.acquire_fence
    }

    /// A fresh [`TrialScratch`] sized for this configuration.
    ///
    /// Construction allocates (and draws nothing from any RNG); every trial
    /// that reuses the scratch afterwards is allocation-free. The scratch
    /// holds the [`ProgramShape`] of the shared program template
    /// (placeholder filler types, fences and critical pair in place); each
    /// trial's program is a fresh key over it.
    #[must_use]
    pub fn scratch(&self) -> TrialScratch {
        let mut template = Program::from_filler_types(&vec![OpType::Ld; self.m])
            .expect("canonical program shape is valid");
        if self.acquire_fence {
            template = template.with_acquire_before_critical();
        }
        TrialScratch::new(&template, self.n)
    }

    /// The allocation-free window kernel: draws one program key and
    /// settles `n` copies of the keyed program, returning the window
    /// lengths.
    ///
    /// The program is never materialised: the keyed γ kernel
    /// ([`Settler::sample_gammas_keyed`]) types only the fillers the
    /// windows depend on, straight from the key (`progmodel`'s
    /// program-key contract). It is draw-for-draw identical to generating
    /// the program and settling `n` copies of it — `generate` draws the
    /// same key and types every filler from it, and each settle consumes
    /// the same settle key — so seeded streams agree bit for bit between
    /// the two routes.
    pub fn sample_windows_scratch<'s, R: Rng + ?Sized>(
        &self,
        scratch: &'s mut TrialScratch,
        rng: &mut R,
    ) -> &'s [u64] {
        scratch.windows.clear();
        scratch.windows.resize(self.n, 0);
        self.sample_keyed(scratch, rng);
        for w in &mut scratch.windows {
            *w += 2;
        }
        &scratch.windows
    }

    /// Draws a program key and fills `scratch.windows` with the γ of one
    /// settle of the keyed program per slot.
    fn sample_keyed<R: Rng + ?Sized>(&self, scratch: &mut TrialScratch, rng: &mut R) {
        let generator = self.generator();
        let key = generator.draw_key(rng);
        self.settler.sample_gammas_keyed(
            &scratch.shape,
            generator.store_threshold(),
            key,
            &mut scratch.windows,
            &mut scratch.settle,
            rng,
        );
    }

    /// One end-to-end trial with caller-provided scratch: `true` when the
    /// bug does **not** manifest (all shifted windows disjoint — the event
    /// `A`). The steady-state allocation-free [`direct_trial`] of this
    /// configuration.
    pub fn simulate_survival_once_scratch<R: Rng + ?Sized>(
        &self,
        scratch: &mut TrialScratch,
        rng: &mut R,
    ) -> bool {
        direct_trial(
            &self.settler,
            &self.generator(),
            &ShiftProcess::canonical(),
            self.n,
            scratch,
            rng,
        )
    }

    /// Draws a program key and opens this model's `n` windows of the keyed
    /// program, each settled on its first read
    /// ([`Settler::keyed_windows`]).
    fn keyed_windows<'s, R: Rng + ?Sized>(
        &'s self,
        scratch: &'s mut TrialScratch,
        rng: &mut R,
    ) -> KeyedWindows<'s> {
        let generator = self.generator();
        let key = generator.draw_key(rng);
        self.settler.keyed_windows(
            &scratch.shape,
            generator.store_threshold(),
            key,
            self.n,
            &mut scratch.settle,
            rng,
        )
    }

    /// One sample of the Rao-Blackwellised factor
    /// ([`exchangeable::sample_factor`]) of a fresh window vector: the
    /// draws, windows and factor of `sample_windows_scratch` +
    /// `sample_factor` bit for bit, without settling the last window,
    /// whose weight is 0.
    pub(crate) fn rb_factor<R: Rng + ?Sized>(
        &self,
        scratch: &mut TrialScratch,
        rng: &mut R,
    ) -> f64 {
        let mut windows = self.keyed_windows(scratch, rng);
        exchangeable::sample_factor_with(self.n, 2, |i| windows.gamma(i) + 2)
    }

    /// One trial of the shared-draw Rao-Blackwellised grid: one program
    /// key and one [`Settler::keyed_windows`] over this model's `n`
    /// windows, then, for each `ns[k]`, the factor
    /// ([`exchangeable::sample_factor`]) of the first `ns[k]` windows.
    ///
    /// Given the program the windows are i.i.d., so the first `n'` of them
    /// are a valid window vector for every `n' ≤ n`. Reads are memoised:
    /// each window is settled at most once, and only the first
    /// `max(ns) − 1` are. At `ns[k] = n` the factor, the draws and the RNG
    /// end state are those of one trial of
    /// [`estimate_survival_rb_with`](ReliabilityModel::estimate_survival_rb_with)
    /// bit for bit. The factors land in a fixed array, so a trial on warm
    /// scratch allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if some `ns[k]` exceeds this model's thread count, or if
    /// `ns` has more than [`GridSample::CAPACITY`] points.
    pub fn rb_grid_factors<R: Rng + ?Sized>(
        &self,
        ns: &[usize],
        scratch: &mut TrialScratch,
        rng: &mut R,
    ) -> GridSample {
        let mut windows = self.keyed_windows(scratch, rng);
        GridSample::from_fn(ns.len(), |k| {
            let n = ns[k];
            assert!(n <= self.n, "grid point n={n} above the model's {}", self.n);
            exchangeable::sample_factor_with(n, 2, |i| windows.gamma(i) + 2)
        })
    }

    /// One trial of the shared-draw exchangeability grid: one program key,
    /// one [`Settler::keyed_windows`] over this model's `n` windows, the
    /// first `max(ns)` of them read once, then three columns per `ns[k]`,
    /// at `3k`, `3k + 1` and `3k + 2`: the exact conditional
    /// `Pr[A | Γ̄]` ([`exact::pr_disjoint`]), the Rao-Blackwellised factor
    /// ([`exchangeable::sample_factor`]) and the factor of the same
    /// windows in reverse order, all of the first `ns[k]` windows.
    ///
    /// The draws are those of one `n`-thread trial of
    /// [`estimate_survival_rb_with`](ReliabilityModel::estimate_survival_rb_with):
    /// the settle keys are drawn when the windows open, so settling the
    /// last window, which the factor never reads, draws nothing more. The
    /// windows and the reversal live in fixed arrays, so a trial on warm
    /// scratch allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if some `ns[k]` exceeds this model's thread count or
    /// [`exact::MAX_SUBSET_N`], or if `ns` has more than
    /// [`GridSample::CAPACITY`]` / 3` points.
    pub fn exchangeability_grid_sample<R: Rng + ?Sized>(
        &self,
        ns: &[usize],
        scratch: &mut TrialScratch,
        rng: &mut R,
    ) -> GridSample {
        let top = ns.iter().copied().max().unwrap_or(0);
        assert!(
            top <= self.n.min(exact::MAX_SUBSET_N),
            "grid point n={top} above the model's {} or the exact route's {}",
            self.n,
            exact::MAX_SUBSET_N
        );
        let mut lengths = [0u64; exact::MAX_SUBSET_N];
        let mut windows = self.keyed_windows(scratch, rng);
        for (i, len) in lengths[..top].iter_mut().enumerate() {
            *len = windows.gamma(i) + 2;
        }
        let mut reversed = [0u64; exact::MAX_SUBSET_N];
        GridSample::from_fn(3 * ns.len(), |c| {
            let prefix = &lengths[..ns[c / 3]];
            match c % 3 {
                0 => exact::pr_disjoint(prefix),
                1 => exchangeable::sample_factor(prefix, 2),
                _ => {
                    let back = &mut reversed[..prefix.len()];
                    back.copy_from_slice(prefix);
                    back.reverse();
                    exchangeable::sample_factor(back, 2)
                }
            }
        })
    }

    /// Direct Monte-Carlo estimate of `Pr[A]` over `trials` runs on
    /// `workers` runner threads. `workers` trades wall-clock for cores
    /// only — the runner's fixed-width chunk tiling makes the estimate
    /// independent of it. With a [`store`] installed, repeated requests are
    /// pure lookups and requests of another trial count over the same
    /// `(seed, params)` resume from the cached chunk prefix instead of
    /// restarting — bit-identical to a cold run either way.
    #[must_use]
    pub fn simulate_survival_with(
        &self,
        trials: u64,
        seed: u64,
        workers: usize,
    ) -> BernoulliEstimate {
        let runner = Runner::new(Seed(seed)).with_threads(workers);
        self.run_cached("survival", &runner, trials, |m, scratch, rng| {
            m.simulate_survival_once_scratch(scratch, rng)
        })
        .value
    }

    /// Empirical distribution of the per-thread window growth `γ = Γ − 2`
    /// on `workers` runner threads (speed only; the histogram is identical
    /// for any `workers`).
    #[must_use]
    pub fn window_histogram_with(&self, trials: u64, seed: u64, workers: usize) -> Histogram {
        let runner = Runner::new(Seed(seed)).with_threads(workers);
        self.run_cached("windows", &runner, trials, |m, scratch, rng| {
            scratch.windows.clear();
            scratch.windows.push(0);
            m.sample_keyed(scratch, rng);
            scratch.windows[0]
        })
        .value
    }
}

/// One direct trial of the joined process (§6): `true` when the bug does
/// **not** manifest, i.e. the `n` shifted windows are pairwise disjoint
/// (the event `A`).
///
/// The trial draws one program key from `generator`, the `n` settle keys
/// of the program's copies under `settler` (none when it is inert on the
/// scratch's program shape), then `shift`'s geometric shifts, stopping at
/// the first overlap. Window `i` has length `Γ_i = γ_i + 2 ≥ 2`, so two
/// shifts at most 2 apart overlap whatever the windows, and otherwise
/// only the earlier window decides: a window is settled only when the
/// shift test reads it ([`Settler::keyed_windows`],
/// [`ShiftProcess::simulate_disjoint_lazy`]). Since a settle reads nothing
/// from `rng` beyond its key, the outcome and the RNG end state are those
/// of settling every window first (`sample_gammas_keyed`, `+ 2`,
/// `simulate_disjoint_into`) bit for bit.
pub fn direct_trial<R: Rng + ?Sized>(
    settler: &Settler,
    generator: &ProgramGenerator,
    shift: &ShiftProcess,
    n: usize,
    scratch: &mut TrialScratch,
    rng: &mut R,
) -> bool {
    let key = generator.draw_key(rng);
    let mut windows = settler.keyed_windows(
        &scratch.shape,
        generator.store_threshold(),
        key,
        n,
        &mut scratch.settle,
        rng,
    );
    shift.simulate_disjoint_lazy(n, 2, |i| windows.gamma(i) + 2, &mut scratch.shift, rng)
}

/// Reusable buffers for the joined model's allocation-free kernels
/// ([`direct_trial`], [`ReliabilityModel::sample_windows_scratch`],
/// [`ReliabilityModel::simulate_survival_once_scratch`]).
///
/// One scratch serves any number of trials of one program shape. A
/// reused scratch draws exactly the same RNG sequence as a fresh one, so
/// the two are interchangeable trial-for-trial under a fixed seed.
#[derive(Debug, Clone)]
pub struct TrialScratch {
    /// The fixed part of every trial's program.
    shape: ProgramShape,
    /// Window lengths `Γ_1 … Γ_n` of the current trial.
    windows: Vec<u64>,
    settle: SettleScratch,
    shift: ShiftScratch,
}

impl TrialScratch {
    /// Buffers for trials of `n` threads whose programs have the shape of
    /// `template` (its fences, locations and critical pair; its filler
    /// types are ignored). Draws nothing from any RNG.
    ///
    /// # Panics
    ///
    /// Panics if the program is too large for the packed settling image.
    #[must_use]
    pub fn new(template: &Program, n: usize) -> TrialScratch {
        TrialScratch {
            settle: SettleScratch::with_capacity(template.len()),
            shift: ShiftScratch::with_capacity(n),
            windows: Vec::with_capacity(n),
            shape: ProgramShape::new(template),
        }
    }
}

impl fmt::Display for ReliabilityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReliabilityModel({}, n={}, m={}, p={})",
            self.model, self.n, self.m, self.p
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn builders_validate() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 2)
            .with_filler_len(16)
            .with_store_probability(0.3)
            .unwrap();
        assert_eq!(m.filler_len(), 16);
        assert_eq!(m.threads(), 2);
        assert!(ReliabilityModel::new(MemoryModel::Sc, 2)
            .with_store_probability(1.5)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ReliabilityModel::new(MemoryModel::Sc, 0);
    }

    /// The forward reference of one window vector: a materialised program
    /// and `n` settles of it.
    fn reference_windows(m: &ReliabilityModel, rng: &mut SmallRng) -> Vec<u64> {
        let mut program = m.generator().generate(rng);
        if m.acquire_fence {
            program = program.with_acquire_before_critical();
        }
        (0..m.threads())
            .map(|_| m.settler().settle(&program, rng).gamma() + 2)
            .collect()
    }

    #[test]
    fn sc_windows_are_all_two() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 4);
        let mut scratch = m.scratch();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let windows = m.sample_windows_scratch(&mut scratch, &mut rng);
            assert!(windows.iter().all(|&w| w == 2));
        }
    }

    #[test]
    fn window_vectors_have_n_entries() {
        for n in [1usize, 2, 5] {
            let m = ReliabilityModel::new(MemoryModel::Wo, n);
            let mut rng = SmallRng::seed_from_u64(1);
            assert_eq!(
                m.sample_windows_scratch(&mut m.scratch(), &mut rng).len(),
                n
            );
        }
    }

    #[test]
    fn one_thread_always_survives() {
        let m = ReliabilityModel::new(MemoryModel::Wo, 1);
        let est = m.simulate_survival_with(2_000, 3, 2);
        assert_eq!(est.point(), 1.0);
    }

    #[test]
    fn histogram_matches_gamma_support() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 2);
        let h = m.window_histogram_with(1_000, 4, 2);
        assert_eq!(h.count(0), h.total());
    }

    #[test]
    fn acquire_fence_restores_sc_behaviour() {
        // Fenced WO: windows pinned to 2, survival equals the SC constant.
        let m = ReliabilityModel::new(MemoryModel::Wo, 2).with_acquire_fence();
        let mut scratch = m.scratch();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let windows = m.sample_windows_scratch(&mut scratch, &mut rng);
            assert!(windows.iter().all(|&w| w == 2));
        }
        let est = m.simulate_survival_with(60_000, 10, 2);
        assert!(est.covers(1.0 / 6.0, 0.999), "{est}");
    }

    #[test]
    fn scratch_kernel_is_bit_for_bit_identical_to_allocating_route() {
        // A single reused scratch must produce the same outcomes as a fresh
        // scratch per trial AND leave a seeded RNG in the same state after
        // every trial — no state may leak across trials. (Parity with the
        // genuinely old allocating kernels is pinned per-layer by the settle
        // and shiftproc equivalence tests and by the golden-value tests.)
        for model in MemoryModel::NAMED {
            let m = ReliabilityModel::new(model, 3).with_filler_len(24);
            let mut scratch = m.scratch();
            let mut old_rng = SmallRng::seed_from_u64(100);
            let mut new_rng = old_rng.clone();
            for _ in 0..30 {
                let old = m.simulate_survival_once_scratch(&mut m.scratch(), &mut old_rng);
                let new = m.simulate_survival_once_scratch(&mut scratch, &mut new_rng);
                assert_eq!(old, new, "{model}: outcome diverged");
            }
            assert_eq!(old_rng, new_rng, "{model}: RNG streams diverged");
        }
    }

    #[test]
    fn sample_windows_variants_agree() {
        // The keyed kernel against the forward reference: a materialised
        // program settled n times, draw for draw.
        let m = ReliabilityModel::new(MemoryModel::Pso, 4).with_filler_len(16);
        let mut scratch = m.scratch();
        let mut r1 = SmallRng::seed_from_u64(55);
        let mut r2 = r1.clone();
        for _ in 0..20 {
            let reference = reference_windows(&m, &mut r1);
            let scratched = m.sample_windows_scratch(&mut scratch, &mut r2);
            assert_eq!(reference, scratched);
        }
        assert_eq!(r1, r2);
    }

    #[test]
    fn fenced_scratch_kernel_matches_allocating_route() {
        // The fence is baked into the scratch's program shape once; the
        // keyed kernel must keep it in place and keep draw parity with the
        // forward reference (which re-inserts it) every trial, and a reused
        // scratch must match a fresh one.
        let m = ReliabilityModel::new(MemoryModel::Wo, 2).with_acquire_fence();
        let mut scratch = m.scratch();
        let mut old_rng = SmallRng::seed_from_u64(200);
        let mut new_rng = old_rng.clone();
        for _ in 0..30 {
            let reference = reference_windows(&m, &mut old_rng);
            let windows = m.sample_windows_scratch(&mut scratch, &mut new_rng);
            assert_eq!(reference, windows);
        }
        assert_eq!(old_rng, new_rng);
        for _ in 0..30 {
            let old = m.simulate_survival_once_scratch(&mut m.scratch(), &mut old_rng);
            let new = m.simulate_survival_once_scratch(&mut scratch, &mut new_rng);
            assert_eq!(old, new);
        }
        assert_eq!(old_rng, new_rng);
    }

    #[test]
    fn canonical_two_thread_trials_settle_one_window_in_six() {
        // A window is settled only when the two shifts are more than 2
        // apart: Pr[|Δ| ≥ 3] = 2(1−q)³/(2−q) = 1/6 at q = ½.
        let trials = 100_000u32;
        for model in [MemoryModel::Tso, MemoryModel::Wo] {
            let m = ReliabilityModel::new(model, 2);
            let mut scratch = m.scratch();
            let mut rng = SmallRng::seed_from_u64(61);
            let mut settled = 0usize;
            for _ in 0..trials {
                m.simulate_survival_once_scratch(&mut scratch, &mut rng);
                let read = scratch.settle.windows_settled();
                assert!(
                    read <= 1,
                    "{model}: a two-thread trial settled {read} windows"
                );
                settled += read;
            }
            let (rate, expected) = (settled as f64 / f64::from(trials), 1.0 / 6.0);
            let sigma = (expected * (1.0 - expected) / f64::from(trials)).sqrt();
            assert!(
                (rate - expected).abs() < 5.0 * sigma,
                "{model}: {rate} settles per trial"
            );
        }
        // An inert settler settles nothing.
        let sc = ReliabilityModel::new(MemoryModel::Sc, 2);
        let mut scratch = sc.scratch();
        sc.simulate_survival_once_scratch(&mut scratch, &mut SmallRng::seed_from_u64(62));
        assert_eq!(scratch.settle.windows_settled(), 0);
    }

    #[test]
    fn rb_factor_is_the_eager_factor() {
        // Random (model, n, m): the factor must be sample_windows_scratch +
        // sample_factor's bit for bit, with the same RNG end state, while
        // the zero-weight last window is never settled.
        let mut cases = SmallRng::seed_from_u64(63);
        for _ in 0..400 {
            let model = MemoryModel::NAMED[cases.gen_range(0..4)];
            let n = cases.gen_range(1..=16);
            let m = ReliabilityModel::new(model, n).with_filler_len(cases.gen_range(0..=64));
            let (mut eager_scratch, mut lazy_scratch) = (m.scratch(), m.scratch());
            let mut eager_rng = SmallRng::seed_from_u64(cases.gen());
            let mut lazy_rng = eager_rng.clone();
            for _ in 0..25 {
                let windows = m.sample_windows_scratch(&mut eager_scratch, &mut eager_rng);
                let eager = exchangeable::sample_factor(windows, 2);
                let lazy = m.rb_factor(&mut lazy_scratch, &mut lazy_rng);
                assert_eq!(lazy.to_bits(), eager.to_bits(), "{m}");
                let settled = lazy_scratch.settle.windows_settled();
                assert!(
                    settled == n - 1 || (settled == 0 && model == MemoryModel::Sc),
                    "{m}: {settled}"
                );
            }
            assert_eq!(lazy_rng, eager_rng, "{m}: RNG streams diverged");
        }
    }

    #[test]
    fn rb_grid_factors_are_the_eager_factors_of_window_prefixes() {
        // Random (model, n, grid): column k must be sample_factor of the
        // first ns[k] windows of sample_windows_scratch bit for bit, with
        // the same RNG end state, and only the first max(ns) − 1 windows
        // settled.
        let mut cases = SmallRng::seed_from_u64(64);
        for _ in 0..300 {
            let model = MemoryModel::NAMED[cases.gen_range(0..4)];
            let n = cases.gen_range(1..=16);
            let ns: Vec<usize> = (0..cases.gen_range(1..=GridSample::CAPACITY))
                .map(|_| cases.gen_range(1..=n))
                .collect();
            let m = ReliabilityModel::new(model, n).with_filler_len(cases.gen_range(0..=64));
            let (mut eager_scratch, mut grid_scratch) = (m.scratch(), m.scratch());
            let mut eager_rng = SmallRng::seed_from_u64(cases.gen());
            let mut grid_rng = eager_rng.clone();
            for _ in 0..20 {
                let windows = m.sample_windows_scratch(&mut eager_scratch, &mut eager_rng);
                let sample = m.rb_grid_factors(&ns, &mut grid_scratch, &mut grid_rng);
                for (&k, &f) in ns.iter().zip(sample.values()) {
                    let eager = exchangeable::sample_factor(&windows[..k], 2);
                    assert_eq!(f.to_bits(), eager.to_bits(), "{m} ns={ns:?} k={k}");
                }
                let top = ns.iter().copied().max().unwrap_or(0);
                let settled = grid_scratch.settle.windows_settled();
                assert!(
                    settled == top.saturating_sub(1) || (settled == 0 && model == MemoryModel::Sc),
                    "{m} ns={ns:?}: {settled}"
                );
            }
            assert_eq!(grid_rng, eager_rng, "{m}: RNG streams diverged");
        }
    }

    #[test]
    fn exchangeability_columns_are_the_eager_columns_of_window_prefixes() {
        // Random (model, n, grid): columns 3k, 3k + 1 and 3k + 2 must be
        // pr_disjoint, sample_factor and the reversed sample_factor of the
        // first ns[k] windows of sample_windows_scratch bit for bit, with
        // the same RNG end state and the first max(ns) windows settled.
        let mut cases = SmallRng::seed_from_u64(65);
        for _ in 0..300 {
            let model = MemoryModel::NAMED[cases.gen_range(0..4)];
            let n = cases.gen_range(1..=8);
            let ns: Vec<usize> = (0..cases.gen_range(1..=GridSample::CAPACITY / 3))
                .map(|_| cases.gen_range(1..=n))
                .collect();
            let m = ReliabilityModel::new(model, n).with_filler_len(cases.gen_range(0..=64));
            let (mut eager_scratch, mut grid_scratch) = (m.scratch(), m.scratch());
            let mut eager_rng = SmallRng::seed_from_u64(cases.gen());
            let mut grid_rng = eager_rng.clone();
            for _ in 0..20 {
                let windows = m.sample_windows_scratch(&mut eager_scratch, &mut eager_rng);
                let sample = m.exchangeability_grid_sample(&ns, &mut grid_scratch, &mut grid_rng);
                for (k, &len) in ns.iter().enumerate() {
                    let prefix = &windows[..len];
                    let mut back = prefix.to_vec();
                    back.reverse();
                    let eager = [
                        exact::pr_disjoint(prefix),
                        exchangeable::sample_factor(prefix, 2),
                        exchangeable::sample_factor(&back, 2),
                    ];
                    for (c, want) in eager.iter().enumerate() {
                        let got = sample.values()[3 * k + c];
                        assert_eq!(got.to_bits(), want.to_bits(), "{m} ns={ns:?} k={k} c={c}");
                    }
                }
                let top = ns.iter().copied().max().unwrap_or(0);
                let settled = grid_scratch.settle.windows_settled();
                assert!(
                    settled == top || (settled == 0 && model == MemoryModel::Sc),
                    "{m} ns={ns:?}: {settled}"
                );
            }
            assert_eq!(grid_rng, eager_rng, "{m}: RNG streams diverged");
        }
    }

    #[test]
    fn display_summarises_config() {
        let m = ReliabilityModel::new(MemoryModel::Tso, 3);
        let s = m.to_string();
        assert!(s.contains("TSO") && s.contains("n=3"));
    }
}
