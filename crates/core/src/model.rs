//! The joined model configuration and its samplers.

use memmodel::{MemoryModel, OpType, CANONICAL_P};
use montecarlo::{BernoulliEstimate, Histogram, RunReport, Runner, Seed};
use progmodel::{Program, ProgramGenerator};
use rand::Rng;
use settle::{ProgramShape, SettleScratch, Settler};
use shiftproc::{exchangeable, ShiftProcess, ShiftScratch};
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

    /// Samples one window-length vector `Γ_1 … Γ_n`: one random program,
    /// `n` independent settles (§6: "we generate a single initial random
    /// program, then independently reorder n copies of this program").
    pub fn sample_windows<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n);
        self.sample_windows_into(&mut out, rng);
        out
    }

    /// [`sample_windows`](ReliabilityModel::sample_windows) into a
    /// caller-provided buffer (cleared and refilled). Draw-for-draw
    /// identical to `sample_windows`; the program itself is still drawn
    /// fresh — use
    /// [`sample_windows_scratch`](ReliabilityModel::sample_windows_scratch)
    /// for the fully allocation-free kernel.
    pub fn sample_windows_into<R: Rng + ?Sized>(&self, out: &mut Vec<u64>, rng: &mut R) {
        let mut program = self.generator().generate(rng);
        if self.acquire_fence {
            program = program.with_acquire_before_critical();
        }
        let mut settle = SettleScratch::with_capacity(program.len());
        out.clear();
        for _ in 0..self.n {
            out.push(
                self.settler
                    .sample_gamma_scratch(&program, &mut settle, rng)
                    + 2,
            );
        }
    }

    /// The allocation-free window kernel: draws one program key and
    /// settles `n` copies of the keyed program, returning the window
    /// lengths.
    ///
    /// The program is never materialised: the keyed γ kernel
    /// ([`Settler::sample_gammas_keyed`]) types only the fillers the
    /// windows depend on, straight from the key (`progmodel`'s
    /// program-key contract). It is draw-for-draw identical to
    /// [`sample_windows`](ReliabilityModel::sample_windows) — `generate`
    /// draws the same key and types every filler from it, and each settle
    /// consumes the same settle key — so seeded streams agree bit for bit
    /// between the two routes.
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

    /// Simulates one end-to-end trial: `true` when the bug does **not**
    /// manifest (all shifted windows disjoint — the event `A`).
    pub fn simulate_survival_once<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let mut scratch = self.scratch();
        self.simulate_survival_once_scratch(&mut scratch, rng)
    }

    /// [`simulate_survival_once`](ReliabilityModel::simulate_survival_once)
    /// with caller-provided scratch: the steady-state allocation-free
    /// [`direct_trial`] of this configuration, draw-for-draw identical to
    /// the allocating route.
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
        let generator = self.generator();
        let key = generator.draw_key(rng);
        let mut windows = self.settler.keyed_windows(
            &scratch.shape,
            generator.store_threshold(),
            key,
            self.n,
            &mut scratch.settle,
            rng,
        );
        exchangeable::sample_factor_with(self.n, 2, |i| windows.gamma(i) + 2)
    }

    /// Direct Monte-Carlo estimate of `Pr[A]` over `trials` runs, using
    /// the machine's available parallelism. The estimate is bit-for-bit
    /// identical for any worker count (see
    /// [`simulate_survival_with`](ReliabilityModel::simulate_survival_with)).
    #[must_use]
    pub fn simulate_survival(&self, trials: u64, seed: u64) -> BernoulliEstimate {
        self.simulate_survival_runner(&Runner::new(Seed(seed)), trials)
            .value
    }

    /// [`simulate_survival`](ReliabilityModel::simulate_survival) with an
    /// explicit runner worker count. `workers` trades wall-clock for cores
    /// only — the runner's fixed-width chunk tiling makes the estimate
    /// independent of it.
    #[must_use]
    pub fn simulate_survival_with(
        &self,
        trials: u64,
        seed: u64,
        workers: usize,
    ) -> BernoulliEstimate {
        self.simulate_survival_runner(&Runner::new(Seed(seed)).with_threads(workers), trials)
            .value
    }

    /// Runs the survival estimate under an arbitrary pre-configured
    /// [`Runner`] (worker count, stopping target, retry policy), returning
    /// the full [`RunReport`]. This is the cache-aware entry point: with a
    /// [`store`] installed, repeated requests are pure lookups and
    /// larger-trial or [`with_target_rse`](Runner::with_target_rse)
    /// requests over the same `(seed, params)` resume from the cached
    /// chunk prefix instead of restarting — bit-identical to a cold run
    /// either way.
    #[must_use]
    pub fn simulate_survival_runner(
        &self,
        runner: &Runner,
        trials: u64,
    ) -> RunReport<BernoulliEstimate> {
        self.run_cached("survival", runner, trials, |m, scratch, rng| {
            m.simulate_survival_once_scratch(scratch, rng)
        })
    }

    /// Empirical distribution of the per-thread window growth `γ = Γ − 2`,
    /// using the machine's available parallelism.
    #[must_use]
    pub fn window_histogram(&self, trials: u64, seed: u64) -> Histogram {
        self.window_histogram_runner(&Runner::new(Seed(seed)), trials)
    }

    /// [`window_histogram`](ReliabilityModel::window_histogram) with an
    /// explicit runner worker count (speed only; the histogram is identical
    /// for any `workers`).
    #[must_use]
    pub fn window_histogram_with(&self, trials: u64, seed: u64, workers: usize) -> Histogram {
        self.window_histogram_runner(&Runner::new(Seed(seed)).with_threads(workers), trials)
    }

    fn window_histogram_runner(&self, runner: &Runner, trials: u64) -> Histogram {
        self.run_cached("windows", runner, trials, |m, scratch, rng| {
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
/// One scratch serves any number of trials of one program shape. The
/// scratch-accepting kernels draw exactly the same RNG sequence as their
/// allocating counterparts, so the two routes are interchangeable
/// trial-for-trial under a fixed seed.
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

    #[test]
    fn sc_windows_are_all_two() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            assert!(m.sample_windows(&mut rng).iter().all(|&w| w == 2));
        }
    }

    #[test]
    fn window_vectors_have_n_entries() {
        for n in [1usize, 2, 5] {
            let m = ReliabilityModel::new(MemoryModel::Wo, n);
            let mut rng = SmallRng::seed_from_u64(1);
            assert_eq!(m.sample_windows(&mut rng).len(), n);
        }
    }

    #[test]
    fn one_thread_always_survives() {
        let m = ReliabilityModel::new(MemoryModel::Wo, 1);
        let est = m.simulate_survival(2_000, 3);
        assert_eq!(est.point(), 1.0);
    }

    #[test]
    fn histogram_matches_gamma_support() {
        let m = ReliabilityModel::new(MemoryModel::Sc, 2);
        let h = m.window_histogram(1_000, 4);
        assert_eq!(h.count(0), h.total());
    }

    #[test]
    fn acquire_fence_restores_sc_behaviour() {
        // Fenced WO: windows pinned to 2, survival equals the SC constant.
        let m = ReliabilityModel::new(MemoryModel::Wo, 2).with_acquire_fence();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            assert!(m.sample_windows(&mut rng).iter().all(|&w| w == 2));
        }
        let est = m.simulate_survival(60_000, 10);
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
                let old = m.simulate_survival_once(&mut old_rng);
                let new = m.simulate_survival_once_scratch(&mut scratch, &mut new_rng);
                assert_eq!(old, new, "{model}: outcome diverged");
            }
            assert_eq!(old_rng, new_rng, "{model}: RNG streams diverged");
        }
    }

    #[test]
    fn sample_windows_variants_agree() {
        let m = ReliabilityModel::new(MemoryModel::Pso, 4).with_filler_len(16);
        let mut scratch = m.scratch();
        let mut buf = Vec::new();
        let mut r1 = SmallRng::seed_from_u64(55);
        let mut r2 = r1.clone();
        let mut r3 = r1.clone();
        for _ in 0..20 {
            let owned = m.sample_windows(&mut r1);
            m.sample_windows_into(&mut buf, &mut r2);
            let scratched = m.sample_windows_scratch(&mut scratch, &mut r3);
            assert_eq!(owned, buf);
            assert_eq!(owned, scratched);
        }
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn fenced_scratch_kernel_matches_allocating_route() {
        // The fence is baked into the scratch's program shape once; the
        // keyed kernel must keep it in place and keep draw parity with the
        // allocating route (which re-inserts it) every trial.
        let m = ReliabilityModel::new(MemoryModel::Wo, 2).with_acquire_fence();
        let mut scratch = m.scratch();
        let mut old_rng = SmallRng::seed_from_u64(200);
        let mut new_rng = old_rng.clone();
        for _ in 0..30 {
            let old = m.simulate_survival_once(&mut old_rng);
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
    fn display_summarises_config() {
        let m = ReliabilityModel::new(MemoryModel::Tso, 3);
        let s = m.to_string();
        assert!(s.contains("TSO") && s.contains("n=3"));
    }
}
