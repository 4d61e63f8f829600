//! The parallel trial runner and the accumulators it folds into.

use crate::{pool, BernoulliEstimate, Error, GridSample, Histogram, Seed, Welford, WelfordGrid};
use rand::rngs::SmallRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Trials per dynamic call of a run's batch body: large enough that the
/// indirection is noise even for sub-microsecond trials.
const BATCH: u64 = 256;

/// Width of one deterministic chunk, in trials.
///
/// Trials are tiled into fixed-width chunks of this many trials (the last
/// chunk may be shorter), and chunk `i` always covers trials
/// `[i * CHUNK_WIDTH, (i + 1) * CHUNK_WIDTH)` with an RNG stream derived
/// solely from `(seed, i)`. Because the tiling never depends on the worker
/// count, every seeded result is bit-for-bit identical for any
/// [`with_threads`](Runner::with_threads) setting. The width balances
/// scheduling granularity (enough chunks to load-balance uneven trials)
/// against per-chunk dispatch overhead.
pub const CHUNK_WIDTH: u64 = 4096;

/// What [`Runner::run`] folds trials into: a mergeable per-chunk
/// accumulator.
///
/// Each chunk records its trials, in order, into a fresh
/// `Self::default()`; chunk accumulators are then merged into the run's
/// value in ascending chunk order, so a non-associative merge (Welford's)
/// is still a pure function of the seed.
pub trait Accumulator: Default + Clone + Send + 'static {
    /// What one trial returns.
    type Item;

    /// Folds one trial's outcome in.
    fn record(&mut self, item: Self::Item);

    /// Merges the accumulator of the chunks that follow this one.
    fn merge(&mut self, later: &Self);
}

impl Accumulator for BernoulliEstimate {
    type Item = bool;

    fn record(&mut self, success: bool) {
        BernoulliEstimate::record(self, success);
    }

    fn merge(&mut self, later: &BernoulliEstimate) {
        BernoulliEstimate::merge(self, later);
    }
}

impl Accumulator for Welford {
    type Item = f64;

    fn record(&mut self, x: f64) {
        Welford::record(self, x);
    }

    fn merge(&mut self, later: &Welford) {
        Welford::merge(self, later);
    }
}

impl Accumulator for WelfordGrid {
    type Item = GridSample;

    fn record(&mut self, sample: GridSample) {
        WelfordGrid::record(self, &sample);
    }

    fn merge(&mut self, later: &WelfordGrid) {
        WelfordGrid::merge(self, later);
    }
}

impl Accumulator for Histogram {
    type Item = u64;

    fn record(&mut self, value: u64) {
        Histogram::record(self, value);
    }

    fn merge(&mut self, later: &Histogram) {
        Histogram::merge(self, later);
    }
}

/// A deterministic, parallel Monte-Carlo runner.
///
/// Trials are tiled into fixed-width chunks of [`CHUNK_WIDTH`] trials; each
/// chunk derives its own RNG stream from the master [`Seed`] and the chunk
/// index alone, workers claim chunks dynamically from a shared cursor, and
/// chunk accumulators are merged in chunk-index order. The aggregate result
/// is therefore identical for **any** thread count and any scheduling —
/// `threads` affects only speed, never results. Dispatch goes through a
/// persistent process-wide worker pool ([`pool`]), so a run costs no thread
/// spawns after warm-up.
///
/// Each chunk runs once, under `catch_unwind`. A chunk is a pure function
/// of `(seed, chunk)`, so a chunk that panics would panic again on any
/// rerun: it fails the run with [`Error::WorkerPanicked`] and a crash
/// dossier, or, under
/// [`with_degrade_on_exhaustion`](Runner::with_degrade_on_exhaustion), is
/// dropped from a run reported as degraded.
///
/// # Example
///
/// ```
/// use montecarlo::{Runner, Seed, Welford};
/// use rand::Rng;
///
/// let (report, _) = Runner::new(Seed(1))
///     .with_threads(4)
///     .run::<Welford, _>(4_000, || (), |_, rng| rng.gen_range(0.0..1.0), None)
///     .unwrap();
/// assert!((report.value.mean() - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    seed: Seed,
    threads: usize,
    degrade_on_exhaustion: bool,
}

/// The outcome of a run: the folded value plus the metadata needed to
/// interpret it honestly.
#[derive(Debug, Clone, Copy)]
pub struct RunReport<A> {
    /// The merged accumulator over all completed trials.
    pub value: A,
    /// Trials the caller asked for.
    pub trials_requested: u64,
    /// Trials that actually contributed to `value`.
    pub trials_completed: u64,
    /// True when at least one chunk panicked under a degrade-on-exhaustion
    /// policy and was dropped from the merge.
    /// `value` then aggregates only the surviving chunks — an honest
    /// partial estimate at the reduced sample size, never a silently
    /// wrong full one.
    pub degraded: bool,
    /// Chunks dropped from the merge after panicking (0 unless
    /// `degraded`).
    pub abandoned_chunks: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// Equality ignores `elapsed`: two runs of the same seeded workload are
/// "the same result" when every deterministic field matches, regardless of
/// how long the wall clock said they took. This is what lets determinism
/// tests compare whole reports across thread counts.
impl<A: PartialEq> PartialEq for RunReport<A> {
    fn eq(&self, other: &RunReport<A>) -> bool {
        self.value == other.value
            && self.trials_requested == other.trials_requested
            && self.trials_completed == other.trials_completed
            && self.degraded == other.degraded
            && self.abandoned_chunks == other.abandoned_chunks
    }
}

impl<A: Eq> Eq for RunReport<A> {}

impl<A> RunReport<A> {
    /// Effective throughput: completed trials per wall-clock second
    /// (0 when nothing ran or the clock read zero).
    #[must_use]
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.trials_completed == 0 || secs <= 0.0 {
            0.0
        } else {
            self.trials_completed as f64 / secs
        }
    }
}

/// A merged accumulator over the first `chunks` whole chunks of a seeded
/// run — the unit of work a result cache can persist and a later, larger
/// run can *resume* from instead of restarting at chunk 0.
///
/// Because chunk `i`'s trial stream is a pure function of `(seed, i)`, the
/// left-fold over chunks `[0, chunks)` is the same value in every run that
/// shares the seed and kernel, regardless of the total trial count — as
/// long as every prefix chunk was a *full* [`CHUNK_WIDTH`]-trial chunk
/// (a shorter tail chunk belongs to one specific trial count and cannot be
/// reused). [`Runner::run`] therefore only accepts, and only returns,
/// prefixes with `trials == chunks * CHUNK_WIDTH`.
///
/// Resuming re-enters the runner's ascending-chunk-order merge exactly
/// where a cold run would have been after `chunks` chunks, so even
/// non-associative float merges (Welford's) stay bit-for-bit identical to
/// a cold run — the fold is *continued*, never re-associated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPrefix<A> {
    /// Whole chunks merged into `value` (all of width [`CHUNK_WIDTH`]).
    pub chunks: u64,
    /// Trials merged into `value`; always `chunks * CHUNK_WIDTH`.
    pub trials: u64,
    /// The merged accumulator over chunks `[0, chunks)`.
    pub value: A,
}

/// Builds one per-chunk trial scratch.
type ScratchInit<S> = dyn Fn() -> S + Send + Sync;

/// Runs one bounded batch of `count` consecutive trials:
/// `(scratch, chunk rng, acc, count)`. One dynamic call covers `BATCH`
/// trials of a monomorphised per-trial loop.
type BatchFn<S, A> = dyn Fn(&mut S, &mut SmallRng, &mut A, u64) + Send + Sync;

/// What one worker chunk reports back to the coordinator.
enum ChunkOutcome<A> {
    Done(A),
    /// The chunk panicked; the payload, rendered.
    Failed(String),
    /// The chunk panicked under a degrade-on-exhaustion policy: it
    /// contributes nothing, the run continues and reports `degraded`.
    Abandoned,
    /// Not run because another chunk already failed the run.
    Skipped,
}

/// The default worker count: the machine's available parallelism (1 when
/// it cannot be queried).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Runner {
    /// A runner with the given master seed, defaulting to
    /// [`default_threads`] workers.
    #[must_use]
    pub fn new(seed: Seed) -> Runner {
        Runner {
            seed,
            threads: default_threads(),
            degrade_on_exhaustion: false,
        }
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    ///
    /// Thread count affects only wall-clock speed: results are bit-for-bit
    /// identical for any setting, because chunk tiling and per-chunk RNG
    /// streams never depend on it.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Runner {
        self.threads = threads.max(1);
        self
    }

    /// Makes a panicked chunk degrade the run instead of failing it: the
    /// chunk is dropped from the merge, the run completes, and
    /// the report carries [`degraded`](RunReport::degraded) +
    /// [`abandoned_chunks`](RunReport::abandoned_chunks) so the partial
    /// estimate is never mistaken for a full one.
    #[must_use]
    pub fn with_degrade_on_exhaustion(mut self, degrade: bool) -> Runner {
        self.degrade_on_exhaustion = degrade;
        self
    }

    /// The master seed.
    #[must_use]
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// Runs `trials` independent trials, recording each `trial` outcome
    /// into an accumulator `A`, and returns the report with the whole-chunk
    /// prefixes the run passed through.
    ///
    /// Trials are tiled into fixed-width chunks of [`CHUNK_WIDTH`]; the
    /// RNG stream consumed by trial `i` depends only on
    /// `(seed, i / CHUNK_WIDTH)`, workers claim chunks dynamically from an
    /// atomic cursor, and chunk accumulators are merged in ascending chunk
    /// index on the calling thread. Determinism therefore holds across
    /// *any* thread count, not just across runs at the same count.
    ///
    /// `scratch` builds one scratch value per chunk; `trial` receives it
    /// mutably alongside the chunk RNG. Scratch lets a hot trial kernel
    /// reuse buffers across trials (zero steady-state allocations) without
    /// giving up determinism: scratch must never leak randomness between
    /// trials in a way that changes results. Pass `|| ()` when a kernel
    /// needs none.
    ///
    /// Each chunk executes once, under `catch_unwind`; a panicking chunk
    /// fails the run (or, degrading, is abandoned).
    ///
    /// `resume` re-enters the fold after a [`ChunkPrefix`] of an earlier
    /// run with the same seed and kernel instead of at chunk 0; the result
    /// is bit-identical to the cold run it continues — same merge order.
    /// The returned prefixes (ascending) are the ones a result cache can
    /// store: powers of two from 4 chunks and the last full chunk, while
    /// no abandoned chunk has entered the merge.
    ///
    /// Every chunk from the resume point on is dispatched at once.
    ///
    /// Closures cross into the persistent worker pool, so they must be
    /// `Send + Sync + 'static` (capture owned or `Arc`-shared data, not
    /// borrows).
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanicked`] when a chunk panics and the run does not
    /// degrade.
    ///
    /// # Panics
    ///
    /// Panics if `resume` is not a whole-chunk prefix of at most `trials`
    /// trials.
    pub fn run<A, S>(
        &self,
        trials: u64,
        scratch: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> A::Item + Send + Sync + 'static,
        resume: Option<ChunkPrefix<A>>,
    ) -> Result<(RunReport<A>, Vec<ChunkPrefix<A>>), Error>
    where
        A: Accumulator,
        S: 'static,
    {
        let batch: Box<BatchFn<S, A>> = Box::new(move |scratch, rng, acc, count| {
            for _ in 0..count {
                acc.record(trial(scratch, rng));
            }
        });
        self.run_chunks(trials, Box::new(scratch), batch, resume)
    }

    /// The dispatch/merge loop behind [`run`](Runner::run), generic only
    /// in the scratch and accumulator types, so the chunk contract —
    /// tiling, unwind boundary, telemetry — is compiled once per pair.
    fn run_chunks<A: Accumulator, S: 'static>(
        &self,
        trials: u64,
        scratch_init: Box<ScratchInit<S>>,
        batch: Box<BatchFn<S, A>>,
        resume: Option<ChunkPrefix<A>>,
    ) -> Result<(RunReport<A>, Vec<ChunkPrefix<A>>), Error> {
        let started = Instant::now();
        if let Some(prefix) = &resume {
            assert_eq!(
                prefix.trials,
                prefix.chunks * CHUNK_WIDTH,
                "resume prefix must cover whole chunks"
            );
            assert!(
                prefix.trials <= trials,
                "resume prefix exceeds the requested trials"
            );
        }
        let tele = crate::telemetry::runner();
        tele.runs.inc();
        {
            let ev = obs::flight::event("run_start").n(trials);
            if resume.is_some() {
                ev.detail("resume").emit();
            } else {
                ev.emit();
            }
        }
        let (mut value, resume_chunks) = match resume {
            Some(prefix) => (prefix.value, prefix.chunks),
            None => (A::default(), 0),
        };
        let resume_trials = resume_chunks * CHUNK_WIDTH;
        let n_chunks =
            usize::try_from(trials.div_ceil(CHUNK_WIDTH)).expect("chunk count fits in usize");
        let max_full_chunks = trials / CHUNK_WIDTH;
        // Scope for this run's crash-dossier fault delta.
        let ledger_start = crate::fault::ledger().snapshot();
        // An installed chaos plan can supply a degradation policy; explicit
        // runner configuration always wins.
        let degrade = self.degrade_on_exhaustion
            || crate::fault::active().is_some_and(|p| p.degrade_on_exhaustion());
        // Set when a chunk fails the run: later claims skip their work.
        let cancel = AtomicBool::new(false);
        let mut prefixes = Vec::new();
        let mut trials_completed = resume_trials;
        let mut abandoned_chunks = 0u64;
        let base = usize::try_from(resume_chunks).expect("chunk count fits in usize");
        let runner = *self;
        let outcomes = pool::scatter(n_chunks - base, self.threads, move |i| {
            let idx = (base + i) as u64;
            if cancel.load(Ordering::Relaxed) {
                return ChunkOutcome::Skipped;
            }
            let count = CHUNK_WIDTH.min(trials - idx * CHUNK_WIDTH);
            let tele = crate::telemetry::runner();
            tele.chunks_claimed.inc();
            obs::flight::event("chunk_claimed").chunk(idx).emit();
            let chunk_started = obs::recording().then(Instant::now);
            let outcome = runner.run_chunk(idx, count, &*scratch_init, &*batch, &cancel, degrade);
            if let Some(started) = chunk_started {
                tele.chunk_wall_us
                    .record(started.elapsed().as_micros() as u64);
            }
            outcome
        });

        for (i, outcome) in outcomes.into_iter().enumerate() {
            let idx = (base + i) as u64;
            match outcome {
                ChunkOutcome::Done(acc) => {
                    let count = CHUNK_WIDTH.min(trials - idx * CHUNK_WIDTH);
                    trials_completed += count;
                    value.merge(&acc);
                    // Snapshot only while the fold is a pure whole-chunk
                    // prefix: no chunk abandoned before.
                    let chunks = idx + 1;
                    if abandoned_chunks == 0
                        && count == CHUNK_WIDTH
                        && is_prefix_snapshot(chunks, max_full_chunks)
                    {
                        prefixes.push(ChunkPrefix {
                            chunks,
                            trials: chunks * CHUNK_WIDTH,
                            value: value.clone(),
                        });
                    }
                }
                ChunkOutcome::Failed(payload) => {
                    // The failing chunk is the fault site: record it last,
                    // then freeze the timeline into a dossier.
                    obs::flight::event("chunk_failed").chunk(idx).emit();
                    crate::fault::emit_dossier(
                        "worker_panicked",
                        &crate::fault::ledger().snapshot().since(&ledger_start),
                    );
                    return Err(Error::WorkerPanicked {
                        chunk: idx,
                        seed: self.seed,
                        payload,
                    });
                }
                ChunkOutcome::Abandoned => abandoned_chunks += 1,
                // Only a failed run skips chunks, and its `Failed` outcome
                // returns above.
                ChunkOutcome::Skipped => {}
            }
        }

        let degraded = abandoned_chunks > 0;
        // Telemetry counts only trials this run actually executed; resumed
        // prefix trials were counted by the run that produced them.
        tele.trials_completed.add(trials_completed - resume_trials);
        let fate = if degraded { "degraded" } else { "ok" };
        obs::flight::event("run_end")
            .n(trials_completed)
            .detail(fate)
            .emit();
        if degraded {
            crate::fault::ledger().note_degraded_run();
            crate::fault::emit_dossier(
                fate,
                &crate::fault::ledger().snapshot().since(&ledger_start),
            );
        }
        let report = RunReport {
            value,
            trials_requested: trials,
            trials_completed,
            degraded,
            abandoned_chunks,
            elapsed: started.elapsed(),
        };
        Ok((report, prefixes))
    }

    /// Runs one chunk once, under `catch_unwind`, on whichever thread
    /// claimed it. The chunk's scratch is built before its first trial and
    /// dropped with it.
    fn run_chunk<S, A: Accumulator>(
        &self,
        idx: u64,
        count: u64,
        scratch_init: &ScratchInit<S>,
        batch: &BatchFn<S, A>,
        cancel: &AtomicBool,
        degrade: bool,
    ) -> ChunkOutcome<A> {
        let plan = crate::fault::active();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = plan.as_deref() {
                // Chaos seam: the `hard` profile panics its victims here.
                plan.perturb_chunk(idx);
            }
            let mut scratch = scratch_init();
            let mut rng = crate::task_rng(self.seed, idx);
            let mut acc = A::default();
            let mut ran = 0u64;
            while ran < count {
                let step = BATCH.min(count - ran);
                batch(&mut scratch, &mut rng, &mut acc, step);
                ran += step;
            }
            acc
        }));
        match outcome {
            Ok(acc) => ChunkOutcome::Done(acc),
            Err(_) if degrade => {
                // Graceful degradation: drop this chunk and let the rest
                // of the run produce an honest partial estimate.
                crate::telemetry::runner().chunks_abandoned.inc();
                crate::fault::ledger().note_chunk_abandoned();
                obs::flight::event("chunk_abandoned").chunk(idx).emit();
                ChunkOutcome::Abandoned
            }
            Err(payload) => {
                // Stop claiming fresh work for a run that is about to
                // fail; chunks already running finish normally.
                cancel.store(true, Ordering::Relaxed);
                ChunkOutcome::Failed(payload_to_string(&*payload))
            }
        }
    }
}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new(Seed::default())
    }
}

/// Whether a clean whole-chunk count is worth snapshotting for a result
/// cache: the last full chunk (the longest prefix any larger run can
/// extend) plus every power of two from 4 chunks, so a later, smaller
/// request of the same family resumes from the largest snapshot below it
/// instead of computing cold, at O(log chunks) stored prefixes per run.
fn is_prefix_snapshot(clean_full_chunks: u64, max_full_chunks: u64) -> bool {
    clean_full_chunks == max_full_chunks
        || (clean_full_chunks >= 4 && clean_full_chunks.is_power_of_two())
}

/// Renders a `catch_unwind` payload for error reports.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// `run` from chunk 0, keeping only the report.
    fn cold<A: Accumulator>(
        runner: Runner,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> A::Item + Send + Sync + 'static,
    ) -> Result<RunReport<A>, Error> {
        Ok(runner.run(trials, || (), move |_, rng| trial(rng), None)?.0)
    }

    /// The largest value seen (merge keeps the maximum).
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Max(u64);

    impl Accumulator for Max {
        type Item = u64;

        fn record(&mut self, x: u64) {
            self.0 = self.0.max(x);
        }

        fn merge(&mut self, later: &Max) {
            self.0 = self.0.max(later.0);
        }
    }

    #[test]
    fn chunk_tiling_covers_all_trials() {
        for trials in [
            0u64,
            1,
            CHUNK_WIDTH - 1,
            CHUNK_WIDTH,
            CHUNK_WIDTH + 1,
            3 * CHUNK_WIDTH + 17,
        ] {
            let n = trials.div_ceil(CHUNK_WIDTH);
            let covered: u64 = (0..n)
                .map(|i| CHUNK_WIDTH.min(trials - i * CHUNK_WIDTH))
                .sum();
            assert_eq!(covered, trials);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Multi-chunk workload: identical results for every thread count.
        let run = |threads| {
            cold::<BernoulliEstimate>(
                Runner::new(Seed(5)).with_threads(threads),
                3 * CHUNK_WIDTH + 999,
                |rng| rng.gen_bool(0.3),
            )
            .unwrap()
            .value
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    fn bernoulli_estimates_probability() {
        let est = cold::<BernoulliEstimate>(Runner::new(Seed(6)).with_threads(4), 100_000, |rng| {
            rng.gen_bool(0.25)
        })
        .unwrap()
        .value;
        assert!(est.covers(0.25, 0.999), "{est}");
    }

    #[test]
    fn mean_estimates_expectation() {
        let w = cold::<Welford>(Runner::new(Seed(7)).with_threads(2), 50_000, |rng| {
            f64::from(rng.gen_range(1..=6))
        })
        .unwrap()
        .value;
        assert!((w.mean() - 3.5).abs() < 0.05, "{w}");
        assert_eq!(w.count(), 50_000);
    }

    #[test]
    fn histogram_collects_all_samples() {
        let h = cold::<Histogram>(Runner::new(Seed(8)).with_threads(4), 10_000, |rng| {
            u64::from(rng.gen_range(0..4u32))
        })
        .unwrap()
        .value;
        assert_eq!(h.total(), 10_000);
        for v in 0..4 {
            assert!((h.pmf(v) - 0.25).abs() < 0.05);
        }
    }

    #[test]
    fn zero_trials_yield_empty_accumulators() {
        let est = cold::<BernoulliEstimate>(Runner::new(Seed(9)), 0, |_| true)
            .unwrap()
            .value;
        assert_eq!(est.trials(), 0);
    }

    #[test]
    fn single_thread_matches_fold_by_hand() {
        // 1000 trials fit in chunk 0, so the manual stream is task_rng(seed, 0).
        let runner = Runner::new(Seed(10)).with_threads(1);
        let est = cold::<BernoulliEstimate>(runner, 1000, |rng| rng.gen_bool(0.5))
            .unwrap()
            .value;
        let mut rng = crate::task_rng(Seed(10), 0);
        let mut manual = BernoulliEstimate::new();
        for _ in 0..1000 {
            manual.record(rng.gen_bool(0.5));
        }
        assert_eq!(est, manual);
    }

    #[test]
    fn multi_chunk_run_matches_fold_by_hand() {
        // The tiling contract made explicit: trial i draws from the stream
        // task_rng(seed, i / CHUNK_WIDTH), regardless of thread count.
        let trials = 2 * CHUNK_WIDTH + 100;
        let est = cold::<BernoulliEstimate>(Runner::new(Seed(33)).with_threads(8), trials, |rng| {
            rng.gen_bool(0.5)
        })
        .unwrap()
        .value;
        let mut manual = BernoulliEstimate::new();
        for chunk in 0..trials.div_ceil(CHUNK_WIDTH) {
            let mut rng = crate::task_rng(Seed(33), chunk);
            for _ in 0..CHUNK_WIDTH.min(trials - chunk * CHUNK_WIDTH) {
                manual.record(rng.gen_bool(0.5));
            }
        }
        assert_eq!(est, manual);
    }

    #[test]
    fn full_run_report_is_not_truncated() {
        let report =
            cold::<BernoulliEstimate>(Runner::new(Seed(11)).with_threads(2), 5_000, |rng| {
                rng.gen_bool(0.4)
            })
            .unwrap();
        assert_eq!(report.trials_requested, 5_000);
        assert_eq!(report.trials_completed, 5_000);
        assert_eq!(report.value.trials(), 5_000);
    }

    #[test]
    fn panicking_chunk_runs_once_and_fails_the_run() {
        // A chunk is a pure function of (seed, chunk): rerunning it would
        // panic again, so the runner makes one attempt. The kernel panics
        // on its 10th call; no trial runs after that.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        let runner = Runner::new(Seed(13)).with_threads(2);
        let err = cold::<BernoulliEstimate>(runner, 100, move |_| {
            let n = seen.fetch_add(1, Ordering::SeqCst);
            assert!(n != 9, "injected fault at trial {n}");
            true
        })
        .unwrap_err();
        assert_eq!(calls.load(Ordering::SeqCst), 10, "one attempt, no rerun");
        match err {
            Error::WorkerPanicked {
                chunk,
                seed,
                payload,
            } => {
                assert_eq!((chunk, seed), (0, Seed(13)));
                assert!(payload.contains("injected fault"), "{payload}");
            }
        }
    }

    #[test]
    fn degrade_on_exhaustion_completes_with_partial_result() {
        // Every chunk hard-faults; under the degradation policy the run
        // still completes, honestly reporting zero surviving trials.
        let before = crate::fault::ledger().snapshot();
        let runner = Runner::new(Seed(40))
            .with_threads(2)
            .with_degrade_on_exhaustion(true);
        let report =
            cold::<BernoulliEstimate>(runner, 2 * CHUNK_WIDTH + 7, |_| panic!("hard fault"))
                .unwrap();
        assert!(report.degraded);
        assert_eq!(report.abandoned_chunks, 3);
        assert_eq!(report.trials_completed, 0);
        assert_eq!(report.value.trials(), 0);
        let delta = crate::fault::ledger().snapshot().since(&before);
        assert!(delta.chunks_abandoned >= 3);
        assert!(delta.degraded_runs >= 1);
    }

    #[test]
    fn scratch_runner_matches_scratch_free_runner() {
        // A kernel that uses scratch purely as a reusable buffer must give
        // bit-for-bit the same estimate as the plain path.
        let runner = Runner::new(Seed(21)).with_threads(3);
        let plain = cold::<BernoulliEstimate>(runner, 9_999, |rng| {
            let v: Vec<u64> = (0..8).map(|_| rng.gen_range(0..100u64)).collect();
            v.iter().sum::<u64>() > 400
        })
        .unwrap()
        .value;
        let (scratch, _) = runner
            .run::<BernoulliEstimate, _>(
                9_999,
                || Vec::with_capacity(8),
                |buf: &mut Vec<u64>, rng| {
                    buf.clear();
                    buf.extend((0..8).map(|_| rng.gen_range(0..100u64)));
                    buf.iter().sum::<u64>() > 400
                },
                None,
            )
            .unwrap();
        assert_eq!(plain, scratch.value);
    }

    #[test]
    fn scratch_mean_and_histogram_match_plain() {
        let runner = Runner::new(Seed(22)).with_threads(2);
        let m1 = cold::<Welford>(runner, 5_000, |rng| f64::from(rng.gen_range(1..=6))).unwrap();
        let (m2, _) = runner
            .run::<Welford, _>(5_000, || (), |_, rng| f64::from(rng.gen_range(1..=6)), None)
            .unwrap();
        assert_eq!(m1.value, m2.value);
        let h1 = cold::<Histogram>(runner, 5_000, |rng| u64::from(rng.gen_range(0..4u32))).unwrap();
        let (h2, _) = runner
            .run::<Histogram, _>(
                5_000,
                || 0u64,
                |_, rng| u64::from(rng.gen_range(0..4u32)),
                None,
            )
            .unwrap();
        assert_eq!(h1.value, h2.value);
    }

    #[test]
    fn try_fold_scratch_threads_state_through_a_chunk() {
        // Scratch is per-chunk: 100 trials fit in one chunk, so a counter
        // scratch sees every trial in order.
        let (total, _) = Runner::new(Seed(24))
            .with_threads(1)
            .run::<Max, _>(
                100,
                || 0u64,
                |counter: &mut u64, _rng| {
                    *counter += 1;
                    *counter
                },
                None,
            )
            .unwrap();
        assert_eq!(total.value, Max(100));
    }

    #[test]
    fn prefix_snapshots_cover_checkpoints_and_last_full_chunk() {
        let trials = 6 * CHUNK_WIDTH + 123; // 6 full chunks, short tail
        let (report, prefixes) = Runner::new(Seed(50))
            .with_threads(3)
            .run::<BernoulliEstimate, _>(trials, || (), |_, rng| rng.gen_bool(0.4), None)
            .unwrap();
        assert_eq!(report.trials_completed, trials);
        // Snapshots at 4 (a power of two) and 6 (last full chunk).
        assert_eq!(
            prefixes.iter().map(|p| p.chunks).collect::<Vec<_>>(),
            vec![4, 6]
        );
        for p in &prefixes {
            assert_eq!(p.trials, p.chunks * CHUNK_WIDTH);
            assert_eq!(p.value.trials(), p.trials);
        }
    }

    #[test]
    fn resumed_run_is_bit_identical_to_cold() {
        let trials = 6 * CHUNK_WIDTH + 777;
        let cold = |threads| {
            Runner::new(Seed(51))
                .with_threads(threads)
                .run::<BernoulliEstimate, _>(trials, || (), |_, rng| rng.gen_bool(0.3), None)
                .unwrap()
        };
        let (cold_report, cold_prefixes) = cold(1);
        // Resume from every cold snapshot, at several thread counts: the
        // continued fold must land on the very same report.
        for threads in [1, 2, 3, 8] {
            for prefix in &cold_prefixes {
                let (warm, _) = Runner::new(Seed(51))
                    .with_threads(threads)
                    .run(trials, || (), |_, rng| rng.gen_bool(0.3), Some(*prefix))
                    .unwrap();
                assert_eq!(
                    warm, cold_report,
                    "threads {threads} chunks {}",
                    prefix.chunks
                );
            }
        }
    }

    #[test]
    fn resumed_mean_is_bit_identical_to_cold() {
        // Welford's merge is not associative, so this only holds because a
        // resume *continues* the fold rather than re-associating it.
        let trials = 5 * CHUNK_WIDTH;
        let runner = Runner::new(Seed(52)).with_threads(2);
        let (cold, prefixes) = runner
            .run::<Welford, _>(trials, || (), |_, rng| rng.gen_range(0.0..10.0), None)
            .unwrap();
        let from = prefixes.iter().find(|p| p.chunks == 4).copied().unwrap();
        let (warm, _) = runner
            .run(trials, || (), |_, rng| rng.gen_range(0.0..10.0), Some(from))
            .unwrap();
        assert_eq!(warm.value.raw_parts(), cold.value.raw_parts());
        assert_eq!(warm, cold);

        // The same continuation for a histogram, whose merge widens the
        // dense counts of the prefix it resumes.
        let (cold, prefixes) = runner
            .run::<Histogram, _>(trials, || (), |_, rng| rng.gen_range(0..40u64), None)
            .unwrap();
        let from = prefixes.iter().find(|p| p.chunks == 4).cloned().unwrap();
        let (warm, _) = runner
            .run(trials, || (), |_, rng| rng.gen_range(0..40u64), Some(from))
            .unwrap();
        assert_eq!(warm.value.dense_counts(), cold.value.dense_counts());
        assert_eq!(warm, cold);
    }

    #[test]
    fn extension_to_more_trials_matches_cold_run() {
        // A 4-chunk prefix cached from a short run extends into a longer
        // request bit-identically — the sweep/cache growth path.
        let short_trials = 4 * CHUNK_WIDTH + 9;
        let long_trials = 9 * CHUNK_WIDTH + 1234;
        let kernel = |_: &mut (), rng: &mut SmallRng| rng.gen_bool(0.25);
        let (_, prefixes) = Runner::new(Seed(53))
            .with_threads(2)
            .run::<BernoulliEstimate, _>(short_trials, || (), kernel, None)
            .unwrap();
        let from = prefixes.last().copied().unwrap();
        assert_eq!(from.chunks, 4);
        let (cold, _) = Runner::new(Seed(53))
            .with_threads(2)
            .run::<BernoulliEstimate, _>(long_trials, || (), kernel, None)
            .unwrap();
        let (warm, warm_prefixes) = Runner::new(Seed(53))
            .with_threads(2)
            .run(long_trials, || (), kernel, Some(from))
            .unwrap();
        assert_eq!(warm, cold);
        // The extension also re-emits the longer run's own snapshots past
        // the resume point (8 a power of two, 9 last-full).
        assert_eq!(
            warm_prefixes.iter().map(|p| p.chunks).collect::<Vec<_>>(),
            vec![8, 9]
        );
    }

    #[test]
    fn degraded_runs_emit_no_dirty_prefixes() {
        // An abandoned chunk ends the clean prefix: with chunk 4 of 6
        // panicking, the 4-chunk snapshot is taken and
        // the last full chunk (6) is not. The kernel recognises chunk 4 by
        // the first draw of its stream.
        let victim: u64 = crate::task_rng(Seed(55), 4).gen();
        let (report, prefixes) = Runner::new(Seed(55))
            .with_threads(2)
            .with_degrade_on_exhaustion(true)
            .run::<BernoulliEstimate, _>(
                6 * CHUNK_WIDTH,
                || true,
                move |first: &mut bool, rng| {
                    let draw: u64 = rng.gen();
                    let fails = std::mem::take(first) && draw == victim;
                    assert!(!fails, "hard fault in chunk 4");
                    draw.is_multiple_of(2)
                },
                None,
            )
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.abandoned_chunks, 1);
        assert_eq!(report.trials_completed, 5 * CHUNK_WIDTH);
        assert_eq!(
            prefixes.iter().map(|p| p.chunks).collect::<Vec<_>>(),
            vec![4]
        );
        for p in &prefixes {
            assert_eq!(p.trials, p.chunks * CHUNK_WIDTH);
            assert_eq!(p.value.trials(), p.trials);
        }
    }
}
