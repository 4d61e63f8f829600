//! Parallel trial runners.

use crate::{pool, BernoulliEstimate, Error, Histogram, Seed, Welford};
use rand::rngs::SmallRng;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trials run between cancellation/deadline checks. Large enough that the
/// per-batch atomics and `Instant::now` are noise even for sub-microsecond
/// trials, small enough that deadline overshoot stays bounded.
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
/// The runner is fault-tolerant: a panicking chunk is caught and retried
/// from its chunk seed (bounded by [`with_max_chunk_retries`]
/// (Runner::with_max_chunk_retries)), and a wall-clock deadline
/// ([`with_deadline`](Runner::with_deadline)) degrades a run to an honest
/// partial estimate instead of aborting it. The `try_*` entry points
/// surface irrecoverable failures as [`Error`]; the plain entry points
/// keep the original panicking contract.
///
/// # Example
///
/// ```
/// use montecarlo::{Runner, Seed};
/// use rand::Rng;
///
/// let mean = Runner::new(Seed(1)).with_threads(4).mean(4_000, |rng| {
///     rng.gen_range(0.0..1.0)
/// });
/// assert!((mean.mean() - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    seed: Seed,
    threads: usize,
    deadline: Option<Duration>,
    min_trials: u64,
    max_chunk_retries: u32,
    target_rse: Option<f64>,
    backoff_base: Duration,
    degrade_on_exhaustion: bool,
}

/// The outcome of a `try_*` run: the folded value plus the metadata needed
/// to interpret it honestly.
///
/// When a deadline truncates a run, `value` aggregates only the
/// `trials_completed` trials that actually ran, so downstream statistics
/// (Wilson intervals, standard errors) are automatically computed at the
/// reduced — honest, wider — sample size.
#[derive(Debug, Clone, Copy)]
pub struct RunReport<A> {
    /// The merged accumulator over all completed trials.
    pub value: A,
    /// Trials the caller asked for.
    pub trials_requested: u64,
    /// Trials that actually contributed to `value`.
    pub trials_completed: u64,
    /// True when a deadline stopped the run before `trials_requested`.
    pub truncated: bool,
    /// Number of chunk attempts that panicked and were retried.
    pub retried_chunks: u64,
    /// True when a [`with_target_rse`](Runner::with_target_rse) target was
    /// met before all requested trials ran. Early convergence is success,
    /// not truncation: the run stopped because the estimate was already
    /// precise enough.
    pub converged_early: bool,
    /// True when at least one chunk exhausted its retries under a
    /// degrade-on-exhaustion policy and was dropped from the merge.
    /// `value` then aggregates only the surviving chunks — an honest
    /// partial estimate at the reduced sample size, never a silently
    /// wrong full one.
    pub degraded: bool,
    /// Chunks dropped from the merge after exhausting retries (0 unless
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
            && self.truncated == other.truncated
            && self.retried_chunks == other.retried_chunks
            && self.converged_early == other.converged_early
            && self.degraded == other.degraded
            && self.abandoned_chunks == other.abandoned_chunks
    }
}

impl<A: Eq> Eq for RunReport<A> {}

impl<A> RunReport<A> {
    /// Unwraps the accumulator, discarding the run metadata.
    pub fn into_value(self) -> A {
        self.value
    }

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
/// reused). The `resume` entry points therefore only accept, and the
/// capture side only emits, prefixes with `trials == chunks * CHUNK_WIDTH`.
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

/// Builds one per-attempt trial scratch.
type ScratchInit<S> = dyn Fn() -> S + Send + Sync;

/// Runs one bounded batch of `count` consecutive trials:
/// `(scratch, chunk rng, acc, count)`.
type BatchFn<S, A> = dyn Fn(&mut S, &mut SmallRng, &mut A, u64) + Send + Sync;

/// Wraps a per-trial kernel and its fold into one batch body, so a
/// dyn-dispatched call covers `BATCH` trials and the indirection is
/// invisible in the hot loop.
fn trial_batch<S, T, A>(
    trial: impl Fn(&mut S, &mut SmallRng) -> T + Send + Sync + 'static,
    fold: impl Fn(&mut A, T) + Send + Sync + 'static,
) -> Arc<BatchFn<S, A>> {
    Arc::new(move |scratch, rng, acc, count| {
        for _ in 0..count {
            fold(acc, trial(scratch, rng));
        }
    })
}

/// What one worker chunk reports back to the coordinator.
enum ChunkOutcome<A> {
    Done {
        acc: A,
        ran: u64,
    },
    Failed {
        attempts: u32,
        payload: String,
    },
    /// Retries exhausted under a degrade-on-exhaustion policy: the chunk
    /// contributes nothing, the run continues and reports `degraded`.
    Abandoned,
}

/// Per-run shared control state, read by every chunk.
struct Ctl {
    start: Instant,
    completed: AtomicU64,
    cancel: AtomicBool,
    retried: AtomicU64,
    /// Set when an expired deadline had to keep running for `min_trials`.
    floor_bound: AtomicBool,
}

impl Runner {
    /// A runner with the given master seed, defaulting to the machine's
    /// available parallelism, no deadline, and 2 chunk retries.
    #[must_use]
    pub fn new(seed: Seed) -> Runner {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Runner {
            seed,
            threads,
            deadline: None,
            min_trials: 0,
            max_chunk_retries: 2,
            target_rse: None,
            backoff_base: Duration::from_micros(500),
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

    /// Sets a wall-clock budget for each run.
    ///
    /// Once the budget is spent, workers stop at the next batch boundary
    /// and the run returns a [`RunReport`] marked `truncated` with the
    /// trials completed so far — it does not abort. Combine with
    /// [`with_min_trials`](Runner::with_min_trials) to guarantee a
    /// statistical floor. Truncated runs are *not* deterministic across
    /// invocations (where they stop depends on timing); full runs are.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Runner {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a floor on completed trials that a deadline may not cut below.
    ///
    /// Workers keep running past an expired deadline until at least this
    /// many trials have completed in aggregate, so a too-tight budget
    /// degrades to "slow but valid" rather than "fast but meaningless".
    #[must_use]
    pub fn with_min_trials(mut self, min_trials: u64) -> Runner {
        self.min_trials = min_trials;
        self
    }

    /// Sets how many times a panicked chunk is re-run before the run
    /// fails with [`Error::WorkerPanicked`].
    ///
    /// A chunk's trial stream is a pure function of `(seed, chunk)`, so a
    /// retry replays exactly the trials the failed attempt would have run
    /// and the aggregate stays bit-for-bit identical to a panic-free run.
    #[must_use]
    pub fn with_max_chunk_retries(mut self, retries: u32) -> Runner {
        self.max_chunk_retries = retries;
        self
    }

    /// Stops an estimator run as soon as its relative standard error
    /// (see [`EstimatorStats::rse`](crate::EstimatorStats::rse)) reaches
    /// `rse`, instead of always burning the full trial budget.
    ///
    /// Sequential stopping is evaluated only at geometric chunk-count
    /// checkpoints (4, 8, 16, … chunks), so the stopping point is a pure
    /// function of `(seed, rse)` and rounds to whole chunks — bit-for-bit
    /// identical for any thread count, exactly like a fixed-budget run.
    /// `trials` becomes a cap: a run that converges early reports
    /// [`converged_early`](RunReport::converged_early) (not `truncated`)
    /// with the trials it actually needed.
    ///
    /// Only the estimator entry points (`try_bernoulli*`, `try_mean*` and
    /// their infallible wrappers) evaluate the target; generic folds and
    /// histograms have no scalar standard error and ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `rse` is not finite and positive.
    #[must_use]
    pub fn with_target_rse(mut self, rse: f64) -> Runner {
        assert!(rse.is_finite() && rse > 0.0, "target RSE must be positive");
        self.target_rse = Some(rse);
        self
    }

    /// Sets the base delay of the seeded exponential backoff slept before
    /// each chunk retry (default 500µs; `Duration::ZERO` disables
    /// backoff).
    ///
    /// The actual delay for attempt `a` of chunk `c` is
    /// [`fault::retry_backoff`](crate::fault::retry_backoff)`(seed, c, a,
    /// base)` — a pure function, so recovery timing is as reproducible as
    /// the results themselves.
    #[must_use]
    pub fn with_retry_backoff(mut self, base: Duration) -> Runner {
        self.backoff_base = base;
        self
    }

    /// Makes retry exhaustion degrade the run instead of failing it: the
    /// exhausted chunk is dropped from the merge, the run completes, and
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

    /// The worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wall-clock budget, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The completed-trials floor a deadline cannot cut below.
    #[must_use]
    pub fn min_trials(&self) -> u64 {
        self.min_trials
    }

    /// How many times a panicked chunk is retried.
    #[must_use]
    pub fn max_chunk_retries(&self) -> u32 {
        self.max_chunk_retries
    }

    /// The sequential-stopping RSE target, if any.
    #[must_use]
    pub fn target_rse(&self) -> Option<f64> {
        self.target_rse
    }

    /// The base delay of the seeded retry backoff.
    #[must_use]
    pub fn retry_backoff_base(&self) -> Duration {
        self.backoff_base
    }

    /// Whether retry exhaustion degrades the run instead of failing it.
    #[must_use]
    pub fn degrade_on_exhaustion(&self) -> bool {
        self.degrade_on_exhaustion
    }

    /// Runs `trials` independent trials with per-chunk scratch state,
    /// folding each chunk with `fold` from `init` and merging chunk
    /// results with `merge`.
    ///
    /// This is the primitive every runner in this crate is built on.
    /// Trials are tiled into fixed-width chunks of [`CHUNK_WIDTH`]; the
    /// RNG stream consumed by trial `i` depends only on
    /// `(seed, i / CHUNK_WIDTH)`, workers claim chunks dynamically from an
    /// atomic cursor, and chunk accumulators are merged in ascending chunk
    /// index on the calling thread. Determinism therefore holds across
    /// *any* thread count, not just across runs at the same count.
    ///
    /// `scratch_init` builds one scratch value per chunk attempt; `trial`
    /// receives it mutably alongside the chunk RNG. Scratch lets a hot
    /// trial kernel reuse buffers across trials (zero steady-state
    /// allocations) without giving up determinism: scratch must never leak
    /// randomness between trials in a way that changes results, and a
    /// retried chunk is re-run with a *fresh* scratch from `scratch_init`,
    /// so a panic-free replay is bit-for-bit identical.
    ///
    /// Each chunk executes under `catch_unwind`; a panicking chunk is
    /// rebuilt from `init()` + `scratch_init()` and replayed from its
    /// chunk seed up to [`max_chunk_retries`](Runner::max_chunk_retries)
    /// times before the whole run fails.
    ///
    /// Closures cross into the persistent worker pool, so they must be
    /// `Send + Sync + 'static` (capture owned or `Arc`-shared data, not
    /// borrows); `merge` runs only on the calling thread and is exempt.
    ///
    /// # Errors
    ///
    /// [`Error::WorkerPanicked`] when a chunk panics on every attempt;
    /// [`Error::MinTrialsExceedRequested`] when the configured floor can
    /// never be met.
    pub fn try_fold_scratch<S, T, A>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
    ) -> Result<RunReport<A>, Error>
    where
        S: 'static,
        A: Send + 'static,
    {
        self.try_fold_scratch_stop(trials, scratch_init, init, trial, fold, merge, |_| false)
    }

    /// [`try_fold_scratch`](Runner::try_fold_scratch) with a sequential
    /// stopping predicate, the primitive behind
    /// [`with_target_rse`](Runner::with_target_rse).
    ///
    /// Without an RSE target every chunk is dispatched in one wave and
    /// `stop` is never consulted — the behaviour (and the merged result)
    /// is identical to the plain fold. With a target, chunks are
    /// dispatched in geometrically growing waves (up to 4, 8, 16, …
    /// chunks done) and `stop` is evaluated on the merged prefix at each
    /// wave boundary; a `true` verdict ends the run with
    /// [`converged_early`](RunReport::converged_early) set. Because waves
    /// are a pure function of the chunk count and merging stays in chunk
    /// order, the stopping point cannot depend on thread scheduling.
    #[allow(clippy::too_many_arguments)]
    fn try_fold_scratch_stop<S, T, A>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
        stop: impl Fn(&A) -> bool,
    ) -> Result<RunReport<A>, Error>
    where
        S: 'static,
        A: Send + 'static,
    {
        self.try_run_stop(
            trials,
            Arc::new(scratch_init),
            Arc::new(init),
            trial_batch(trial, fold),
            merge,
            stop,
            None,
            |_, _| {},
        )
    }

    /// [`try_fold_scratch_stop`](Runner::try_fold_scratch_stop) extended
    /// with the cache seam: the run may `resume` from a stored
    /// [`ChunkPrefix`] instead of chunk 0, and every cache-worthy prefix it
    /// passes through is cloned into the returned snapshot list (ascending
    /// chunk counts; empty when nothing clean completed).
    #[allow(clippy::too_many_arguments)]
    fn try_fold_scratch_resume_stop<S, T, A>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
        stop: impl Fn(&A) -> bool,
        resume: Option<ChunkPrefix<A>>,
    ) -> Result<(RunReport<A>, Vec<ChunkPrefix<A>>), Error>
    where
        S: 'static,
        A: Send + Clone + 'static,
    {
        let mut snapshots = Vec::new();
        let report = self.try_run_stop(
            trials,
            Arc::new(scratch_init),
            Arc::new(init),
            trial_batch(trial, fold),
            merge,
            stop,
            resume,
            |chunks, value: &A| {
                snapshots.push(ChunkPrefix {
                    chunks,
                    trials: chunks * CHUNK_WIDTH,
                    value: value.clone(),
                });
            },
        )?;
        Ok((report, snapshots))
    }

    /// The wave/merge/stop loop every entry point funnels into, so the
    /// chunk contract — tiling, retry, canary, deadline, telemetry — is
    /// written once.
    ///
    /// `resume` re-enters the fold after its prefix instead of at chunk 0;
    /// `observe` is called (on the calling thread, in chunk order) with the
    /// merged value each time a cache-worthy whole-chunk prefix completes —
    /// at the geometric stop checkpoints (4, 8, 16, … chunks, the exact
    /// states a `with_target_rse` run evaluates its predicate on) and at
    /// the last full chunk — but only while the fold is clean: no short,
    /// cancelled, or abandoned chunk has entered the merge yet.
    #[allow(clippy::too_many_arguments)]
    fn try_run_stop<S, A>(
        &self,
        trials: u64,
        scratch_init: Arc<ScratchInit<S>>,
        init: Arc<dyn Fn() -> A + Send + Sync>,
        batch: Arc<BatchFn<S, A>>,
        merge: impl Fn(&mut A, A),
        stop: impl Fn(&A) -> bool,
        resume: Option<ChunkPrefix<A>>,
        mut observe: impl FnMut(u64, &A),
    ) -> Result<RunReport<A>, Error>
    where
        S: 'static,
        A: Send + 'static,
    {
        if self.min_trials > trials {
            return Err(Error::MinTrialsExceedRequested {
                min_trials: self.min_trials,
                requested: trials,
            });
        }
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
        let resume_trials = resume.as_ref().map_or(0, |p| p.trials);
        let resume_chunks = resume.as_ref().map_or(0, |p| p.chunks);
        let n_chunks =
            usize::try_from(trials.div_ceil(CHUNK_WIDTH)).expect("chunk count fits in usize");
        let max_full_chunks = trials / CHUNK_WIDTH;
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
        // Scope for this run's crash-dossier fault delta.
        let ledger_start = crate::fault::ledger().snapshot();
        // An installed chaos plan can supply a degradation policy; explicit
        // runner configuration always wins.
        let degrade = self.degrade_on_exhaustion
            || crate::fault::active().is_some_and(|p| p.degrade_on_exhaustion());
        let ctl = Arc::new(Ctl {
            start: Instant::now(),
            // Resumed trials count toward the min-trials floor: they are
            // real, merged samples.
            completed: AtomicU64::new(resume_trials),
            cancel: AtomicBool::new(false),
            retried: AtomicU64::new(0),
            floor_bound: AtomicBool::new(false),
        });
        let mut value = match resume {
            Some(prefix) => prefix.value,
            None => init(),
        };
        let mut trials_completed = resume_trials;
        let mut converged_early = false;
        let mut abandoned_chunks = 0u64;
        let mut done_chunks = usize::try_from(resume_chunks).expect("chunk count fits in usize");
        // Whole chunks merged with no short/cancelled/abandoned chunk
        // before them — the longest still-extendable prefix of the fold.
        let mut clean_full_chunks = resume_chunks;
        let mut fold_clean = true;
        while done_chunks < n_chunks {
            let until = match self.target_rse {
                None => n_chunks,
                Some(_) => checkpoint_after(done_chunks).min(n_chunks),
            };
            let base = done_chunks;
            let runner = *self;
            let job_ctl = Arc::clone(&ctl);
            let (scr, ini, bat) = (
                Arc::clone(&scratch_init),
                Arc::clone(&init),
                Arc::clone(&batch),
            );
            let outcomes = pool::scatter(until - base, self.threads, move |i| {
                let idx = (base + i) as u64;
                let count = CHUNK_WIDTH.min(trials - idx * CHUNK_WIDTH);
                if job_ctl.cancel.load(Ordering::Relaxed) {
                    // Deadline already hit (or the run already failed):
                    // contribute an empty chunk instead of wasted work.
                    return ChunkOutcome::Done { acc: ini(), ran: 0 };
                }
                let tele = crate::telemetry::runner();
                tele.chunks_claimed.inc();
                obs::flight::event("chunk_claimed").chunk(idx).emit();
                let chunk_started = obs::recording().then(Instant::now);
                let outcome = runner.run_chunk(idx, count, &*scr, &*ini, &*bat, &job_ctl, degrade);
                if let Some(started) = chunk_started {
                    tele.chunk_wall_us
                        .record(started.elapsed().as_micros() as u64);
                }
                outcome
            });

            for (i, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    ChunkOutcome::Done { acc, ran } => {
                        trials_completed += ran;
                        merge(&mut value, acc);
                        let idx = (base + i) as u64;
                        let full = CHUNK_WIDTH.min(trials - idx * CHUNK_WIDTH);
                        if ran != full {
                            // Cancelled/deadline-cut chunk: everything past
                            // it is no longer a pure whole-chunk prefix.
                            fold_clean = false;
                        } else if fold_clean && full == CHUNK_WIDTH {
                            clean_full_chunks += 1;
                            if is_prefix_snapshot(clean_full_chunks, max_full_chunks) {
                                observe(clean_full_chunks, &value);
                            }
                        }
                    }
                    ChunkOutcome::Failed { attempts, payload } => {
                        let chunk = (base + i) as u64;
                        // The failing chunk is the fault site: record it
                        // last, then freeze the timeline into a dossier.
                        obs::flight::event("chunk_failed")
                            .chunk(chunk)
                            .attempt(attempts)
                            .emit();
                        emit_dossier("worker_panicked", &ledger_start);
                        return Err(Error::WorkerPanicked {
                            chunk,
                            seed: self.seed,
                            attempts,
                            payload,
                        });
                    }
                    ChunkOutcome::Abandoned => {
                        abandoned_chunks += 1;
                        fold_clean = false;
                    }
                }
            }
            done_chunks = until;
            if self.target_rse.is_some() && done_chunks < n_chunks && stop(&value) {
                converged_early = true;
                break;
            }
        }

        // A shortfall caused purely by abandoned chunks is degradation,
        // not deadline truncation; a run can be both when a deadline also
        // fired.
        let degraded = abandoned_chunks > 0;
        let truncated = trials_completed + abandoned_chunks * CHUNK_WIDTH < trials
            && !converged_early
            && ctl.cancel.load(Ordering::Relaxed);
        // Telemetry counts only trials this run actually executed; resumed
        // prefix trials were counted by the run that produced them.
        tele.trials_completed.add(trials_completed - resume_trials);
        if truncated {
            tele.deadline_truncations.inc();
        }
        if degraded {
            crate::fault::ledger().note_degraded_run();
        }
        if ctl.floor_bound.load(Ordering::Relaxed) {
            tele.min_trials_floor_hits.inc();
        }
        if self.target_rse.is_some() {
            let conv = crate::telemetry::converge();
            if converged_early {
                conv.early_stops.inc();
            }
            conv.extra_chunks
                .add(done_chunks.saturating_sub(checkpoint_after(0).min(n_chunks)) as u64);
        }
        let fate = match (degraded, truncated) {
            (false, false) => "ok",
            (true, false) => "degraded",
            (false, true) => "truncated",
            (true, true) => "degraded+truncated",
        };
        obs::flight::event("run_end")
            .n(trials_completed)
            .detail(fate)
            .emit();
        if degraded || truncated {
            emit_dossier(fate, &ledger_start);
        }
        Ok(RunReport {
            value,
            trials_requested: trials,
            trials_completed,
            truncated,
            retried_chunks: ctl.retried.load(Ordering::Relaxed),
            converged_early,
            degraded,
            abandoned_chunks,
            elapsed: ctl.start.elapsed(),
        })
    }

    /// One chunk's retry loop; runs on whichever thread claimed the chunk.
    ///
    /// Scratch lifetime: one scratch value per *attempt*, built before the
    /// first trial of the attempt and dropped with it — a retry never sees
    /// a prior attempt's (possibly mid-trial, possibly poisoned) scratch.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk<S, A>(
        &self,
        idx: u64,
        count: u64,
        scratch_init: &ScratchInit<S>,
        init: &(dyn Fn() -> A + Send + Sync),
        batch: &BatchFn<S, A>,
        ctl: &Ctl,
        degrade: bool,
    ) -> ChunkOutcome<A> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Re-fetched per attempt so a plan installed or cleared
            // mid-run is picked up at the next unwind boundary.
            let plan = crate::fault::active();
            // Trials this attempt has added to the global counter, kept
            // outside the unwind boundary so a panic can roll them back.
            let counted = Cell::new(0u64);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = plan.as_deref() {
                    // Chaos seam: may panic the attempt, which recovers
                    // through the retry path below.
                    plan.perturb_chunk(idx, attempt);
                }
                let mut scratch = scratch_init();
                let mut rng = crate::task_rng(self.seed, idx);
                let mut acc = init();
                let mut ran = 0u64;
                while ran < count {
                    if ctl.cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    let step = BATCH.min(count - ran);
                    batch(&mut scratch, &mut rng, &mut acc, step);
                    ran += step;
                    counted.set(counted.get() + step);
                    let total = ctl.completed.fetch_add(step, Ordering::Relaxed) + step;
                    if let Some(limit) = self.deadline {
                        if ctl.start.elapsed() >= limit {
                            if total >= self.min_trials {
                                ctl.cancel.store(true, Ordering::Relaxed);
                                break;
                            }
                            // Deadline expired but the statistical floor
                            // has not been met yet: keep going, remember
                            // the floor was what kept this run alive.
                            ctl.floor_bound.store(true, Ordering::Relaxed);
                        }
                    }
                }
                // Scratch-integrity canary: a pure hash of (seed, chunk),
                // recomputed here and compared against its expected value.
                // Corruption (injected below, or any future real scratch
                // checksum) panics the attempt into the ordinary
                // rollback-and-retry path — never into the merge.
                let expected = crate::fault::chunk_canary(self.seed, idx);
                let mut guard = expected;
                if let Some(plan) = plan.as_deref() {
                    if plan.corrupts_scratch(idx, attempt) {
                        crate::fault::ledger().note_injected_corruption();
                        obs::flight::event("fault_fired")
                            .chunk(idx)
                            .attempt(attempt)
                            .detail("corruption")
                            .emit();
                        guard ^= 0xDEAD_BEEF_DEAD_BEEF;
                    }
                }
                assert!(
                    guard == expected,
                    "chunk {idx}: scratch integrity checksum mismatch (corruption detected)"
                );
                (acc, ran)
            }));
            match outcome {
                Ok((acc, ran)) => return ChunkOutcome::Done { acc, ran },
                Err(payload) => {
                    // Roll back this attempt's contribution so neither a
                    // retry nor the final report double-counts trials.
                    ctl.completed.fetch_sub(counted.get(), Ordering::Relaxed);
                    if attempt > self.max_chunk_retries {
                        if degrade {
                            // Graceful degradation: drop this chunk and
                            // let the rest of the run produce an honest
                            // partial estimate.
                            crate::telemetry::runner().chunks_abandoned.inc();
                            crate::fault::ledger().note_chunk_abandoned();
                            obs::flight::event("chunk_abandoned")
                                .chunk(idx)
                                .attempt(attempt)
                                .emit();
                            return ChunkOutcome::Abandoned;
                        }
                        // Stop claiming fresh work for a run that is about
                        // to fail; chunks already running finish normally.
                        ctl.cancel.store(true, Ordering::Relaxed);
                        return ChunkOutcome::Failed {
                            attempts: attempt,
                            payload: payload_to_string(&*payload),
                        };
                    }
                    ctl.retried.fetch_add(1, Ordering::Relaxed);
                    crate::telemetry::runner().chunks_retried.inc();
                    crate::fault::ledger().note_chunk_retry();
                    obs::flight::event("chunk_retried")
                        .chunk(idx)
                        .attempt(attempt + 1)
                        .emit();
                    // Seeded exponential backoff with deterministic jitter
                    // before replaying the chunk.
                    let delay =
                        crate::fault::retry_backoff(self.seed, idx, attempt, self.backoff_base);
                    if !delay.is_zero() {
                        crate::telemetry::runner()
                            .backoff_us
                            .record(delay.as_micros() as u64);
                        obs::flight::event("backoff_slept")
                            .chunk(idx)
                            .attempt(attempt + 1)
                            .n(delay.as_micros() as u64)
                            .emit();
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Scratch-free [`try_fold_scratch`](Runner::try_fold_scratch): each
    /// trial sees only the chunk RNG.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_fold<T, A>(
        &self,
        trials: u64,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
    ) -> Result<RunReport<A>, Error>
    where
        A: Send + 'static,
    {
        self.try_fold_scratch(trials, || (), init, move |_, rng| trial(rng), fold, merge)
    }

    /// Estimates a probability from a scratch-carrying trial kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_bernoulli_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> bool + Send + Sync + 'static,
    ) -> Result<RunReport<BernoulliEstimate>, Error>
    where
        S: 'static,
    {
        // NaN RSE (empty or all-failure prefix) compares false: a
        // degenerate estimate is never "converged".
        let target = self.target_rse.unwrap_or(0.0);
        self.try_fold_scratch_stop(
            trials,
            scratch_init,
            BernoulliEstimate::new,
            trial,
            |acc, hit| acc.record(hit),
            |a, b| a.merge(&b),
            wave_stop(target),
        )
    }

    /// Estimates a mean from a scratch-carrying trial kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_mean_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> f64 + Send + Sync + 'static,
    ) -> Result<RunReport<Welford>, Error>
    where
        S: 'static,
    {
        let target = self.target_rse.unwrap_or(0.0);
        self.try_fold_scratch_stop(
            trials,
            scratch_init,
            Welford::new,
            trial,
            |acc, x| acc.record(x),
            |a, b| a.merge(&b),
            wave_stop(target),
        )
    }

    /// Builds an empirical histogram from a scratch-carrying trial kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_histogram_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> u64 + Send + Sync + 'static,
    ) -> Result<RunReport<Histogram>, Error>
    where
        S: 'static,
    {
        self.try_fold_scratch(
            trials,
            scratch_init,
            Histogram::new,
            trial,
            |acc, v| acc.record(v),
            |a, b| a.merge(&b),
        )
    }

    /// [`try_bernoulli_scratch`](Runner::try_bernoulli_scratch) with the
    /// cache seam: optionally `resume` from a stored [`ChunkPrefix`] and
    /// return the cache-worthy prefixes this run passed through alongside
    /// the report. A resumed run is bit-identical to the cold run it
    /// continues — same merge order, same stop checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_bernoulli_scratch_resume<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> bool + Send + Sync + 'static,
        resume: Option<ChunkPrefix<BernoulliEstimate>>,
    ) -> Result<
        (
            RunReport<BernoulliEstimate>,
            Vec<ChunkPrefix<BernoulliEstimate>>,
        ),
        Error,
    >
    where
        S: 'static,
    {
        let target = self.target_rse.unwrap_or(0.0);
        self.try_fold_scratch_resume_stop(
            trials,
            scratch_init,
            BernoulliEstimate::new,
            trial,
            |acc, hit| acc.record(hit),
            |a, b| a.merge(&b),
            wave_stop(target),
            resume,
        )
    }

    /// [`try_mean_scratch`](Runner::try_mean_scratch) with the cache seam;
    /// see [`try_bernoulli_scratch_resume`]
    /// (Runner::try_bernoulli_scratch_resume).
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_mean_scratch_resume<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> f64 + Send + Sync + 'static,
        resume: Option<ChunkPrefix<Welford>>,
    ) -> Result<(RunReport<Welford>, Vec<ChunkPrefix<Welford>>), Error>
    where
        S: 'static,
    {
        let target = self.target_rse.unwrap_or(0.0);
        self.try_fold_scratch_resume_stop(
            trials,
            scratch_init,
            Welford::new,
            trial,
            |acc, x| acc.record(x),
            |a, b| a.merge(&b),
            wave_stop(target),
            resume,
        )
    }

    /// [`try_histogram_scratch`](Runner::try_histogram_scratch) with the
    /// cache seam; see [`try_bernoulli_scratch_resume`]
    /// (Runner::try_bernoulli_scratch_resume).
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold_scratch`](Runner::try_fold_scratch)'s errors.
    pub fn try_histogram_scratch_resume<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> u64 + Send + Sync + 'static,
        resume: Option<ChunkPrefix<Histogram>>,
    ) -> Result<(RunReport<Histogram>, Vec<ChunkPrefix<Histogram>>), Error>
    where
        S: 'static,
    {
        self.try_fold_scratch_resume_stop(
            trials,
            scratch_init,
            Histogram::new,
            trial,
            |acc, v| acc.record(v),
            |a, b| a.merge(&b),
            |_| false,
            resume,
        )
    }

    /// Estimates a probability: `trial` returns whether the event
    /// occurred. See [`try_fold`](Runner::try_fold) for the error and
    /// truncation contract.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold`](Runner::try_fold)'s errors.
    pub fn try_bernoulli(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> bool + Send + Sync + 'static,
    ) -> Result<RunReport<BernoulliEstimate>, Error> {
        self.try_bernoulli_scratch(trials, || (), move |_, rng| trial(rng))
    }

    /// Estimates a mean: `trial` returns one observation.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold`](Runner::try_fold)'s errors.
    pub fn try_mean(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> f64 + Send + Sync + 'static,
    ) -> Result<RunReport<Welford>, Error> {
        self.try_mean_scratch(trials, || (), move |_, rng| trial(rng))
    }

    /// Builds an empirical histogram: `trial` returns one integer sample.
    ///
    /// # Errors
    ///
    /// Propagates [`try_fold`](Runner::try_fold)'s errors.
    pub fn try_histogram(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> u64 + Send + Sync + 'static,
    ) -> Result<RunReport<Histogram>, Error> {
        self.try_fold(
            trials,
            Histogram::new,
            trial,
            |acc, v| acc.record(v),
            |a, b| a.merge(&b),
        )
    }

    /// Infallible [`try_fold`](Runner::try_fold): panics if a chunk fails
    /// every retry, matching the crate's original contract.
    pub fn fold<T, A>(
        &self,
        trials: u64,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
    ) -> A
    where
        A: Send + 'static,
    {
        match self.try_fold(trials, init, trial, fold, merge) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Infallible [`try_fold_scratch`](Runner::try_fold_scratch): panics if
    /// a chunk fails every retry.
    pub fn fold_scratch<S, T, A>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        init: impl Fn() -> A + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> T + Send + Sync + 'static,
        fold: impl Fn(&mut A, T) + Send + Sync + 'static,
        merge: impl Fn(&mut A, A),
    ) -> A
    where
        S: 'static,
        A: Send + 'static,
    {
        match self.try_fold_scratch(trials, scratch_init, init, trial, fold, merge) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Estimates a probability from a scratch-carrying trial kernel.
    pub fn bernoulli_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> bool + Send + Sync + 'static,
    ) -> BernoulliEstimate
    where
        S: 'static,
    {
        match self.try_bernoulli_scratch(trials, scratch_init, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Estimates a mean from a scratch-carrying trial kernel.
    pub fn mean_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> f64 + Send + Sync + 'static,
    ) -> Welford
    where
        S: 'static,
    {
        match self.try_mean_scratch(trials, scratch_init, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Builds an empirical histogram from a scratch-carrying trial kernel.
    pub fn histogram_scratch<S>(
        &self,
        trials: u64,
        scratch_init: impl Fn() -> S + Send + Sync + 'static,
        trial: impl Fn(&mut S, &mut SmallRng) -> u64 + Send + Sync + 'static,
    ) -> Histogram
    where
        S: 'static,
    {
        match self.try_histogram_scratch(trials, scratch_init, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Estimates a probability: `trial` returns whether the event occurred.
    pub fn bernoulli(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> bool + Send + Sync + 'static,
    ) -> BernoulliEstimate {
        match self.try_bernoulli(trials, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Estimates a mean: `trial` returns one observation.
    pub fn mean(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> f64 + Send + Sync + 'static,
    ) -> Welford {
        match self.try_mean(trials, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }

    /// Builds an empirical histogram: `trial` returns one integer sample.
    pub fn histogram(
        &self,
        trials: u64,
        trial: impl Fn(&mut SmallRng) -> u64 + Send + Sync + 'static,
    ) -> Histogram {
        match self.try_histogram(trials, trial) {
            Ok(report) => report.value,
            Err(e) => panic!("monte-carlo worker panicked: {e}"),
        }
    }
}

impl Default for Runner {
    fn default() -> Runner {
        Runner::new(Seed::default())
    }
}

/// Geometric sequential-stopping checkpoints: 4 chunks, then doubling
/// (8, 16, 32, …). Checking convergence only at these chunk counts keeps
/// the stopping point a pure function of the merged prefix — and amortizes
/// the wave barrier to O(log chunks) synchronizations.
///
/// Returns the smallest checkpoint strictly greater than `done_chunks`.
/// On a cold run `done_chunks` is always a prior checkpoint, so this is
/// the plain doubling schedule; on a cache-resumed run `done_chunks` may
/// land between checkpoints (say 48) and the next evaluation (64) still
/// falls exactly where the cold run's would, keeping warm and cold
/// stopping decisions aligned.
fn checkpoint_after(done_chunks: usize) -> usize {
    let mut c = 4;
    while c <= done_chunks {
        c = c.saturating_mul(2);
    }
    c
}

/// Whether a clean whole-chunk count is worth snapshotting for a result
/// cache: the geometric stop checkpoints (so a warm `with_target_rse` run
/// can replay the exact cold stopping decision) plus the last full chunk
/// (the longest prefix any larger run can extend).
fn is_prefix_snapshot(clean_full_chunks: u64, max_full_chunks: u64) -> bool {
    clean_full_chunks == max_full_chunks
        || (clean_full_chunks >= 4 && clean_full_chunks.is_power_of_two())
}

/// Wraps a sequential-stopping RSE target as the runner's stop
/// predicate: computes the statistic once, records the wave decision in
/// the flight recorder, and returns whether the target was met. NaN RSE
/// (degenerate estimate) compares false — never "converged". The telemetry
/// side effect is strictly out-of-band: the returned decision is a pure
/// function of the merged accumulator.
fn wave_stop<A: crate::EstimatorStats>(target: f64) -> impl Fn(&A) -> bool {
    move |acc| {
        let rse = crate::EstimatorStats::rse(acc);
        let converged = rse <= target;
        obs::flight::event("wave_decided")
            .n(crate::EstimatorStats::count(acc))
            .value(rse)
            .detail(if converged { "converged" } else { "continue" })
            .emit();
        converged
    }
}

/// Writes a crash dossier scoped to this run's fault-ledger delta. Any
/// I/O failure is reported to stderr and swallowed — a dossier must
/// never take down the run it documents.
fn emit_dossier(reason: &str, ledger_start: &crate::fault::LedgerSnapshot) {
    let delta = crate::fault::ledger().snapshot().since(ledger_start);
    let request = obs::flight::current_request();
    match obs::flight::write_dossier(reason, request.as_deref(), &delta.named_fields()) {
        Ok(Some(_)) => crate::telemetry::dossiers().inc(),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write crash dossier ({reason}): {e}"),
    }
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
    use crate::fault::{FaultInjector, FaultMode};
    use rand::Rng;

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
            Runner::new(Seed(5))
                .with_threads(threads)
                .bernoulli(3 * CHUNK_WIDTH + 999, |rng| rng.gen_bool(0.3))
        };
        let base = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    fn bernoulli_estimates_probability() {
        let est = Runner::new(Seed(6))
            .with_threads(4)
            .bernoulli(100_000, |rng| rng.gen_bool(0.25));
        assert!(est.covers(0.25, 0.999), "{est}");
    }

    #[test]
    fn mean_estimates_expectation() {
        let w = Runner::new(Seed(7))
            .with_threads(2)
            .mean(50_000, |rng| f64::from(rng.gen_range(1..=6)));
        assert!((w.mean() - 3.5).abs() < 0.05, "{w}");
        assert_eq!(w.count(), 50_000);
    }

    #[test]
    fn histogram_collects_all_samples() {
        let h = Runner::new(Seed(8))
            .with_threads(4)
            .histogram(10_000, |rng| u64::from(rng.gen_range(0..4u32)));
        assert_eq!(h.total(), 10_000);
        for v in 0..4 {
            assert!((h.pmf(v) - 0.25).abs() < 0.05);
        }
    }

    #[test]
    fn zero_trials_yield_empty_accumulators() {
        let est = Runner::new(Seed(9)).bernoulli(0, |_| true);
        assert_eq!(est.trials(), 0);
    }

    #[test]
    fn single_thread_matches_fold_by_hand() {
        // 1000 trials fit in chunk 0, so the manual stream is task_rng(seed, 0).
        let runner = Runner::new(Seed(10)).with_threads(1);
        let est = runner.bernoulli(1000, |rng| rng.gen_bool(0.5));
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
        let est = Runner::new(Seed(33))
            .with_threads(8)
            .bernoulli(trials, |rng| rng.gen_bool(0.5));
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
        let report = Runner::new(Seed(11))
            .with_threads(2)
            .try_bernoulli(5_000, |rng| rng.gen_bool(0.4))
            .unwrap();
        assert_eq!(report.trials_requested, 5_000);
        assert_eq!(report.trials_completed, 5_000);
        assert!(!report.truncated);
        assert_eq!(report.retried_chunks, 0);
        assert_eq!(report.value.trials(), 5_000);
    }

    #[test]
    fn injected_panic_recovers_bit_for_bit() {
        let runner = Runner::new(Seed(12)).with_threads(3);
        let clean = runner
            .try_bernoulli(9_000, |rng| rng.gen_bool(0.3))
            .unwrap();

        let inj = Arc::new(FaultInjector::new(FaultMode::PanicOnce { trial: 4_321 }));
        let seen = Arc::clone(&inj);
        let faulty = runner
            .try_bernoulli(9_000, move |rng| {
                seen.perturb();
                rng.gen_bool(0.3)
            })
            .unwrap();

        assert!(inj.has_fired());
        assert_eq!(faulty.retried_chunks, 1);
        assert_eq!(faulty.trials_completed, 9_000);
        assert!(!faulty.truncated);
        // The retried chunk replays its exact trial stream, so the merged
        // estimate is identical to the panic-free run.
        assert_eq!(faulty.value, clean.value);
    }

    #[test]
    fn persistent_panic_exhausts_retries() {
        let runner = Runner::new(Seed(13))
            .with_threads(2)
            .with_max_chunk_retries(1);
        let inj = Arc::new(FaultInjector::new(FaultMode::PanicAlways));
        let seen = Arc::clone(&inj);
        let err = runner
            .try_bernoulli(100, move |rng| {
                seen.perturb();
                rng.gen_bool(0.5)
            })
            .unwrap_err();
        match err {
            Error::WorkerPanicked {
                seed,
                attempts,
                payload,
                ..
            } => {
                assert_eq!(seed, Seed(13));
                assert_eq!(attempts, 2, "1 initial + 1 retry");
                assert!(payload.contains("injected fault"), "{payload}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn degrade_on_exhaustion_completes_with_partial_result() {
        // Every chunk hard-faults; under the degradation policy the run
        // still completes, honestly reporting zero surviving trials.
        let before = crate::fault::ledger().snapshot();
        let report = Runner::new(Seed(40))
            .with_threads(2)
            .with_max_chunk_retries(1)
            .with_retry_backoff(Duration::ZERO)
            .with_degrade_on_exhaustion(true)
            .try_bernoulli(2 * CHUNK_WIDTH + 7, |_| panic!("hard fault"))
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.abandoned_chunks, 3);
        assert_eq!(report.trials_completed, 0);
        assert!(!report.truncated, "degradation is not deadline truncation");
        assert_eq!(report.value.trials(), 0);
        let delta = crate::fault::ledger().snapshot().since(&before);
        assert!(delta.chunks_abandoned >= 3);
        assert!(delta.degraded_runs >= 1);
    }

    #[test]
    fn infallible_entry_point_still_panics_on_exhaustion() {
        let result = std::panic::catch_unwind(|| {
            Runner::new(Seed(14))
                .with_threads(1)
                .with_max_chunk_retries(0)
                .bernoulli(10, |_| panic!("hard fault"))
        });
        let msg = payload_to_string(&*result.unwrap_err());
        assert!(msg.contains("monte-carlo worker panicked"), "{msg}");
        assert!(msg.contains("hard fault"), "{msg}");
    }

    #[test]
    fn deadline_truncates_instead_of_aborting() {
        // Trials sleep, so the requested count can never finish inside
        // the budget; the run must degrade, not hang or crash.
        let report = Runner::new(Seed(15))
            .with_threads(2)
            .with_deadline(Duration::from_millis(30))
            .try_bernoulli(1_000_000, |rng| {
                std::thread::sleep(Duration::from_micros(50));
                rng.gen_bool(0.5)
            })
            .unwrap();
        assert!(report.truncated);
        assert!(report.trials_completed < 1_000_000);
        assert_eq!(report.value.trials(), report.trials_completed);
        // The truncated estimate still carries a valid (wider) CI.
        let (lo, hi) = report.value.wilson_ci(0.99);
        assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0);
    }

    #[test]
    fn min_trials_floor_survives_expired_deadline() {
        let report = Runner::new(Seed(16))
            .with_threads(2)
            .with_deadline(Duration::ZERO)
            .with_min_trials(3_000)
            .try_bernoulli(100_000, |rng| rng.gen_bool(0.5))
            .unwrap();
        assert!(
            report.trials_completed >= 3_000,
            "{}",
            report.trials_completed
        );
        assert!(report.trials_completed <= 100_000);
    }

    #[test]
    fn min_trials_above_requested_is_rejected() {
        let err = Runner::new(Seed(17))
            .with_min_trials(200)
            .try_bernoulli(100, |_| true)
            .unwrap_err();
        assert_eq!(
            err,
            Error::MinTrialsExceedRequested {
                min_trials: 200,
                requested: 100
            }
        );
    }

    #[test]
    fn scratch_runner_matches_scratch_free_runner() {
        // A kernel that uses scratch purely as a reusable buffer must give
        // bit-for-bit the same estimate as the plain path.
        let runner = Runner::new(Seed(21)).with_threads(3);
        let plain = runner.bernoulli(9_999, |rng| {
            let v: Vec<u64> = (0..8).map(|_| rng.gen_range(0..100u64)).collect();
            v.iter().sum::<u64>() > 400
        });
        let scratch = runner.bernoulli_scratch(
            9_999,
            || Vec::with_capacity(8),
            |buf: &mut Vec<u64>, rng| {
                buf.clear();
                buf.extend((0..8).map(|_| rng.gen_range(0..100u64)));
                buf.iter().sum::<u64>() > 400
            },
        );
        assert_eq!(plain, scratch);
    }

    #[test]
    fn scratch_mean_and_histogram_match_plain() {
        let runner = Runner::new(Seed(22)).with_threads(2);
        let m1 = runner.mean(5_000, |rng| f64::from(rng.gen_range(1..=6)));
        let m2 = runner.mean_scratch(5_000, || (), |_, rng| f64::from(rng.gen_range(1..=6)));
        assert_eq!(m1, m2);
        let h1 = runner.histogram(5_000, |rng| u64::from(rng.gen_range(0..4u32)));
        let h2 =
            runner.histogram_scratch(5_000, || 0u64, |_, rng| u64::from(rng.gen_range(0..4u32)));
        assert_eq!(h1, h2);
    }

    #[test]
    fn retried_chunk_reinitializes_scratch() {
        // The kernel poisons its scratch right before panicking; recovery is
        // only bit-for-bit if the retry starts from a fresh scratch.
        let runner = Runner::new(Seed(23)).with_threads(3);
        let clean = runner
            .try_bernoulli_scratch(
                9_000,
                || 0u64,
                |carry: &mut u64, rng| {
                    let hit = rng.gen_bool(0.3) ^ (*carry & 1 == 1);
                    *carry = carry.wrapping_add(u64::from(hit));
                    hit
                },
            )
            .unwrap();

        let inj = Arc::new(FaultInjector::new(FaultMode::PanicOnce { trial: 4_321 }));
        let seen = Arc::clone(&inj);
        let faulty = runner
            .try_bernoulli_scratch(
                9_000,
                || 0u64,
                move |carry: &mut u64, rng| {
                    let hit = rng.gen_bool(0.3) ^ (*carry & 1 == 1);
                    *carry = carry.wrapping_add(u64::from(hit));
                    // Poison scratch, then maybe panic: a retry that reused
                    // this scratch would diverge from the clean run.
                    *carry = carry.wrapping_add(1_000_000);
                    seen.perturb();
                    *carry = carry.wrapping_sub(1_000_000);
                    hit
                },
            )
            .unwrap();
        assert!(inj.has_fired());
        assert_eq!(faulty.retried_chunks, 1);
        assert_eq!(faulty.value, clean.value);
    }

    #[test]
    fn try_fold_scratch_threads_state_through_a_chunk() {
        // Scratch is per-chunk: 100 trials fit in one chunk, so a counter
        // scratch sees every trial in order.
        let total = Runner::new(Seed(24)).with_threads(1).fold_scratch(
            100,
            || 0u64,
            || 0u64,
            |counter: &mut u64, _rng| {
                *counter += 1;
                *counter
            },
            |acc, seen| *acc = (*acc).max(seen),
            |a, b| *a = (*a).max(b),
        );
        assert_eq!(total, 100);
    }

    #[test]
    fn checkpoint_schedule_is_doubling_from_any_count() {
        assert_eq!(checkpoint_after(0), 4);
        assert_eq!(checkpoint_after(3), 4);
        assert_eq!(checkpoint_after(4), 8);
        assert_eq!(checkpoint_after(8), 16);
        // A resumed count between checkpoints lands on the cold schedule.
        assert_eq!(checkpoint_after(48), 64);
        assert_eq!(checkpoint_after(5), 8);
    }

    #[test]
    fn prefix_snapshots_cover_checkpoints_and_last_full_chunk() {
        let trials = 6 * CHUNK_WIDTH + 123; // 6 full chunks, short tail
        let (report, prefixes) = Runner::new(Seed(50))
            .with_threads(3)
            .try_bernoulli_scratch_resume(trials, || (), |_, rng| rng.gen_bool(0.4), None)
            .unwrap();
        assert_eq!(report.trials_completed, trials);
        // Snapshots at 4 (geometric) and 6 (last full chunk).
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
                .try_bernoulli_scratch_resume(trials, || (), |_, rng| rng.gen_bool(0.3), None)
                .unwrap()
        };
        let (cold_report, cold_prefixes) = cold(1);
        // Resume from every cold snapshot, at several thread counts: the
        // continued fold must land on the very same report.
        for threads in [1, 2, 3, 8] {
            for prefix in &cold_prefixes {
                let (warm, _) = Runner::new(Seed(51))
                    .with_threads(threads)
                    .try_bernoulli_scratch_resume(
                        trials,
                        || (),
                        |_, rng| rng.gen_bool(0.3),
                        Some(*prefix),
                    )
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
            .try_mean_scratch_resume(trials, || (), |_, rng| rng.gen_range(0.0..10.0), None)
            .unwrap();
        let from = prefixes.iter().find(|p| p.chunks == 4).copied().unwrap();
        let (warm, _) = runner
            .try_mean_scratch_resume(trials, || (), |_, rng| rng.gen_range(0.0..10.0), Some(from))
            .unwrap();
        assert_eq!(warm.value.raw_parts(), cold.value.raw_parts());
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
            .try_bernoulli_scratch_resume(short_trials, || (), kernel, None)
            .unwrap();
        let from = prefixes.last().copied().unwrap();
        assert_eq!(from.chunks, 4);
        let (cold, _) = Runner::new(Seed(53))
            .with_threads(2)
            .try_bernoulli_scratch_resume(long_trials, || (), kernel, None)
            .unwrap();
        let (warm, warm_prefixes) = Runner::new(Seed(53))
            .with_threads(2)
            .try_bernoulli_scratch_resume(long_trials, || (), kernel, Some(from))
            .unwrap();
        assert_eq!(warm, cold);
        // The extension also re-emits the longer run's own snapshots past
        // the resume point (8 geometric, 9 last-full).
        assert_eq!(
            warm_prefixes.iter().map(|p| p.chunks).collect::<Vec<_>>(),
            vec![8, 9]
        );
    }

    #[test]
    fn resume_with_target_rse_matches_cold_stop() {
        // Generous target: the cold run stops at the first checkpoint (4
        // chunks). Resuming below it must reproduce the same stop.
        let trials = 40 * CHUNK_WIDTH;
        let kernel = |_: &mut (), rng: &mut SmallRng| rng.gen_bool(0.5);
        let runner = Runner::new(Seed(54)).with_threads(2).with_target_rse(0.05);
        let (cold, cold_prefixes) = runner
            .try_bernoulli_scratch_resume(trials, || (), kernel, None)
            .unwrap();
        assert!(cold.converged_early);
        let converged_at = cold.trials_completed / CHUNK_WIDTH;
        assert!(cold_prefixes.iter().any(|p| p.chunks == converged_at));
        // A warm run resumed from a pre-convergence prefix must converge at
        // the same checkpoint with the same value.
        let short = ChunkPrefix {
            chunks: 0,
            trials: 0,
            value: BernoulliEstimate::new(),
        };
        let (warm, _) = runner
            .try_bernoulli_scratch_resume(trials, || (), kernel, Some(short))
            .unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn truncated_runs_emit_no_dirty_prefixes() {
        // Deadline-cut chunks end the clean prefix: anything snapshotted
        // must still be a pure whole-chunk fold.
        let (report, prefixes) = Runner::new(Seed(55))
            .with_threads(2)
            .with_deadline(Duration::from_millis(5))
            .try_bernoulli_scratch_resume(
                1_000_000_000,
                || (),
                |_, rng| {
                    std::thread::sleep(Duration::from_micros(2));
                    rng.gen_bool(0.5)
                },
                None,
            )
            .unwrap();
        assert!(report.truncated);
        for p in &prefixes {
            assert_eq!(p.trials, p.chunks * CHUNK_WIDTH);
            assert_eq!(p.value.trials(), p.trials);
        }
    }

    #[test]
    fn stalled_trial_delays_but_does_not_kill_the_run() {
        let inj = Arc::new(FaultInjector::new(FaultMode::StallOnce {
            trial: 10,
            stall: Duration::from_millis(20),
        }));
        let seen = Arc::clone(&inj);
        let report = Runner::new(Seed(18))
            .with_threads(2)
            .with_deadline(Duration::from_millis(5))
            .try_bernoulli(10_000_000, move |rng| {
                seen.perturb();
                rng.gen_bool(0.5)
            })
            .unwrap();
        assert!(report.truncated);
        assert!(report.trials_completed > 0);
    }
}
