//! The cache seam: canonical request keys for the joined kernels and the
//! lookup/extend/compute orchestration around the runner.
//!
//! Every Monte-Carlo entry point in this crate funnels its runner call
//! through [`ReliabilityModel::run_cached`]. With no store installed
//! ([`store::active`] is `None`) the seam is a passthrough. With a store
//! installed:
//!
//! * an exact request-key **hit** reconstructs the finished
//!   [`RunReport`] without running a single trial — bit-identical to the
//!   cold run by the runner's determinism contract;
//! * a family **extension** resumes the fold from the largest usable
//!   cached whole-chunk prefix, and for `with_target_rse` requests
//!   replays the cold run's geometric stop schedule (checkpoints 4, 8,
//!   16, … chunks) over cached prefixes first — converging without
//!   compute when a cached prefix already satisfies the target;
//! * a **miss** computes cold; clean results are inserted with the
//!   whole-chunk prefix snapshots the run passed through, so the next
//!   larger request extends instead of restarting.
//!
//! Correctness of the RSE replay hinges on evaluating *exactly* the
//! states the cold run would: geometric checkpoints strictly below the
//! request's chunk count, in ascending order, with no gaps. A missing
//! checkpoint ends the replay — the run resumes from the last evaluated
//! prefix, which re-enters the engine's wave schedule at the same
//! boundary a cold run would reach with the same merged value.

use crate::{ReliabilityModel, TrialScratch};
use montecarlo::{Accumulator, ChunkPrefix, Error, RunReport, Runner, CHUNK_WIDTH};
use rand::rngs::SmallRng;
use std::time::Duration;
use store::{CacheableAcc, CachedPrefix, CachedReport, Lookup, RequestKey};

impl ReliabilityModel {
    /// The canonical cache key of one runner request against this model:
    /// kernel version + result kind, the settler's reorder matrix and
    /// probabilities, program shape, seed and chunk width.
    pub(crate) fn request_key(&self, kind: &str, runner: &Runner, trials: u64) -> RequestKey {
        use memmodel::OpType::{Ld, St};
        let settler = self.settler();
        let probs = settler.probs();
        store::KeySpec {
            kernel: format!("{}/{kind}", store::KERNEL_VERSION),
            matrix: settler.matrix().to_string(),
            threads_n: self.threads() as u64,
            filler_m: self.filler_len() as u64,
            p_bits: self.store_prob().to_bits(),
            // Table-1 pair order: ST/ST, ST/LD, LD/ST, LD/LD.
            settle_bits: [
                probs.raw(St, St).to_bits(),
                probs.raw(St, Ld).to_bits(),
                probs.raw(Ld, St).to_bits(),
                probs.raw(Ld, Ld).to_bits(),
            ],
            fence_pass_bits: settler.fence_pass_probability().to_bits(),
            acquire_fence: self.acquire_fence(),
            seed: runner.seed().0,
            chunk_width: CHUNK_WIDTH,
        }
        .request(trials, runner.target_rse())
    }

    /// Runs `trial` on this model's [`TrialScratch`] under `runner`,
    /// through the cache seam ([`cached_run`]) under the request kind
    /// `kind`, and credits the model's telemetry.
    pub(crate) fn run_cached<A: Accumulator + CacheableAcc>(
        &self,
        kind: &str,
        runner: &Runner,
        trials: u64,
        trial: impl Fn(&ReliabilityModel, &mut TrialScratch, &mut SmallRng) -> A::Item
            + Send
            + Sync
            + 'static,
    ) -> RunReport<A> {
        let this = *self;
        let r = *runner;
        let key = self.request_key(kind, runner, trials);
        cached_run(&key, runner, trials, move |resume| {
            crate::telemetry::timed_run(this.memory_model(), trials, move || {
                r.run(
                    trials,
                    move || this.scratch(),
                    move |scratch, rng| trial(&this, scratch, rng),
                    resume,
                )
            })
        })
    }
}

/// How an extension lookup resolves.
enum Extension<A> {
    /// A cached prefix already finishes the request (converged, or the
    /// full run); serve it with the prefixes worth re-associating.
    Finished(RunReport<A>, Vec<CachedPrefix>),
    /// Resume the fold from this prefix.
    Resume(ChunkPrefix<A>),
    /// Nothing safely usable; compute cold.
    Cold,
}

/// Replays the cold run's decision schedule over cached prefixes.
fn plan_extension<A: Accumulator + CacheableAcc>(
    runner: &Runner,
    trials: u64,
    prefixes: &[CachedPrefix],
) -> Extension<A> {
    let n_chunks = trials.div_ceil(CHUNK_WIDTH);
    let max_full = trials / CHUNK_WIDTH;
    let full_report = |value: A, completed: u64, converged: bool| RunReport {
        value,
        trials_requested: trials,
        trials_completed: completed,
        converged_early: converged,
        degraded: false,
        abandoned_chunks: 0,
        elapsed: Duration::ZERO,
    };
    let Some(target) = runner.target_rse() else {
        // Fixed-trials request: one wave, no stop evaluations — any
        // clean prefix is resumable; take the largest.
        return match prefixes
            .iter()
            .rev()
            .find(|p| p.chunks <= max_full)
            .and_then(CachedPrefix::to_prefix::<A>)
        {
            Some(p) => Extension::Resume(p),
            None => Extension::Cold,
        };
    };
    // Sequential-stopping request: evaluate the geometric checkpoints
    // (4, 8, 16, … chunks) strictly below n_chunks, ascending, gap-free
    // — exactly the states the cold engine evaluates its predicate on.
    let mut resume: Option<ChunkPrefix<A>> = None;
    let mut g = 4u64;
    while g < n_chunks {
        let Some(p) = prefixes.iter().find(|p| p.chunks == g) else {
            break;
        };
        let Some(decoded) = p.to_prefix::<A>() else {
            return Extension::Cold;
        };
        // An accumulator without a stop statistic never stops early: the
        // replay has nothing to decide.
        let Some(rse) = decoded.value.stop_rse() else {
            break;
        };
        // Mirror the cold engine's `wave_decided` events so a warm replay
        // leaves the same payload trace in the flight log as the run it
        // stands in for.
        obs::flight::event("wave_decided")
            .n(decoded.trials)
            .value(rse)
            .detail(if rse <= target {
                "converged"
            } else {
                "continue"
            })
            .emit();
        if rse <= target {
            let keep: Vec<CachedPrefix> =
                prefixes.iter().filter(|q| q.chunks <= g).cloned().collect();
            let completed = decoded.trials;
            return Extension::Finished(full_report(decoded.value, completed, true), keep);
        }
        resume = Some(decoded);
        g = g.saturating_mul(2);
    }
    if g >= n_chunks && trials.is_multiple_of(CHUNK_WIDTH) {
        // Every checkpoint evaluated and none converged: the cold run
        // completes all trials. A cached full-run prefix IS that result.
        if let Some(full) = prefixes
            .iter()
            .find(|p| p.chunks == max_full)
            .and_then(CachedPrefix::to_prefix::<A>)
        {
            let keep = prefixes.to_vec();
            return Extension::Finished(full_report(full.value, full.trials, false), keep);
        }
    }
    match resume {
        Some(p) => Extension::Resume(p),
        None => Extension::Cold,
    }
}

/// Runs one request through the installed store (if any): exact hits are
/// pure lookups, family prefixes extend the fold, and clean results are
/// inserted with their prefix snapshots on the way out.
///
/// `run` executes the request's [`Runner::run`], optionally resuming from
/// a prefix; a warm `with_target_rse` replay decides on the same
/// [`Accumulator::stop_rse`] the runner stops on.
fn cached_run<A: Accumulator + CacheableAcc>(
    key: &RequestKey,
    runner: &Runner,
    trials: u64,
    run: impl FnOnce(Option<ChunkPrefix<A>>) -> Result<(RunReport<A>, Vec<ChunkPrefix<A>>), Error>,
) -> RunReport<A> {
    let canon = key.canon();
    obs::flight::event("request").detail(&canon).emit();
    obs::flight::set_current_request(Some(canon.as_str()));
    let finish = |result: Result<(RunReport<A>, Vec<ChunkPrefix<A>>), Error>| match result {
        Ok(pair) => pair,
        Err(e) => panic!("monte-carlo worker panicked: {e}"),
    };
    let Some(cache) = store::active() else {
        return finish(run(None)).0;
    };
    let resume = match cache.lookup(key) {
        Lookup::Hit(entry) => match entry.report.to_report::<A>() {
            Some(report) => return report,
            // Accumulator-kind mismatch (corrupt or foreign record):
            // recompute; the insert below repairs the entry.
            None => None,
        },
        Lookup::Extend(prefixes) => match plan_extension(runner, trials, &prefixes) {
            Extension::Finished(report, keep) => {
                if let Some(cached) = CachedReport::from_report(&report) {
                    cache.insert(key, cached, keep);
                }
                return report;
            }
            Extension::Resume(prefix) => Some(prefix),
            Extension::Cold => None,
        },
        Lookup::Miss => None,
    };
    let (report, snapshots) = finish(run(resume));
    if let Some(cached) = CachedReport::from_report(&report) {
        let prefixes: Vec<CachedPrefix> = snapshots.iter().map(CachedPrefix::from_prefix).collect();
        cache.insert(key, cached, prefixes);
    }
    report
}
