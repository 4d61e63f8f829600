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
//! * a family **extension** resumes the fold from the largest cached
//!   whole-chunk prefix that fits in the request (`chunks <= trials /
//!   CHUNK_WIDTH`, as [`store::Store::lookup`] filters them),
//!   bit-identical to the cold run it continues;
//! * a **miss** computes cold; clean results are inserted with the
//!   whole-chunk prefix snapshots the run passed through, so the next
//!   request of the same family extends instead of restarting.

use crate::{ReliabilityModel, TrialScratch};
use montecarlo::{Accumulator, ChunkPrefix, Error, RunReport, Runner, CHUNK_WIDTH};
use rand::rngs::SmallRng;
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
        .request(trials)
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
        cached_run(&key, move |resume| {
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

/// Runs one request through the installed store (if any): exact hits are
/// pure lookups, family prefixes extend the fold, and clean results are
/// inserted with their prefix snapshots on the way out.
///
/// `run` executes the request's [`Runner::run`], optionally resuming from
/// a prefix.
fn cached_run<A: Accumulator + CacheableAcc>(
    key: &RequestKey,
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
        // The store lists only the prefixes the request's whole chunks
        // cover, ascending: resume from the largest.
        Lookup::Extend(prefixes) => prefixes.last().and_then(CachedPrefix::to_prefix::<A>),
        Lookup::Miss => None,
    };
    let (report, snapshots) = finish(run(resume));
    if let Some(cached) = CachedReport::from_report(&report) {
        let prefixes: Vec<CachedPrefix> = snapshots.iter().map(CachedPrefix::from_prefix).collect();
        cache.insert(key, cached, prefixes);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::OpType::{Ld, St};
    use memmodel::{MemoryModel, SettleProbs};
    use montecarlo::Seed;
    use settle::Settler;

    /// The canon of a `survival` request of 200k trials at seed 1.
    fn canon(model: &ReliabilityModel) -> String {
        model
            .request_key("survival", &Runner::new(Seed(1)), 200_000)
            .canon()
    }

    #[test]
    fn request_key_covers_every_simulated_field() {
        let base = ReliabilityModel::new(MemoryModel::Tso, 2);
        let settler = |matrix, probs| {
            ReliabilityModel::new(MemoryModel::Tso, 2).with_settler(Settler::new(matrix, probs))
        };
        let probs = SettleProbs::canonical();
        let tso = MemoryModel::Tso.matrix();
        let mut variants: Vec<(&str, String)> = vec![
            ("base", canon(&base)),
            ("matrix", canon(&settler(MemoryModel::Pso.matrix(), probs))),
        ];
        for (label, earlier, later) in [
            ("s st/st", St, St),
            ("s st/ld", St, Ld),
            ("s ld/st", Ld, St),
            ("s ld/ld", Ld, Ld),
        ] {
            let moved = probs.with(earlier, later, 0.25).unwrap();
            variants.push((label, canon(&settler(tso, moved))));
        }
        let fenced = Settler::for_model(MemoryModel::Tso)
            .with_fence_pass_probability(0.25)
            .unwrap();
        variants.push(("fence pass", canon(&base.with_settler(fenced))));
        variants.push(("acquire fence", canon(&base.with_acquire_fence())));
        variants.push(("n", canon(&ReliabilityModel::new(MemoryModel::Tso, 3))));
        variants.push(("m", canon(&base.with_filler_len(32))));
        variants.push(("p", canon(&base.with_store_probability(0.25).unwrap())));
        let request = |kind, seed, trials| {
            base.request_key(kind, &Runner::new(Seed(seed)), trials)
                .canon()
        };
        variants.push(("seed", request("survival", 2, 200_000)));
        variants.push(("kind", request("windows", 1, 200_000)));
        variants.push(("trials", request("survival", 1, 200_001)));
        for (i, (a, ca)) in variants.iter().enumerate() {
            for (b, cb) in &variants[i + 1..] {
                assert_ne!(ca, cb, "{a} and {b} share a key");
            }
        }

        // The memory-model label only names telemetry: with equal settlers
        // the trials are the same, and so is the key.
        let relabelled = ReliabilityModel::new(MemoryModel::Sc, 2)
            .with_settler(Settler::for_model(MemoryModel::Tso));
        assert_ne!(relabelled.memory_model(), base.memory_model());
        assert_eq!(canon(&relabelled), canon(&base));
    }
}
