//! Extension-semantics tests for the content-addressed result cache.
//!
//! The cache's whole value rests on one promise: a warm-served result —
//! whether a pure hit, a chunk-prefix extension, or a `with_target_rse`
//! replay — is **bit-for-bit identical** to the cold run it stands in
//! for, at every worker count. These tests pin that promise at
//! threads {1, 2, 3, 8}, prove via
//! `extends` counters that the warm runs actually reused cached
//! prefixes (rather than silently recomputing), and chaos-test the
//! insert path: a torn cache write recovers to a valid segment prefix
//! and the record still lands.

use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::{fault, Runner, Seed, CHUNK_WIDTH};
use std::sync::{Arc, Mutex, MutexGuard};

/// The installed store (and the fault plan) are process-global; every
/// test here serializes on this lock and uninstalls on drop.
static STORE_LOCK: Mutex<()> = Mutex::new(());

struct Session(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Session {
    fn start() -> Session {
        let guard = STORE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        store::clear();
        fault::clear();
        Session(guard)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        store::clear();
        fault::clear();
    }
}

const SEED: u64 = 0xCACE_D00D;

fn model() -> ReliabilityModel {
    // Small filler keeps the trials cheap; the cache layer is agnostic to
    // the kernel's parameters.
    ReliabilityModel::new(MemoryModel::Wo, 2).with_filler_len(16)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mmr-cachex-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Grows one request kind through a fresh in-memory store at every thread
/// count: a miss, an extension of the cached prefix, then a pure hit, each
/// equal to the uncached (`cold`) result.
fn assert_grown_runs_match_cold<T: PartialEq + std::fmt::Debug>(
    kind: &str,
    cold: impl Fn(u64) -> T,
    warm: impl Fn(u64, usize) -> T,
) {
    let small = 6 * CHUNK_WIDTH;
    // A partial tail chunk on the grown request: the resumed fold must
    // append full chunks 6..10 and then the short chunk, like a cold run.
    let large = 10 * CHUNK_WIDTH + 1000;

    let cold_small = cold(small);
    let cold_large = cold(large);

    for threads in [1usize, 2, 3, 8] {
        let cache = Arc::new(store::Store::in_memory());
        store::install(Arc::clone(&cache));

        assert_eq!(warm(small, threads), cold_small, "{kind}");
        let stats = cache.stats();
        assert_eq!(
            stats.misses, 1,
            "{kind}: first run at {threads} threads is a miss"
        );

        assert_eq!(warm(large, threads), cold_large, "{kind}");
        let stats = cache.stats();
        assert_eq!(
            stats.extends, 1,
            "{kind}: grown run at {threads} threads must extend the cached prefix"
        );

        // Replay of the grown request: a pure lookup now.
        assert_eq!(warm(large, threads), cold_large, "{kind}");
        let stats = cache.stats();
        assert_eq!(
            stats.hits, 1,
            "{kind}: replay at {threads} threads is a pure hit"
        );
        store::clear();
    }
}

#[test]
fn trials_grown_warm_run_is_bit_identical_to_cold_at_every_thread_count() {
    let _session = Session::start();
    let m = model();
    // One request kind per accumulator: Bernoulli, Welford, histogram.
    assert_grown_runs_match_cold(
        "survival",
        |trials| m.simulate_survival(trials, SEED),
        |trials, threads| m.simulate_survival_with(trials, SEED, threads),
    );
    assert_grown_runs_match_cold(
        "rb",
        |trials| m.estimate_survival_rb(trials, SEED),
        |trials, threads| m.estimate_survival_rb_with(trials, SEED, threads),
    );
    assert_grown_runs_match_cold(
        "windows",
        |trials| m.window_histogram(trials, SEED),
        |trials, threads| m.window_histogram_with(trials, SEED, threads),
    );
}

#[test]
fn warm_target_rse_replay_is_bit_identical_to_cold_at_every_thread_count() {
    let _session = Session::start();
    let m = model();
    let trials = 16 * CHUNK_WIDTH;
    // WO survival at n=2 is ~0.08, so the RSE at the first stop
    // checkpoint (4 chunks = 16 384 trials) is ~0.027: a 0.05 target
    // converges there, well short of the full 16 chunks.
    let target = 0.05;

    let cold = m.simulate_survival_runner(&Runner::new(Seed(SEED)).with_target_rse(target), trials);
    assert!(cold.converged_early, "target chosen to stop early");
    assert_eq!(cold.trials_completed, 4 * CHUNK_WIDTH);

    for threads in [1usize, 2, 3, 8] {
        let cache = Arc::new(store::Store::in_memory());
        store::install(Arc::clone(&cache));
        let runner = Runner::new(Seed(SEED))
            .with_threads(threads)
            .with_target_rse(target);

        // Populate the family with a plain fixed-trials run (snapshots at
        // 4 and 8 chunks), then ask for the stopping run warm.
        let _ = m.simulate_survival_with(8 * CHUNK_WIDTH, SEED, threads);
        let warm = m.simulate_survival_runner(&runner, trials);
        assert_eq!(warm, cold, "warm rse replay diverged at {threads} threads");
        let stats = cache.stats();
        assert_eq!(
            stats.extends, 1,
            "rse replay at {threads} threads must serve from cached prefixes"
        );

        // The replay inserted the reconstructed result under the exact
        // request key: asking again is a pure hit.
        assert_eq!(m.simulate_survival_runner(&runner, trials), cold);
        assert_eq!(cache.stats().hits, 1);
        store::clear();
    }
}

#[test]
fn torn_cache_writes_recover_and_the_entry_survives_reopen() {
    let _session = Session::start();
    let m = model();
    let trials = 5 * CHUNK_WIDTH;
    let cold = m.simulate_survival(trials, SEED);
    let dir = tmp_dir("torn");

    // A seed whose plan tears the very first record written (TornWrites
    // tears ~1 in 2 records, so the search is short).
    let torn_seed = (0..64)
        .find(|&s| fault::FaultPlan::new(s, fault::Profile::TornWrites).torn_write(0))
        .expect("a tearing seed exists");

    {
        let cache = Arc::new(store::Store::open(&dir).unwrap());
        store::install(Arc::clone(&cache));
        fault::install(fault::FaultPlan::new(torn_seed, fault::Profile::TornWrites));
        let before = fault::ledger().snapshot().injected_torn_writes;
        assert_eq!(m.simulate_survival(trials, SEED), cold);
        fault::clear();
        assert!(
            fault::ledger().snapshot().injected_torn_writes > before,
            "the plan must actually have torn the cache append"
        );
        let stats = cache.stats();
        assert!(stats.torn_tails >= 1, "the tier must report the recovery");
        assert_eq!(stats.errors, 0, "a torn write is recovered, not an error");
        store::clear();
    }

    // The segment recovered to a valid prefix and the record landed:
    // a fresh process serves the result without simulating.
    let cache = Arc::new(store::Store::open(&dir).unwrap());
    assert_eq!(cache.stats().errors, 0);
    store::install(Arc::clone(&cache));
    assert_eq!(m.simulate_survival(trials, SEED), cold);
    assert_eq!(cache.stats().hits, 1);
    store::clear();
    std::fs::remove_dir_all(&dir).unwrap();
}
