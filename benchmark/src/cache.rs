//! `cache`: the result store under the traffic it is documented for — the
//! experiment suite run through an installed disk store, rerun under the
//! same directory, and rerun at more trials (`experiments --cache DIR`).
//!
//! A repetition is one such session on an empty store: a cold pass at
//! `MIN_TRIALS`, where every store request misses (compute, then a
//! CRC-framed append synced to disk); the same pass again, where every
//! request is an exact hit (the read path only); and a pass at `TRIALS`,
//! where every request extends its cached prefix (resume, then insert).
//! It is the only workload with a store installed. It runs at one worker
//! for the reason `suite` does. Its passes run at the two trial counts the
//! suite's seeds are vetted at, so a `--scale` below 1 shrinks the set of
//! experiments instead, to the pair `ci.sh`'s cache smoke runs.

use crate::suite::{Suite, MIN_TRIALS, TRIALS};
use crate::{timed, Layers, Tally, Workload, RUN_DIR};
use mmr_bench::{Ctx, ExperimentResult, RunResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use store::Store;

/// The experiments of a scaled-down run: those of the cache smoke in
/// `ci.sh`.
const SMOKE: [&str; 2] = ["lem42", "thm62"];

/// One pass of the suite through the installed store.
struct Pass {
    /// The results with every timing field zeroed.
    payload: RunResult,
    secs: f64,
    hits: u64,
    misses: u64,
    extends: u64,
}

/// One repetition's passes.
struct Session {
    cold: Pass,
    warm: Pass,
    grown: Pass,
}

fn payload(ctx: &Ctx, results: Vec<(ExperimentResult, f64)>) -> RunResult {
    RunResult {
        trials: ctx.trials,
        seed: ctx.seed,
        threads: ctx.threads,
        host_cores: 0,
        experiments: results.into_iter().map(|(r, _)| r).collect(),
    }
    .strip_diagnostics()
}

pub struct Cache {
    suite: Suite,
    /// The suite's context at the grown trial count.
    grown: Ctx,
    root: PathBuf,
    store: Arc<Store>,
    stores_opened: u64,
    /// Whether the installed store has served a repetition.
    used: bool,
    /// The first session's cold and grown payloads; later sessions must
    /// repeat them.
    first: Option<(RunResult, RunResult)>,
}

impl Cache {
    /// Sets the suite up with no store installed — a store would keep the
    /// warm-up's prefixes and turn the cold pass into extends — then opens
    /// and installs a store in a fresh directory.
    pub fn setup(seed: u64, scale: f64) -> Cache {
        store::clear();
        let only: &[&str] = if scale < 1.0 { &SMOKE } else { &[] };
        let suite = Suite::setup(seed, MIN_TRIALS, only);
        let grown = Ctx {
            trials: TRIALS,
            ..suite.ctx
        };
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let k = SETUPS.fetch_add(1, Ordering::Relaxed);
        let mut cache = Cache {
            suite,
            grown,
            root: Path::new(RUN_DIR).join(format!("cache-{}-{k}", std::process::id())),
            store: Arc::new(Store::in_memory()),
            stores_opened: 0,
            used: false,
            first: None,
        };
        cache.fresh_store();
        cache
    }

    fn dir(&self) -> PathBuf {
        self.root.join(format!("store-{}", self.stores_opened))
    }

    fn fresh_store(&mut self) {
        self.stores_opened += 1;
        self.store = Arc::new(Store::open(&self.dir()).expect("open a fresh store directory"));
        store::install(Arc::clone(&self.store));
        self.used = false;
    }

    fn pass(&self, ctx: &Ctx, tally: &mut Tally) -> Pass {
        let before = self.store.stats();
        let (secs, results) = timed(|| self.suite.pass(ctx, tally));
        let after = self.store.stats();
        Pass {
            payload: payload(ctx, results),
            secs,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            extends: after.extends - before.extends,
        }
    }

    /// Cold, warm and grown passes. Every request of the cold pass must
    /// miss, every one of the warm pass hit and every one of the grown pass
    /// extend; the warm pass must repeat the cold one bit for bit.
    fn session(&mut self, tally: &mut Tally) -> Session {
        self.used = true;
        let cold = self.pass(&self.suite.ctx, tally);
        let warm = self.pass(&self.suite.ctx, tally);
        let grown = self.pass(&self.grown, tally);
        let n = cold.misses;
        let counts = |p: &Pass| (p.misses, p.hits, p.extends);
        for (name, pass, want) in [
            ("cold", &cold, (n, 0, 0)),
            ("warm", &warm, (0, n, 0)),
            ("grown", &grown, (0, 0, n)),
        ] {
            tally.check(n > 0 && counts(pass) == want, || {
                let (m, h, e) = counts(pass);
                format!("cache: {name} pass counted {m} misses, {h} hits, {e} extends")
            });
        }
        tally.check(warm.payload == cold.payload, || {
            "cache: the warm pass differs from the cold pass".into()
        });
        let errors = self.store.stats().errors;
        tally.check(errors == 0, || format!("cache: store counted {errors} errors"));
        match &self.first {
            None => self.first = Some((cold.payload.clone(), grown.payload.clone())),
            Some((c, g)) => tally.check(*c == cold.payload && *g == grown.payload, || {
                "cache: sessions differ".into()
            }),
        }
        Session { cold, warm, grown }
    }

    /// The grown pass with no store installed; its results must equal the
    /// extended ones bit for bit. Returns its wall seconds.
    fn uncached_grown(&self, tally: &mut Tally) -> f64 {
        store::clear();
        let (secs, results) = timed(|| self.suite.pass(&self.grown, tally));
        let (_, extended) = self.first.as_ref().expect("a session ran");
        tally.check(payload(&self.grown, results) == *extended, || {
            "cache: extended results differ from uncached ones".into()
        });
        secs
    }
}

impl Workload for Cache {
    /// A fresh store after a repetition; otherwise this store again, in
    /// case another set-up installed its own since.
    fn prepare(&mut self) {
        if self.used {
            self.fresh_store();
        } else {
            store::install(Arc::clone(&self.store));
        }
    }

    fn rep(&mut self, tally: &mut Tally) {
        self.session(tally);
    }

    fn verify(&mut self, tally: &mut Tally) {
        self.uncached_grown(tally);
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        store::clear();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// An uncached pass, one session with each pass timed, the grown pass
/// uncached, then a re-open of the populated directory. The session is the
/// timed repetition itself, so this run adds no instrument to it and
/// reports no `trace.*` metric.
pub fn traced(seed: u64, scale: f64, tally: &mut Tally) -> Layers {
    let mut cache = Cache::setup(seed, scale);
    store::clear();
    let (uncached_s, _) = timed(|| cache.suite.pass(&cache.suite.ctx, tally));
    cache.prepare();
    let s = cache.session(tally);
    let uncached_grown_s = cache.uncached_grown(tally);

    let dir = cache.dir();
    // Release the directory before a second store opens it.
    cache.store = Arc::new(Store::in_memory());
    let (open_s, reopened) = timed(|| Store::open(&dir));
    tally.check(reopened.is_ok(), || {
        "cache: populated store did not reopen".into()
    });

    let requests = s.cold.misses.max(1) as f64;
    let named = [
        ("store.requests", s.cold.misses as f64),
        ("store.hit_ratio", s.warm.hits as f64 / requests),
        ("store.extend_ratio", s.grown.extends as f64 / requests),
        ("store.cold_s", s.cold.secs),
        ("store.warm_s", s.warm.secs),
        ("store.grown_s", s.grown.secs),
        ("store.cold_overhead_ratio", s.cold.secs / uncached_s),
        ("store.warm_speedup", uncached_s / s.warm.secs),
        ("store.grown_speedup", uncached_grown_s / s.grown.secs),
        ("store.open_ms", open_s * 1e3),
        ("store.disk_bytes", dir_bytes(&dir) as f64),
    ];
    named.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}
