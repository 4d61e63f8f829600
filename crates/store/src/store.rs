//! The content-addressed store and its process-global handle.
//!
//! One map holds every live [`Entry`] by content address (an exact hit
//! is a lookup, no I/O, no parsing); a disk-backed store also appends
//! each insert to one [`segment`](crate::segment) file and fills the map
//! from it on open. A **family index** maps the family canon's content
//! address to every cached whole-chunk prefix of that seeded kernel —
//! the *extension* path, serving a request of another trial count a
//! resumable prefix instead of a cold start.
//!
//! Every fallible cache interaction degrades to a (counted) miss: the
//! cache can make runs faster, never wrong and never failed.

use crate::acc::{CachedPrefix, CachedReport, Entry};
use crate::key::RequestKey;
use crate::segment::SegmentFile;
use crate::telemetry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Why a store could not be opened.
#[derive(Debug)]
pub enum StoreError {
    /// The cache directory could not be created, read, or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "cache directory {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

/// What a [`Store::lookup`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Exact request-key hit: the finished, bit-identical result.
    Hit(Entry),
    /// No finished result, but the family has whole-chunk prefixes no
    /// larger than the request — resume from the largest instead of
    /// starting cold. Ascending by `chunks`.
    Extend(Vec<CachedPrefix>),
    /// Nothing usable; compute cold.
    Miss,
}

/// Point-in-time cache statistics (process-local, independent of whether
/// `obs` telemetry is recording).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Exact request-key hits.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Lookups served a resumable prefix.
    pub extends: u64,
    /// Survivable cache faults (unreadable files, bad records, failed
    /// appends).
    pub errors: u64,
    /// Torn segment tails truncated back to their valid prefix.
    pub torn_tails: u64,
}

#[derive(Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
    extends: AtomicU64,
    errors: AtomicU64,
    torn_tails: AtomicU64,
}

/// One family's extension state.
struct Family {
    /// Full canonical family string (collision guard).
    canon: String,
    /// Whole-chunk prefixes, ascending by `chunks`, deduplicated.
    prefixes: Vec<CachedPrefix>,
}

#[derive(Default)]
struct Inner {
    /// Every live entry, by 32-hex content address.
    entries: HashMap<String, Entry>,
    families: HashMap<String, Family>,
    disk: Option<SegmentFile>,
}

/// A content-addressed result cache.
///
/// All methods take `&self`; the store is internally synchronized and is
/// shared as `Arc<Store>` (see [`install`]).
pub struct Store {
    inner: Mutex<Inner>,
    stats: Stats,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// An empty, memory-only store (no segment file).
    #[must_use]
    pub fn in_memory() -> Store {
        Store {
            inner: Mutex::new(Inner::default()),
            stats: Stats::default(),
        }
    }

    /// Opens (or creates) a disk-backed store at `dir`, recovering every
    /// valid record previous processes left in its `seg-*.mmrs` files
    /// (generation order, later records win): torn tails are truncated,
    /// garbage files and undecodable records are skipped and counted,
    /// and the extension index is rebuilt from the live entries.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created, read or
    /// written. Callers degrade to running uncached (miss-through) —
    /// an unusable cache must never fail the run itself.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let opened = SegmentFile::open(dir).map_err(|source| {
            telemetry::cache().errors.inc();
            StoreError::Io {
                path: dir.to_path_buf(),
                source,
            }
        })?;
        let store = Store::in_memory();
        {
            let mut inner = store.lock();
            // Families are indexed from the live entries in the order
            // their keys first appear on disk.
            let mut order = Vec::new();
            for (hex, entry) in opened.records {
                if inner.entries.insert(hex.clone(), entry).is_none() {
                    order.push(hex);
                }
            }
            let Inner {
                entries, families, ..
            } = &mut *inner;
            for hex in &order {
                Store::index_family(families, &entries[hex]);
            }
            inner.disk = Some(opened.file);
        }
        let faults = opened.faults;
        if faults.errors > 0 {
            telemetry::cache().errors.add(faults.errors);
            store
                .stats
                .errors
                .fetch_add(faults.errors, Ordering::Relaxed);
        }
        store
            .stats
            .torn_tails
            .fetch_add(faults.torn_tails, Ordering::Relaxed);
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up a request: exact hit, resumable family prefix, or miss.
    /// Exactly one of `mc.cache.{hits,extends,misses}` is counted per
    /// call.
    pub fn lookup(&self, key: &RequestKey) -> Lookup {
        let canon = key.canon();
        let inner = self.lock();

        // A 128-bit collision is astronomically unlikely and handled
        // anyway — the canon is authoritative, the hash is a name.
        if let Some(entry) = inner.entries.get(&key.hash().hex()) {
            if entry.canon == canon {
                let entry = entry.clone();
                drop(inner);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::cache().hits.inc();
                obs::flight::event("cache_hit").detail(&canon).emit();
                return Lookup::Hit(entry);
            }
        }

        let max_chunks = key.trials / montecarlo::CHUNK_WIDTH;
        if let Some(fam) = inner.families.get(&key.family_hash().hex()) {
            if fam.canon == key.family {
                let usable: Vec<CachedPrefix> = fam
                    .prefixes
                    .iter()
                    .filter(|p| p.chunks <= max_chunks)
                    .cloned()
                    .collect();
                if !usable.is_empty() {
                    drop(inner);
                    self.stats.extends.fetch_add(1, Ordering::Relaxed);
                    telemetry::cache().extends.inc();
                    let best = usable.iter().map(|p| p.chunks).max().unwrap_or(0);
                    obs::flight::event("cache_extend")
                        .detail(&canon)
                        .n(best)
                        .emit();
                    return Lookup::Extend(usable);
                }
            }
        }

        drop(inner);
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::cache().misses.inc();
        obs::flight::event("cache_miss").detail(&canon).emit();
        Lookup::Miss
    }

    /// Inserts a finished run: into the map, appended to the segment
    /// file (if any), and its prefixes merged into the extension index.
    /// A disk append failure is counted and degrades the store to
    /// memory-only; it never surfaces to the caller.
    pub fn insert(&self, key: &RequestKey, report: CachedReport, prefixes: Vec<CachedPrefix>) {
        let hex = key.hash().hex();
        let entry = Entry {
            canon: key.canon(),
            family: key.family.clone(),
            report,
            prefixes,
        };
        let mut inner = self.lock();
        Store::index_family(&mut inner.families, &entry);
        if let Some(disk) = inner.disk.as_mut() {
            match disk.append(&hex, &entry) {
                Ok(torn) => {
                    self.stats.torn_tails.fetch_add(torn, Ordering::Relaxed);
                }
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    telemetry::cache().errors.inc();
                    obs::info!("cache: disk append failed ({e}); continuing memory-only");
                    inner.disk = None;
                }
            }
        }
        inner.entries.insert(hex, entry);
    }

    /// Process-local statistics since this store was created.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            extends: self.stats.extends.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            torn_tails: self.stats.torn_tails.load(Ordering::Relaxed),
        }
    }

    /// Distinct finished results cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no finished result is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges an entry's prefixes into the family index (dedup by chunk
    /// count, later wins).
    fn index_family(families: &mut HashMap<String, Family>, entry: &Entry) {
        if entry.prefixes.is_empty() {
            return;
        }
        let fam = families
            .entry(crate::KeyHash::of(&entry.family).hex())
            .or_insert_with(|| Family {
                canon: entry.family.clone(),
                prefixes: Vec::new(),
            });
        if fam.canon != entry.family {
            return; // hash collision; keep the incumbent
        }
        for p in &entry.prefixes {
            match fam.prefixes.binary_search_by_key(&p.chunks, |q| q.chunks) {
                Ok(i) => fam.prefixes[i] = p.clone(),
                Err(i) => fam.prefixes.insert(i, p.clone()),
            }
        }
    }
}

/// The process-global store slot. Runner call sites deep inside the core
/// crates consult this instead of threading a handle through every
/// signature (the same pattern as `montecarlo::fault`).
fn slot() -> &'static Mutex<Option<Arc<Store>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Store>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs a store for cache-aware entry points process-wide.
pub fn install(store: Arc<Store>) {
    *slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(store);
}

/// Removes the installed store (subsequent runs compute cold).
pub fn clear() {
    *slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The installed store, if any.
#[must_use]
pub fn active() -> Option<Arc<Store>> {
    slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::{AccState, BernoulliState};
    use crate::key::KeySpec;
    use crate::{CANON_VERSION, KERNEL_VERSION};

    fn spec(seed: u64) -> KeySpec {
        KeySpec {
            kernel: format!("{KERNEL_VERSION}/survival"),
            matrix: ".X..".into(),
            threads_n: 2,
            filler_m: 64,
            p_bits: 0.5f64.to_bits(),
            settle_bits: [0.5f64.to_bits(); 4],
            fence_pass_bits: 0.5f64.to_bits(),
            acquire_fence: false,
            seed,
            chunk_width: montecarlo::CHUNK_WIDTH,
        }
    }

    fn report(successes: u64, trials: u64) -> CachedReport {
        CachedReport {
            value: AccState::Bernoulli(BernoulliState { successes, trials }),
            trials_requested: trials,
            trials_completed: trials,
        }
    }

    fn prefix(chunks: u64) -> CachedPrefix {
        CachedPrefix {
            chunks,
            trials: chunks * montecarlo::CHUNK_WIDTH,
            value: AccState::Bernoulli(BernoulliState {
                successes: chunks,
                trials: chunks * montecarlo::CHUNK_WIDTH,
            }),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmr-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_hits_after_insert() {
        let store = Store::in_memory();
        let key = spec(1).request(8192);
        assert_eq!(store.lookup(&key), Lookup::Miss);
        store.insert(&key, report(10, 8192), vec![]);
        match store.lookup(&key) {
            Lookup::Hit(entry) => assert_eq!(entry.report, report(10, 8192)),
            other => panic!("expected a hit, got {other:?}"),
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn family_prefixes_serve_larger_requests() {
        let store = Store::in_memory();
        let small = spec(2).request(4 * montecarlo::CHUNK_WIDTH);
        store.insert(&small, report(7, small.trials), vec![prefix(4)]);
        // Larger request, same family: no exact hit, but an extension.
        let big = spec(2).request(16 * montecarlo::CHUNK_WIDTH);
        match store.lookup(&big) {
            Lookup::Extend(ps) => assert_eq!(ps, vec![prefix(4)]),
            other => panic!("expected an extension, got {other:?}"),
        }
        // Smaller than any prefix: miss, never a too-big prefix.
        let tiny = spec(2).request(2 * montecarlo::CHUNK_WIDTH);
        assert_eq!(store.lookup(&tiny), Lookup::Miss);
        assert_eq!(store.stats().extends, 1);
    }

    #[test]
    fn records_carrying_the_retired_converged_early_flag_still_hit() {
        // A `put` record as written while runs could stop on an RSE
        // target: its report carries `"converged_early":false`.
        let dir = tmp_dir("converged-early");
        std::fs::create_dir_all(&dir).unwrap();
        let key = spec(6).request(8 * montecarlo::CHUNK_WIDTH);
        let json = format!(
            "{{\"key\":\"{}\",\"entry\":{{\"canon\":\"{}\",\"family\":\"{}\",\
             \"report\":{{\"value\":{{\"Bernoulli\":{{\"successes\":3,\"trials\":{trials}}}}},\
             \"trials_requested\":{trials},\"trials_completed\":{trials},\"converged_early\":false}},\
             \"prefixes\":[{{\"chunks\":8,\"trials\":{trials},\
             \"value\":{{\"Bernoulli\":{{\"successes\":8,\"trials\":{trials}}}}}}}]}}}}",
            key.hash().hex(),
            key.canon(),
            key.family,
            trials = key.trials,
        );
        std::fs::write(
            dir.join("seg-00000000.mmrs"),
            obs::frame::SEGMENT.encode("1 put", &json),
        )
        .unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.stats().errors, 0, "the record parses");
        match store.lookup(&key) {
            Lookup::Hit(entry) => {
                assert_eq!(entry.report, report(3, key.trials));
                assert_eq!(entry.prefixes, vec![prefix(8)]);
            }
            other => panic!("expected an exact hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_of_an_older_kernel_version_miss() {
        // A cache written by older code holds `mmr-kernels-v1` keys
        // (before attempt-addressed settle draws), `mmr-kernels-v2` keys
        // (before keyed programs) or `mmrk1` canons (which carried a
        // batch-lane `lanes=` field). Under the current versions the same
        // request must miss outright — neither an exact hit nor a family
        // extension may replay an old stream's values.
        let old_kernel = |version: &str| {
            let mut old = spec(5);
            old.kernel = format!("{version}/survival");
            old.family_canon()
        };
        let mmrk1 = format!(
            "{}|lanes=0",
            spec(5).family_canon().replacen(CANON_VERSION, "mmrk1", 1)
        );
        let olds = [
            ("mmr-kernels-v1", old_kernel("mmr-kernels-v1")),
            ("mmr-kernels-v2", old_kernel("mmr-kernels-v2")),
            ("mmrk1", mmrk1),
        ];
        for (label, family) in olds {
            assert_ne!(family, spec(5).family_canon());
            let dir = tmp_dir(&format!("old-{label}"));
            let old_key = RequestKey {
                family,
                trials: 8 * montecarlo::CHUNK_WIDTH,
            };
            {
                let store = Store::open(&dir).unwrap();
                store.insert(
                    &old_key,
                    report(3, old_key.trials),
                    vec![prefix(4), prefix(8)],
                );
            }
            let store = Store::open(&dir).unwrap();
            assert!(
                matches!(store.lookup(&old_key), Lookup::Hit(_)),
                "the {label} entry persisted"
            );
            for trials in [8, 16].map(|chunks| chunks * montecarlo::CHUNK_WIDTH) {
                let key = spec(5).request(trials);
                assert_eq!(store.lookup(&key), Lookup::Miss, "{label}: {trials} trials");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn disk_store_round_trips_and_reopens() {
        let dir = tmp_dir("reopen");
        let key = spec(4).request(8192);
        {
            let store = Store::open(&dir).unwrap();
            store.insert(&key, report(3, 8192), vec![prefix(2)]);
        }
        let store = Store::open(&dir).unwrap();
        match store.lookup(&key) {
            Lookup::Hit(entry) => {
                assert_eq!(entry.report, report(3, 8192));
                assert_eq!(entry.prefixes, vec![prefix(2)]);
            }
            other => panic!("expected a reopened hit, got {other:?}"),
        }
        // The family index was rebuilt from disk too.
        let big = spec(4).request(64 * montecarlo::CHUNK_WIDTH);
        assert!(matches!(store.lookup(&big), Lookup::Extend(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_on_a_file_path_is_a_typed_error() {
        let dir = tmp_dir("notdir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a-file");
        std::fs::write(&path, "x").unwrap();
        let err = Store::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_clear_active_round_trip() {
        // Guarded by the global slot being process-wide: leave it clean.
        let store = Arc::new(Store::in_memory());
        install(Arc::clone(&store));
        assert!(active().is_some());
        clear();
        assert!(active().is_none());
    }
}
