//! The two-tier content-addressed store and its process-global handle.
//!
//! Layering, fastest first:
//!
//! 1. a bounded in-memory LRU of deserialized [`Entry`] values (the warm
//!    hit path — no I/O, no parsing);
//! 2. the append-only on-disk [`segment`](crate::segment) tier, consulted
//!    on LRU miss and promoted back into the LRU;
//! 3. a **family index** mapping the family canon's content address to
//!    every cached whole-chunk prefix of that seeded kernel — the
//!    *extension* path, serving a larger-trials or `with_target_rse`
//!    request a resumable prefix instead of a cold start.
//!
//! Every fallible cache interaction degrades to a (counted) miss: the
//! cache can make runs faster, never wrong and never failed.

use crate::acc::{CachedPrefix, CachedReport, Entry};
use crate::key::RequestKey;
use crate::segment::{DiskTier, DEFAULT_ROLL_BYTES};
use crate::telemetry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default LRU budget: plenty for full sweep grids, bounded enough to
/// never matter next to the simulation working set.
const DEFAULT_MEMORY_BUDGET: u64 = 64 << 20;

/// Most families the extension index retains (insertion-ordered cap; the
/// exact-hit path is unaffected by this bound).
const MAX_FAMILIES: usize = 4096;

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
    /// LRU entries evicted to stay inside the memory budget.
    pub evictions: u64,
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
    evictions: AtomicU64,
    errors: AtomicU64,
    torn_tails: AtomicU64,
}

/// One resident LRU slot.
struct LruSlot {
    entry: Entry,
    bytes: u64,
    tick: u64,
}

/// One family's extension state.
struct Family {
    /// Full canonical family string (collision guard).
    canon: String,
    /// Whole-chunk prefixes, ascending by `chunks`, deduplicated.
    prefixes: Vec<CachedPrefix>,
}

struct Inner {
    lru: HashMap<String, LruSlot>,
    lru_bytes: u64,
    tick: u64,
    families: HashMap<String, Family>,
    /// Family keys in first-insertion order, for the cap.
    family_order: Vec<String>,
    disk: Option<DiskTier>,
}

/// A two-tier content-addressed result cache.
///
/// All methods take `&self`; the store is internally synchronized and is
/// shared as `Arc<Store>` (see [`install`]).
pub struct Store {
    inner: Mutex<Inner>,
    memory_budget: u64,
    stats: Stats,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("memory_budget", &self.memory_budget)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// An empty, memory-only store (no disk tier) with the default
    /// budget.
    #[must_use]
    pub fn in_memory() -> Store {
        Store {
            inner: Mutex::new(Inner {
                lru: HashMap::new(),
                lru_bytes: 0,
                tick: 0,
                families: HashMap::new(),
                family_order: Vec::new(),
                disk: None,
            }),
            memory_budget: DEFAULT_MEMORY_BUDGET,
            stats: Stats::default(),
        }
    }

    /// Opens (or creates) a disk-backed store at `dir`, recovering every
    /// valid record previous processes left: torn tails are truncated,
    /// garbage files and undecodable records are skipped and counted,
    /// and the extension index is rebuilt from the live entries.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or
    /// written. Callers degrade to running uncached (miss-through) —
    /// an unusable cache must never fail the run itself.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        Store::open_with(dir, DEFAULT_ROLL_BYTES)
    }

    /// [`Store::open`] with an explicit segment-roll threshold (tests).
    pub fn open_with(dir: &Path, roll_bytes: u64) -> Result<Store, StoreError> {
        let (disk, live, faults) = DiskTier::open(dir, roll_bytes).map_err(|source| {
            telemetry::cache().errors.inc();
            StoreError::Io {
                path: dir.to_path_buf(),
                source,
            }
        })?;
        let store = Store::in_memory();
        {
            let mut inner = store.lock();
            inner.disk = Some(disk);
            for (_, entry) in &live {
                Store::index_family(&mut inner, entry);
            }
        }
        if faults.errors > 0 {
            telemetry::cache().errors.add(faults.errors);
            store.stats.errors.fetch_add(faults.errors, Ordering::Relaxed);
        }
        store
            .stats
            .torn_tails
            .fetch_add(faults.torn_tails, Ordering::Relaxed);
        Ok(store)
    }

    /// Replaces the default in-memory budget (bytes of resident entries
    /// the LRU may hold before evicting).
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: u64) -> Store {
        self.memory_budget = bytes;
        self
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
        let hex = key.hash().hex();
        let canon = key.canon();
        let mut inner = self.lock();

        // Tier 1: resident entries.
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.lru.get_mut(&hex) {
            if slot.entry.canon == canon {
                slot.tick = tick;
                let entry = slot.entry.clone();
                drop(inner);
                self.count_hit(&canon);
                return Lookup::Hit(entry);
            }
            // A 128-bit collision: astronomically unlikely, handled
            // anyway — the canon is authoritative, the hash is a name.
        }

        // Tier 2: the segment tier, promoting into the LRU.
        if let Some(entry) = inner.disk.as_ref().and_then(|d| d.get(&hex)) {
            if entry.canon == canon {
                Store::admit(&mut inner, self.memory_budget, &self.stats, &hex, &entry);
                drop(inner);
                self.count_hit(&canon);
                return Lookup::Hit(entry);
            }
        }

        // Tier 3: the family extension index.
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
                    obs::flight::event("cache_extend").detail(&canon).n(best).emit();
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

    /// Inserts a finished run: resident immediately, appended to the
    /// disk tier (if any), and its prefixes merged into the extension
    /// index. A disk append failure is counted and degrades the store to
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
        Store::index_family(&mut inner, &entry);
        Store::admit(&mut inner, self.memory_budget, &self.stats, &hex, &entry);
        if let Some(disk) = inner.disk.as_mut() {
            match disk.put(&hex, &entry) {
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
    }

    /// Rewrites the disk tier down to its live records (one fresh
    /// segment, atomic index swap). A no-op for memory-only stores.
    pub fn compact(&self) {
        let mut inner = self.lock();
        if let Some(disk) = inner.disk.as_mut() {
            let live = disk.read_live();
            if let Err(e) = disk.compact(&live) {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                telemetry::cache().errors.inc();
                obs::info!("cache: compaction failed ({e}); keeping the old segments");
            } else {
                obs::flight::event("cache_compacted").n(live.len() as u64).emit();
            }
        }
    }

    /// Process-local statistics since this store was created.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            extends: self.stats.extends.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            torn_tails: self.stats.torn_tails.load(Ordering::Relaxed),
        }
    }

    /// Distinct finished results reachable (resident or on disk).
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.lock();
        match inner.disk.as_ref() {
            Some(d) => d.live_records() as usize,
            None => inner.lru.len(),
        }
    }

    /// Whether no finished result is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn count_hit(&self, canon: &str) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        telemetry::cache().hits.inc();
        obs::flight::event("cache_hit").detail(canon).emit();
    }

    /// Admits an entry into the LRU, evicting least-recently-used slots
    /// until the budget holds. Eviction loses nothing durable — the disk
    /// tier (when present) still holds every inserted record.
    fn admit(inner: &mut Inner, budget: u64, stats: &Stats, hex: &str, entry: &Entry) {
        let bytes = serde_json::to_string(entry)
            .expect("Entry serialization is infallible")
            .len() as u64;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.lru.insert(
            hex.to_string(),
            LruSlot {
                entry: entry.clone(),
                bytes,
                tick,
            },
        ) {
            inner.lru_bytes -= old.bytes;
        }
        inner.lru_bytes += bytes;
        while inner.lru_bytes > budget && inner.lru.len() > 1 {
            let Some(victim) = inner
                .lru
                .iter()
                .filter(|(k, _)| k.as_str() != hex)
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(slot) = inner.lru.remove(&victim) {
                inner.lru_bytes -= slot.bytes;
                stats.evictions.fetch_add(1, Ordering::Relaxed);
                telemetry::cache().evictions.inc();
            }
        }
        telemetry::cache().bytes.set(inner.lru_bytes);
    }

    /// Merges an entry's prefixes into the family index (dedup by chunk
    /// count, later wins), evicting the oldest family past the cap.
    fn index_family(inner: &mut Inner, entry: &Entry) {
        if entry.prefixes.is_empty() {
            return;
        }
        let fam_hex = crate::KeyHash::of(&entry.family).hex();
        if !inner.families.contains_key(&fam_hex) {
            inner.family_order.push(fam_hex.clone());
            inner.families.insert(
                fam_hex.clone(),
                Family {
                    canon: entry.family.clone(),
                    prefixes: Vec::new(),
                },
            );
        }
        let fam = inner.families.get_mut(&fam_hex).expect("present by construction");
        if fam.canon != entry.family {
            return; // hash collision; keep the incumbent
        }
        for p in &entry.prefixes {
            match fam.prefixes.binary_search_by_key(&p.chunks, |q| q.chunks) {
                Ok(i) => fam.prefixes[i] = p.clone(),
                Err(i) => fam.prefixes.insert(i, p.clone()),
            }
        }
        while inner.family_order.len() > MAX_FAMILIES {
            let oldest = inner.family_order.remove(0);
            inner.families.remove(&oldest);
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
    *slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(store);
}

/// Removes the installed store (subsequent runs compute cold).
pub fn clear() {
    *slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
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
            converged_early: false,
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
        let key = spec(1).request(8192, None);
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
        let small = spec(2).request(4 * montecarlo::CHUNK_WIDTH, None);
        store.insert(&small, report(7, small.trials), vec![prefix(4)]);
        // Larger request, same family: no exact hit, but an extension.
        let big = spec(2).request(16 * montecarlo::CHUNK_WIDTH, None);
        match store.lookup(&big) {
            Lookup::Extend(ps) => assert_eq!(ps, vec![prefix(4)]),
            other => panic!("expected an extension, got {other:?}"),
        }
        // Smaller than any prefix: miss, never a too-big prefix.
        let tiny = spec(2).request(2 * montecarlo::CHUNK_WIDTH, None);
        assert_eq!(store.lookup(&tiny), Lookup::Miss);
        assert_eq!(store.stats().extends, 1);
    }

    #[test]
    fn rse_requests_share_the_family_index() {
        let store = Store::in_memory();
        let plain = spec(3).request(8 * montecarlo::CHUNK_WIDTH, None);
        store.insert(&plain, report(9, plain.trials), vec![prefix(4), prefix(8)]);
        let rse = spec(3).request(8 * montecarlo::CHUNK_WIDTH, Some(0.01));
        match store.lookup(&rse) {
            Lookup::Extend(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected an extension, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_to_budget_and_counts() {
        let store = Store::in_memory().with_memory_budget(1); // absurd: 1 byte
        let a = spec(10).request(4096, None);
        let b = spec(11).request(4096, None);
        store.insert(&a, report(1, 4096), vec![]);
        store.insert(&b, report(2, 4096), vec![]);
        assert!(store.stats().evictions >= 1);
        // The newest insert survives even over budget (the LRU never
        // evicts the entry it just admitted down to empty).
        match store.lookup(&b) {
            Lookup::Hit(_) => {}
            other => panic!("expected the newest entry resident, got {other:?}"),
        }
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
                rse_bits: None,
            };
            {
                let store = Store::open(&dir).unwrap();
                store.insert(&old_key, report(3, old_key.trials), vec![prefix(4), prefix(8)]);
            }
            let store = Store::open(&dir).unwrap();
            assert!(matches!(store.lookup(&old_key), Lookup::Hit(_)), "the {label} entry persisted");
            for trials in [8, 16].map(|chunks| chunks * montecarlo::CHUNK_WIDTH) {
                let key = spec(5).request(trials, None);
                assert_eq!(store.lookup(&key), Lookup::Miss, "{label}: {trials} trials");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn disk_store_round_trips_and_reopens() {
        let dir = tmp_dir("reopen");
        let key = spec(4).request(8192, None);
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
        let big = spec(4).request(64 * montecarlo::CHUNK_WIDTH, None);
        assert!(matches!(store.lookup(&big), Lookup::Extend(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_loses_nothing_when_disk_backed() {
        let dir = tmp_dir("evict-disk");
        let store = Store::open(&dir).unwrap().with_memory_budget(1);
        let a = spec(20).request(4096, None);
        let b = spec(21).request(4096, None);
        store.insert(&a, report(1, 4096), vec![]);
        store.insert(&b, report(2, 4096), vec![]);
        assert!(store.stats().evictions >= 1);
        for key in [&a, &b] {
            assert!(
                matches!(store.lookup(key), Lookup::Hit(_)),
                "evicted entries are still served from disk"
            );
        }
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
