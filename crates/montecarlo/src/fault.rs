//! Deterministic fault injection: the per-trial [`FaultInjector`] used by
//! unit tests, and the process-wide [`FaultPlan`] chaos engine behind the
//! `--chaos` flag.
//!
//! # Two layers
//!
//! [`FaultInjector`] is the original, test-local tool: shared by reference
//! into a trial closure, it panics or stalls a deterministic subset of
//! trials. It perturbs only the closure it is threaded through.
//!
//! [`FaultPlan`] is a *seeded schedule of fault events* for the whole
//! process. Production code carries permanent injection seams — the runner
//! asks the plan whether a chunk panics or corrupts its scratch checksum;
//! the result store asks whether a segment record write tears; the
//! exporters ask whether their I/O fails — and every decision is a pure
//! hash of `(plan seed, site salt, index)`, so a chaos run is exactly
//! reproducible from its `--chaos SEED[:PROFILE]` spec. When no plan is
//! [`install`]ed (the default), every seam is a single relaxed atomic load
//! that answers "no".
//!
//! # The ledger
//!
//! Every injected fault and every recovery action is tallied in a global
//! [`Ledger`] of plain atomics, independent of the `telemetry` feature, so
//! reports can carry an honest fault history even in `--no-default-features`
//! builds. [`Ledger::snapshot`] + [`LedgerSnapshot::since`] give per-scope
//! deltas.

use crate::rng::splitmix64;
use crate::Seed;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Which trials misbehave, and how.
#[derive(Debug, Clone, Copy)]
pub enum FaultMode {
    /// Panic the first time the global trial counter reaches `trial`,
    /// then never again — models a transient fault that a retry clears.
    PanicOnce {
        /// Global (cross-thread) trial index that fails.
        trial: u64,
    },
    /// Panic on every trial — models a hard fault no retry can clear.
    PanicAlways,
    /// Panic any trial whose counter hashes below `numerator/denominator`
    /// under `salt`. Because the counter keeps advancing across retries,
    /// re-running a chunk sees fresh draws: a probabilistic transient
    /// fault.
    PanicFraction {
        /// Failure probability numerator.
        numerator: u64,
        /// Failure probability denominator (must be non-zero).
        denominator: u64,
        /// Seed decorrelating this injector from others.
        salt: u64,
    },
    /// Sleep `stall` the first time the counter reaches `trial` — models
    /// a stuck worker for deadline tests without killing anything.
    StallOnce {
        /// Global trial index that stalls.
        trial: u64,
        /// How long the stalled trial sleeps.
        stall: Duration,
    },
}

/// Shared, thread-safe fault source. See the module docs.
#[derive(Debug)]
pub struct FaultInjector {
    mode: FaultMode,
    counter: AtomicU64,
    fired: AtomicBool,
}

impl FaultInjector {
    /// An injector in the given mode with its counters at zero.
    pub fn new(mode: FaultMode) -> FaultInjector {
        if let FaultMode::PanicFraction { denominator, .. } = mode {
            assert!(denominator > 0, "fault fraction denominator must be > 0");
        }
        FaultInjector {
            mode,
            counter: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// How many trials have called [`perturb`](Self::perturb) so far.
    pub fn trials_seen(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Whether a one-shot fault has already fired.
    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Call once at the top of a trial closure; panics or stalls when
    /// this trial is one of the configured victims.
    pub fn perturb(&self) {
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        match self.mode {
            FaultMode::PanicOnce { trial } => {
                if n >= trial && !self.fired.swap(true, Ordering::SeqCst) {
                    panic!("injected fault: panic at trial {n}");
                }
            }
            FaultMode::PanicAlways => panic!("injected fault: unconditional panic at trial {n}"),
            FaultMode::PanicFraction {
                numerator,
                denominator,
                salt,
            } => {
                if splitmix64(n ^ salt.rotate_left(17)) % denominator < numerator {
                    panic!("injected fault: probabilistic panic at trial {n}");
                }
            }
            FaultMode::StallOnce { trial, stall } => {
                if n >= trial && !self.fired.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(stall);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultPlan: the seeded chaos schedule
// ---------------------------------------------------------------------------

/// Site salts decorrelating the per-seam hash streams of one plan seed.
const SALT_PANIC: u64 = 0x70616e69_633a3a31; // "panic::1"
const SALT_HARD: u64 = 0x68617264_3a3a6b6f;
const SALT_CORRUPT: u64 = 0x636f7272_3a3a3131;
const SALT_TORN: u64 = 0x746f726e_3a3a3131;

/// Which fault family a [`FaultPlan`] schedules.
///
/// Every profile is parseable from `--chaos SEED:PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Profile {
    /// A little of everything recoverable: transient chunk panics, scratch
    /// corruption, and torn store-segment writes. The default profile;
    /// never degrades a run.
    Mixed,
    /// Transient chunk panics only (first attempt of ~1 in 6 chunks).
    Panics,
    /// Scratch corruption only: the per-chunk integrity checksum is
    /// flipped on the first attempt of ~1 in 6 chunks; detection panics
    /// the chunk into the ordinary retry path.
    Corrupt,
    /// Torn writes only (~1 in 2 store-segment records).
    TornWrites,
    /// Exporter I/O errors only: every `--metrics`/`--trace` write fails.
    ExportErrors,
    /// Hard faults: ~1 in 16 chunks panics on *every* attempt, exhausting
    /// retries. Plans with this profile degrade runs instead of failing
    /// them (see [`FaultPlan::degrade_on_exhaustion`]).
    Hard,
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Profile::Mixed => write!(f, "mixed"),
            Profile::Panics => write!(f, "panics"),
            Profile::Corrupt => write!(f, "corrupt"),
            Profile::TornWrites => write!(f, "torn"),
            Profile::ExportErrors => write!(f, "export"),
            Profile::Hard => write!(f, "hard"),
        }
    }
}

/// A deterministic, seeded schedule of fault events for the whole process.
///
/// Decisions are pure functions of `(seed, site, index)` — install the same
/// plan twice and exactly the same chunks panic, the same records tear, the
/// same exports fail.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile: Profile,
}

impl FaultPlan {
    /// A plan scheduling `profile` faults under `seed`.
    #[must_use]
    pub fn new(seed: u64, profile: Profile) -> FaultPlan {
        FaultPlan { seed, profile }
    }

    /// Parses a `--chaos` spec: `SEED` or `SEED:PROFILE` with profile one
    /// of `mixed` (default), `panics`, `corrupt`, `torn`, `export`, `hard`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the seed or profile is malformed.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (seed_part, profile_part) = match spec.split_once(':') {
            Some((s, p)) => (s, Some(p)),
            None => (spec, None),
        };
        let seed: u64 = seed_part
            .parse()
            .map_err(|_| format!("--chaos takes SEED[:PROFILE], got seed {seed_part:?}"))?;
        let profile = match profile_part {
            None => Profile::Mixed,
            Some(p) => match p.to_ascii_lowercase().as_str() {
                "mixed" => Profile::Mixed,
                "panics" => Profile::Panics,
                "corrupt" => Profile::Corrupt,
                "torn" => Profile::TornWrites,
                "export" => Profile::ExportErrors,
                "hard" => Profile::Hard,
                other => {
                    return Err(format!(
                        "--chaos profile must be one of mixed|panics|corrupt|torn|export|hard, got {other:?}"
                    ))
                }
            },
        };
        Ok(FaultPlan::new(seed, profile))
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled fault profile.
    #[must_use]
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// One seeded die roll: true for ~1 in `denom` values of `index`.
    fn roll(&self, salt: u64, index: u64, denom: u64) -> bool {
        splitmix64(self.seed ^ salt.rotate_left(24) ^ index).is_multiple_of(denom)
    }

    /// Whether attempt `attempt` (1-based) of chunk `chunk` panics.
    ///
    /// Transient profiles fail only the first attempt, so the built-in
    /// retry always recovers; [`Profile::Hard`] fails every attempt of its
    /// victims, exhausting retries.
    #[must_use]
    pub fn chunk_panics(&self, chunk: u64, attempt: u32) -> bool {
        match self.profile {
            Profile::Panics => attempt == 1 && self.roll(SALT_PANIC, chunk, 6),
            Profile::Mixed => attempt == 1 && self.roll(SALT_PANIC, chunk, 8),
            Profile::Hard => self.roll(SALT_HARD, chunk, 16),
            _ => false,
        }
    }

    /// Runs the chunk-start seam: panics this attempt when the schedule
    /// says so, tallying the ledger. Call inside the chunk's unwind
    /// boundary.
    pub fn perturb_chunk(&self, chunk: u64, attempt: u32) {
        if self.chunk_panics(chunk, attempt) {
            ledger().note_injected_panic();
            obs::flight::event("fault_fired")
                .chunk(chunk)
                .attempt(attempt)
                .detail("panic")
                .emit();
            panic!("chaos: injected panic in chunk {chunk} (attempt {attempt})");
        }
    }

    /// Whether this attempt of `chunk` has its scratch integrity checksum
    /// corrupted (the runner detects the flip and panics into its retry
    /// path).
    #[must_use]
    pub fn corrupts_scratch(&self, chunk: u64, attempt: u32) -> bool {
        match self.profile {
            Profile::Corrupt => attempt == 1 && self.roll(SALT_CORRUPT, chunk, 6),
            Profile::Mixed => attempt == 1 && self.roll(SALT_CORRUPT, chunk, 16),
            _ => false,
        }
    }

    /// Whether store-segment record number `record` is written torn (a
    /// partial frame with the handle dropped mid-write).
    #[must_use]
    pub fn torn_write(&self, record: u64) -> bool {
        match self.profile {
            Profile::TornWrites => self.roll(SALT_TORN, record, 2),
            Profile::Mixed => self.roll(SALT_TORN, record, 3),
            _ => false,
        }
    }

    /// Whether exporter I/O (`--metrics`, `--trace`) fails under this plan.
    #[must_use]
    pub fn export_fault(&self) -> bool {
        self.profile == Profile::ExportErrors
    }

    /// Whether runs under this plan turn retry exhaustion into a degraded
    /// partial report instead of a hard [`Error`](crate::Error).
    #[must_use]
    pub fn degrade_on_exhaustion(&self) -> bool {
        matches!(self.profile, Profile::Hard)
    }
}

/// The per-chunk integrity canary: a pure hash of `(seed, chunk)` checked
/// at the end of every chunk attempt. Scratch corruption (injected or real)
/// that flips it panics the chunk into the retry path.
pub(crate) fn chunk_canary(seed: Seed, chunk: u64) -> u64 {
    splitmix64(seed.0 ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// ---------------------------------------------------------------------------
// Registry: the process-wide active plan
// ---------------------------------------------------------------------------

/// Fast-path switch: seams check this relaxed bool before touching the lock.
static ENGAGED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Installs `plan` as the process-wide active fault plan, replacing any
/// previous one. Every injection seam in the workspace starts consulting it
/// immediately.
pub fn install(plan: FaultPlan) {
    let mut slot = PLAN
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(Arc::new(plan));
    ENGAGED.store(true, Ordering::Release);
}

/// Removes the active fault plan; every seam reverts to a no-op.
pub fn clear() {
    let mut slot = PLAN
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ENGAGED.store(false, Ordering::Release);
    *slot = None;
}

/// The active fault plan, if one is installed. A relaxed-load no-op when
/// none is — callers on hot paths may call this per chunk, not per trial.
#[must_use]
pub fn active() -> Option<Arc<FaultPlan>> {
    if !ENGAGED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

// ---------------------------------------------------------------------------
// Backoff: seeded exponential delay with deterministic jitter
// ---------------------------------------------------------------------------

/// Longest single backoff delay, independent of attempt count.
const BACKOFF_CAP: Duration = Duration::from_millis(250);

/// The retry backoff schedule: exponential in `attempt` (1-based, doubling
/// from `base`, capped), with deterministic jitter in `[50%, 100%]` drawn
/// from `splitmix64(seed, chunk, attempt)`.
///
/// A pure function of `(seed, chunk, attempt, base)`: recovery timing is
/// reproducible run to run, and — because it only ever *delays* a retry of
/// a chunk whose trial stream is already pinned — it cannot perturb
/// results. `Duration::ZERO` base disables backoff entirely.
#[must_use]
pub fn retry_backoff(seed: Seed, chunk: u64, attempt: u32, base: Duration) -> Duration {
    if base.is_zero() || attempt == 0 {
        return Duration::ZERO;
    }
    let doublings = (attempt - 1).min(16);
    let exp = base.saturating_mul(1u32 << doublings).min(BACKOFF_CAP);
    let h = splitmix64(seed.0 ^ chunk.rotate_left(32) ^ u64::from(attempt).rotate_left(17));
    // Jitter scales the delay by (512 + h % 512) / 1024 ∈ [0.5, 1.0).
    let frac = 512 + (h % 512);
    let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX) / 1024 * frac;
    Duration::from_nanos(nanos)
}

// ---------------------------------------------------------------------------
// Ledger: always-compiled fault and recovery tallies
// ---------------------------------------------------------------------------

/// Global tallies of injected faults and recovery actions, kept in plain
/// atomics so they exist (and stay exact) even in builds without the
/// `telemetry` feature. See the module docs.
#[derive(Debug)]
pub struct Ledger {
    injected_panics: AtomicU64,
    injected_corruptions: AtomicU64,
    injected_torn_writes: AtomicU64,
    injected_export_faults: AtomicU64,
    chunks_retried: AtomicU64,
    chunks_abandoned: AtomicU64,
    degraded_runs: AtomicU64,
}

/// A point-in-time copy of the [`Ledger`]; subtract two with
/// [`since`](LedgerSnapshot::since) to scope tallies to one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation; see Ledger
pub struct LedgerSnapshot {
    pub injected_panics: u64,
    pub injected_corruptions: u64,
    pub injected_torn_writes: u64,
    pub injected_export_faults: u64,
    pub chunks_retried: u64,
    pub chunks_abandoned: u64,
    pub degraded_runs: u64,
}

impl LedgerSnapshot {
    /// The change since an `earlier` snapshot (saturating per field).
    #[must_use]
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            injected_panics: self.injected_panics.saturating_sub(earlier.injected_panics),
            injected_corruptions: self
                .injected_corruptions
                .saturating_sub(earlier.injected_corruptions),
            injected_torn_writes: self
                .injected_torn_writes
                .saturating_sub(earlier.injected_torn_writes),
            injected_export_faults: self
                .injected_export_faults
                .saturating_sub(earlier.injected_export_faults),
            chunks_retried: self.chunks_retried.saturating_sub(earlier.chunks_retried),
            chunks_abandoned: self
                .chunks_abandoned
                .saturating_sub(earlier.chunks_abandoned),
            degraded_runs: self.degraded_runs.saturating_sub(earlier.degraded_runs),
        }
    }

    /// Total faults injected (not recovery actions).
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected_panics
            + self.injected_corruptions
            + self.injected_torn_writes
            + self.injected_export_faults
    }

    /// True when every tally is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == LedgerSnapshot::default()
    }

    /// Every tally as a `(name, count)` pair, in declaration order — the
    /// shape crash dossiers embed.
    #[must_use]
    pub fn named_fields(&self) -> [(&'static str, u64); 7] {
        [
            ("injected_panics", self.injected_panics),
            ("injected_corruptions", self.injected_corruptions),
            ("injected_torn_writes", self.injected_torn_writes),
            ("injected_export_faults", self.injected_export_faults),
            ("chunks_retried", self.chunks_retried),
            ("chunks_abandoned", self.chunks_abandoned),
            ("degraded_runs", self.degraded_runs),
        ]
    }
}

impl Ledger {
    const fn new() -> Ledger {
        Ledger {
            injected_panics: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
            injected_torn_writes: AtomicU64::new(0),
            injected_export_faults: AtomicU64::new(0),
            chunks_retried: AtomicU64::new(0),
            chunks_abandoned: AtomicU64::new(0),
            degraded_runs: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of every tally.
    #[must_use]
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            injected_torn_writes: self.injected_torn_writes.load(Ordering::Relaxed),
            injected_export_faults: self.injected_export_faults.load(Ordering::Relaxed),
            chunks_retried: self.chunks_retried.load(Ordering::Relaxed),
            chunks_abandoned: self.chunks_abandoned.load(Ordering::Relaxed),
            degraded_runs: self.degraded_runs.load(Ordering::Relaxed),
        }
    }

    /// An injected chunk panic fired.
    pub fn note_injected_panic(&self) {
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// An injected scratch corruption fired.
    pub fn note_injected_corruption(&self) {
        self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
    }

    /// An injected torn store-segment write fired.
    pub fn note_injected_torn_write(&self) {
        self.injected_torn_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// An injected exporter I/O fault fired.
    pub fn note_injected_export_fault(&self) {
        self.injected_export_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// A panicked chunk attempt was rolled back and retried.
    pub fn note_chunk_retry(&self) {
        self.chunks_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// A chunk exhausted its retries and was abandoned (degraded mode).
    pub fn note_chunk_abandoned(&self) {
        self.chunks_abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// A run finished with at least one abandoned chunk.
    pub fn note_degraded_run(&self) {
        self.degraded_runs.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide fault/recovery ledger.
#[must_use]
pub fn ledger() -> &'static Ledger {
    static LEDGER: Ledger = Ledger::new();
    &LEDGER
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn panic_once_fires_exactly_once() {
        let inj = FaultInjector::new(FaultMode::PanicOnce { trial: 2 });
        inj.perturb();
        inj.perturb();
        let third = catch_unwind(AssertUnwindSafe(|| inj.perturb()));
        assert!(third.is_err());
        assert!(inj.has_fired());
        // Subsequent trials are clean.
        for _ in 0..10 {
            inj.perturb();
        }
        assert_eq!(inj.trials_seen(), 13);
    }

    #[test]
    fn panic_always_always_panics() {
        let inj = FaultInjector::new(FaultMode::PanicAlways);
        for _ in 0..3 {
            assert!(catch_unwind(AssertUnwindSafe(|| inj.perturb())).is_err());
        }
    }

    #[test]
    fn fraction_mode_is_deterministic_in_counter() {
        let run = || {
            let inj = FaultInjector::new(FaultMode::PanicFraction {
                numerator: 1,
                denominator: 4,
                salt: 99,
            });
            (0..64)
                .map(|_| catch_unwind(AssertUnwindSafe(|| inj.perturb())).is_err())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same counter stream, same faults");
        assert!(a.iter().any(|&p| p), "1/4 over 64 trials should fire");
        assert!(!a.iter().all(|&p| p));
    }

    #[test]
    fn plan_parse_accepts_seed_and_profiles() {
        let plan = FaultPlan::parse("42").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.profile(), Profile::Mixed);
        for (spec, profile) in [
            ("7:panics", Profile::Panics),
            ("7:corrupt", Profile::Corrupt),
            ("7:torn", Profile::TornWrites),
            ("7:export", Profile::ExportErrors),
            ("7:hard", Profile::Hard),
            ("7:MIXED", Profile::Mixed),
        ] {
            assert_eq!(FaultPlan::parse(spec).unwrap().profile(), profile, "{spec}");
        }
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("7:frobnicate").is_err());
        assert!(
            FaultPlan::parse("7:stalls").is_err(),
            "the stall profile is gone"
        );
        assert!(FaultPlan::parse("").is_err());
    }

    #[test]
    fn plan_decisions_are_pure_and_seeded() {
        let a = FaultPlan::new(1, Profile::Panics);
        let b = FaultPlan::new(1, Profile::Panics);
        let c = FaultPlan::new(2, Profile::Panics);
        let hits = |p: &FaultPlan| {
            (0..256)
                .filter(|&i| p.chunk_panics(i, 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(hits(&a), hits(&b), "same seed, same victims");
        assert_ne!(hits(&a), hits(&c), "different seed, different victims");
        assert!(!hits(&a).is_empty(), "~1/6 of 256 chunks must fire");
        assert!(hits(&a).len() < 256);
        // Transient profiles never fail a retry.
        assert!((0..256).all(|i| !a.chunk_panics(i, 2)));
        // Hard faults fail every attempt of the same victims.
        let hard = FaultPlan::new(1, Profile::Hard);
        let victims: Vec<u64> = (0..256).filter(|&i| hard.chunk_panics(i, 1)).collect();
        assert!(!victims.is_empty());
        for &v in &victims {
            assert!(hard.chunk_panics(v, 2) && hard.chunk_panics(v, 3));
        }
        assert!(hard.degrade_on_exhaustion());
        assert!(!a.degrade_on_exhaustion());
    }

    #[test]
    fn registry_install_and_clear() {
        // Serialized with any other registry test by dint of being the
        // only one in this binary that touches the global slot.
        assert!(active().is_none());
        install(FaultPlan::new(9, Profile::TornWrites));
        let plan = active().expect("installed");
        assert_eq!(plan.seed(), 9);
        let torn: Vec<u64> = (0..64).filter(|&i| plan.torn_write(i)).collect();
        assert!(!torn.is_empty());
        clear();
        assert!(active().is_none());
    }

    #[test]
    fn backoff_is_pure_exponential_and_jittered() {
        let base = Duration::from_millis(1);
        let d1 = retry_backoff(Seed(5), 3, 1, base);
        assert_eq!(d1, retry_backoff(Seed(5), 3, 1, base), "pure in its inputs");
        assert!(
            d1 >= base / 2 && d1 < base,
            "jitter keeps [50%, 100%): {d1:?}"
        );
        let d4 = retry_backoff(Seed(5), 3, 4, base);
        assert!(
            d4 >= base * 4 && d4 < base * 8,
            "doubling per attempt: {d4:?}"
        );
        // The cap bounds runaway attempts.
        assert!(retry_backoff(Seed(5), 3, 40, base) <= BACKOFF_CAP);
        // Zero base disables backoff.
        assert_eq!(retry_backoff(Seed(5), 3, 4, Duration::ZERO), Duration::ZERO);
        // Different chunks see different jitter.
        assert_ne!(
            retry_backoff(Seed(5), 3, 2, base),
            retry_backoff(Seed(5), 4, 2, base)
        );
    }

    #[test]
    fn ledger_snapshot_deltas() {
        let before = ledger().snapshot();
        ledger().note_injected_panic();
        ledger().note_chunk_retry();
        let delta = ledger().snapshot().since(&before);
        assert_eq!(delta.injected_panics, 1);
        assert_eq!(delta.chunks_retried, 1);
        assert_eq!(delta.injected_corruptions, 0);
        // A retry is a recovery action, not an injected fault.
        assert_eq!(delta.total_injected(), 1);
        assert!(!delta.is_zero());
        assert!(LedgerSnapshot::default().is_zero());
    }

    #[test]
    fn chunk_canary_depends_on_seed_and_chunk() {
        assert_eq!(chunk_canary(Seed(1), 2), chunk_canary(Seed(1), 2));
        assert_ne!(chunk_canary(Seed(1), 2), chunk_canary(Seed(1), 3));
        assert_ne!(chunk_canary(Seed(1), 2), chunk_canary(Seed(2), 2));
    }
}
