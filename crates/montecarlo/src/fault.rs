//! Deterministic fault injection: the process-wide [`FaultPlan`] chaos
//! engine behind the `--chaos` flag.
//!
//! A [`FaultPlan`] is a *seeded schedule of fault events* for the whole
//! process. Production code carries permanent injection seams — the runner
//! asks the plan whether a chunk panics (the `hard` profile); the result
//! store asks whether a segment record write tears (the `torn` profile) —
//! and every decision is a pure hash of
//! `(plan seed, site salt, index)`, so a chaos run is exactly reproducible
//! from its `--chaos SEED:PROFILE` spec. When no plan is [`install`]ed
//! (the default), every seam is a single relaxed atomic load that answers
//! "no".
//!
//! Only faults that can happen to a run are scheduled. A chunk is a pure
//! function of `(seed, chunk)`, so a chunk that panics panics again on any
//! rerun: the runner runs each chunk once, and an injected chunk panic is
//! unrecoverable by design (it fails the run, or under `hard` degrades
//! it). The recoverable fault is an I/O fault — a torn cache write — and
//! it leaves results bit-identical.
//!
//! # The ledger
//!
//! Every injected fault and every degradation is tallied in a global
//! [`Ledger`] of plain atomics, independent of [`obs::set_recording`], so
//! reports carry an honest fault history even while telemetry is paused.
//! [`Ledger::snapshot`] + [`LedgerSnapshot::since`] give per-scope
//! deltas.

use crate::rng::splitmix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------------
// FaultPlan: the seeded chaos schedule
// ---------------------------------------------------------------------------

/// Site salts decorrelating the per-seam hash streams of one plan seed.
const SALT_HARD: u64 = 0x68617264_3a3a6b6f;
const SALT_TORN: u64 = 0x746f726e_3a3a3131;

/// Which fault family a [`FaultPlan`] schedules.
///
/// Every profile is parseable from `--chaos SEED:PROFILE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Profile {
    /// Torn writes only (~1 in 2 store-segment records); the store
    /// recovers each one, so results stay bit-identical.
    TornWrites,
    /// Hard faults: ~1 in 16 chunks panics. Plans with this profile
    /// degrade runs instead of failing them (see
    /// [`FaultPlan::degrade_on_exhaustion`]).
    Hard,
}

/// The `--chaos` profile names, in [`Profile`] order.
const PROFILES: &str = "torn|hard";

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Profile::TornWrites => write!(f, "torn"),
            Profile::Hard => write!(f, "hard"),
        }
    }
}

/// A deterministic, seeded schedule of fault events for the whole process.
///
/// Decisions are pure functions of `(seed, site, index)` — install the same
/// plan twice and exactly the same chunks panic and the same records tear.
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

    /// Parses a `--chaos` spec: `SEED:PROFILE` with profile one of
    /// `torn`, `hard`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the seed or profile is malformed or
    /// the profile is missing.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let Some((seed_part, profile_part)) = spec.split_once(':') else {
            return Err(format!(
                "--chaos takes SEED:PROFILE with PROFILE one of {PROFILES}, got {spec:?}"
            ));
        };
        let seed: u64 = seed_part
            .parse()
            .map_err(|_| format!("--chaos takes SEED:PROFILE, got seed {seed_part:?}"))?;
        let profile = match profile_part.to_ascii_lowercase().as_str() {
            "torn" => Profile::TornWrites,
            "hard" => Profile::Hard,
            other => {
                return Err(format!(
                    "--chaos profile must be one of {PROFILES}, got {other:?}"
                ))
            }
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

    /// Whether chunk `chunk` panics: [`Profile::Hard`]'s victims do.
    #[must_use]
    pub fn chunk_panics(&self, chunk: u64) -> bool {
        self.profile == Profile::Hard && self.roll(SALT_HARD, chunk, 16)
    }

    /// Runs the chunk-start seam: panics the chunk when the schedule says
    /// so, tallying the ledger. Call inside the chunk's unwind boundary.
    pub fn perturb_chunk(&self, chunk: u64) {
        if self.chunk_panics(chunk) {
            ledger().note_injected_panic();
            obs::flight::event("fault_fired")
                .chunk(chunk)
                .detail("panic")
                .emit();
            panic!("chaos: injected panic in chunk {chunk}");
        }
    }

    /// Whether store-segment record number `record` is written torn (a
    /// partial frame with the handle dropped mid-write).
    #[must_use]
    pub fn torn_write(&self, record: u64) -> bool {
        self.profile == Profile::TornWrites && self.roll(SALT_TORN, record, 2)
    }

    /// Whether runs under this plan turn a panicked chunk into a degraded
    /// partial report instead of a hard [`Error`](crate::Error).
    #[must_use]
    pub fn degrade_on_exhaustion(&self) -> bool {
        self.profile == Profile::Hard
    }
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
// Ledger: fault and degradation tallies in plain atomics
// ---------------------------------------------------------------------------

/// Global tallies of injected faults and degradations, kept in plain
/// atomics so they stay exact even while [`obs::set_recording`] is off.
/// See the module docs.
#[derive(Debug)]
pub struct Ledger {
    injected_panics: AtomicU64,
    injected_torn_writes: AtomicU64,
    chunks_abandoned: AtomicU64,
    degraded_runs: AtomicU64,
}

/// A point-in-time copy of the [`Ledger`]; subtract two with
/// [`since`](LedgerSnapshot::since) to scope tallies to one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation; see Ledger
pub struct LedgerSnapshot {
    pub injected_panics: u64,
    pub injected_torn_writes: u64,
    pub chunks_abandoned: u64,
    pub degraded_runs: u64,
}

impl LedgerSnapshot {
    /// The change since an `earlier` snapshot (saturating per field).
    #[must_use]
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            injected_panics: self.injected_panics.saturating_sub(earlier.injected_panics),
            injected_torn_writes: self
                .injected_torn_writes
                .saturating_sub(earlier.injected_torn_writes),
            chunks_abandoned: self
                .chunks_abandoned
                .saturating_sub(earlier.chunks_abandoned),
            degraded_runs: self.degraded_runs.saturating_sub(earlier.degraded_runs),
        }
    }

    /// Total faults injected (not degradations).
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected_panics + self.injected_torn_writes
    }

    /// True when every tally is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == LedgerSnapshot::default()
    }

    /// Every tally as a `(name, count)` pair, in declaration order — the
    /// shape crash dossiers embed.
    #[must_use]
    pub fn named_fields(&self) -> [(&'static str, u64); 4] {
        [
            ("injected_panics", self.injected_panics),
            ("injected_torn_writes", self.injected_torn_writes),
            ("chunks_abandoned", self.chunks_abandoned),
            ("degraded_runs", self.degraded_runs),
        ]
    }
}

impl Ledger {
    const fn new() -> Ledger {
        Ledger {
            injected_panics: AtomicU64::new(0),
            injected_torn_writes: AtomicU64::new(0),
            chunks_abandoned: AtomicU64::new(0),
            degraded_runs: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of every tally.
    #[must_use]
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            injected_panics: self.injected_panics.load(Ordering::Relaxed),
            injected_torn_writes: self.injected_torn_writes.load(Ordering::Relaxed),
            chunks_abandoned: self.chunks_abandoned.load(Ordering::Relaxed),
            degraded_runs: self.degraded_runs.load(Ordering::Relaxed),
        }
    }

    /// An injected chunk panic fired.
    pub fn note_injected_panic(&self) {
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// An injected torn store-segment write fired.
    pub fn note_injected_torn_write(&self) {
        self.injected_torn_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// A panicked chunk was abandoned (degraded mode).
    pub fn note_chunk_abandoned(&self) {
        self.chunks_abandoned.fetch_add(1, Ordering::Relaxed);
    }

    /// A run finished with at least one abandoned chunk.
    pub fn note_degraded_run(&self) {
        self.degraded_runs.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide fault/degradation ledger.
#[must_use]
pub fn ledger() -> &'static Ledger {
    static LEDGER: Ledger = Ledger::new();
    &LEDGER
}

/// Writes a crash dossier for an incident whose fault-ledger delta is
/// `delta` (when a dossier directory is configured), counting it in
/// `mc.flight.dossiers`. Any I/O failure is reported to stderr and
/// swallowed — a dossier must never take down the run it documents.
pub fn emit_dossier(reason: &str, delta: &LedgerSnapshot) {
    let request = obs::flight::current_request();
    match obs::flight::write_dossier(reason, request.as_deref(), &delta.named_fields()) {
        Ok(Some(_)) => crate::telemetry::dossiers().inc(),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write crash dossier ({reason}): {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_accepts_seed_and_profiles() {
        for (spec, profile) in [
            ("7:torn", Profile::TornWrites),
            ("7:hard", Profile::Hard),
            ("7:HARD", Profile::Hard),
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!((plan.seed(), plan.profile()), (7, profile), "{spec}");
        }
        assert!(FaultPlan::parse("x:torn").is_err());
        assert!(FaultPlan::parse("7:frobnicate").is_err());
        // A bare seed has no default profile, and the chunk-retry, stall
        // and export profiles are gone.
        for gone in [
            "7",
            "7:mixed",
            "7:panics",
            "7:corrupt",
            "7:stalls",
            "7:export",
        ] {
            assert!(FaultPlan::parse(gone).is_err(), "{gone}");
        }
        assert!(FaultPlan::parse("").is_err());
    }

    #[test]
    fn plan_decisions_are_pure_and_seeded() {
        let a = FaultPlan::new(1, Profile::Hard);
        let b = FaultPlan::new(1, Profile::Hard);
        let c = FaultPlan::new(2, Profile::Hard);
        let hits = |p: &FaultPlan| (0..256).filter(|&i| p.chunk_panics(i)).collect::<Vec<_>>();
        assert_eq!(hits(&a), hits(&b), "same seed, same victims");
        assert_ne!(hits(&a), hits(&c), "different seed, different victims");
        assert!(!hits(&a).is_empty(), "~1/16 of 256 chunks must fire");
        assert!(hits(&a).len() < 256);
        assert!(a.degrade_on_exhaustion());
        // Only the hard profile panics chunks, and only it degrades.
        let torn = FaultPlan::new(1, Profile::TornWrites);
        assert!(hits(&torn).is_empty());
        assert!(!torn.degrade_on_exhaustion());
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
    fn ledger_snapshot_deltas() {
        let before = ledger().snapshot();
        ledger().note_injected_panic();
        ledger().note_chunk_abandoned();
        let delta = ledger().snapshot().since(&before);
        assert_eq!(delta.injected_panics, 1);
        assert_eq!(delta.chunks_abandoned, 1);
        assert_eq!(delta.injected_torn_writes, 0);
        // An abandoned chunk is a degradation, not an injected fault.
        assert_eq!(delta.total_injected(), 1);
        assert!(!delta.is_zero());
        assert!(LedgerSnapshot::default().is_zero());
    }
}
