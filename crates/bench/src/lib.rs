//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment in [`exp`] reproduces one artifact (see DESIGN.md §4's
//! per-experiment index) and returns a text report section with
//! paper-vs-measured rows. The `experiments` binary runs any subset and is
//! the source of `EXPERIMENTS.md`; the Criterion benches in `benches/`
//! measure the cost of the underlying machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diag;
pub mod exp;
pub mod inspect;
pub mod sweep;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Failure modes of the experiment harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An experiment id that is not in the [`registry`].
    UnknownExperiment {
        /// The offending id.
        id: String,
    },
    /// A filesystem operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownExperiment { id } => {
                write!(f, "unknown experiment id {id:?} (try --list)")
            }
            Error::Io { path, source } => {
                write!(f, "cannot access {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Shared experiment context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Baseline Monte-Carlo trial count (experiments scale it as needed).
    pub trials: u64,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Worker threads for runners and grid sweeps. Affects wall-clock
    /// only: every seeded result is identical for any value (the
    /// montecarlo chunk tiling and the [`sweep`] layer key all streams on
    /// logical indices, never on workers).
    pub threads: usize,
}

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Ctx {
    /// The default context used to generate `EXPERIMENTS.md`.
    #[must_use]
    pub fn standard() -> Ctx {
        Ctx {
            trials: 200_000,
            seed: 20110606, // PODC'11, June 6 2011
            threads: default_threads(),
        }
    }

    /// A fast context for smoke tests.
    #[must_use]
    pub fn quick() -> Ctx {
        Ctx {
            trials: 10_000,
            seed: 20110606,
            threads: default_threads(),
        }
    }

    /// Replaces the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Ctx {
        self.threads = threads.max(1);
        self
    }
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx::standard()
    }
}

/// One experiment: id, paper artifact, and runner.
#[derive(Debug)]
pub struct Experiment {
    /// Short id (`t1`, `thm62`, …) used on the command line.
    pub id: &'static str,
    /// The paper artifact reproduced.
    pub artifact: &'static str,
    /// Runs the experiment, returning a report section.
    pub run: fn(&Ctx) -> String,
}

/// Every experiment, in DESIGN.md §4 order.
#[must_use]
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1",
            artifact: "Table 1 — memory-model relaxation matrix",
            run: exp::t1::run,
        },
        Experiment {
            id: "f1",
            artifact: "Figure 1 — a settling-process instantiation under TSO",
            run: exp::f1::run,
        },
        Experiment {
            id: "f2",
            artifact: "Figure 2 — a shift-process instantiation",
            run: exp::f2::run,
        },
        Experiment {
            id: "thm41",
            artifact: "Theorem 4.1 — critical-window growth laws",
            run: exp::thm41::run,
        },
        Experiment {
            id: "clm43",
            artifact: "Claim 4.3 — steady-state bottom store fraction 2/3",
            run: exp::clm43::run,
        },
        Experiment {
            id: "lem42",
            artifact: "Lemma 4.2 — Pr[L_mu] bounds and series",
            run: exp::lem42::run,
        },
        Experiment {
            id: "thm51",
            artifact: "Theorem 5.1 — exact shift disjointness",
            run: exp::thm51::run,
        },
        Experiment {
            id: "cor52",
            artifact: "Corollary 5.2 — c(n) in [2,4], c(2) = 8/3",
            run: exp::cor52::run,
        },
        Experiment {
            id: "thm61",
            artifact: "Theorem 6.1 — exchangeability reduction",
            run: exp::thm61::run,
        },
        Experiment {
            id: "thm62",
            artifact: "Theorem 6.2 — two-thread survival table",
            run: exp::thm62::run,
        },
        Experiment {
            id: "thm63",
            artifact: "Theorem 6.3 — large-n asymptotics",
            run: exp::thm63::run,
        },
        Experiment {
            id: "pso",
            artifact: "footnote 4 — the omitted PSO result",
            run: exp::pso::run,
        },
        Experiment {
            id: "fence",
            artifact: "section 7 — fences shrink windows",
            run: exp::fence::run,
        },
        Experiment {
            id: "opsim",
            artifact: "section 2.2 — operational multiprocessor ground truth",
            run: exp::opsim::run,
        },
        Experiment {
            id: "litmus",
            artifact: "section 2.1 semantics — SB/MP/LB litmus matrix",
            run: exp::litmus::run,
        },
        Experiment {
            id: "general",
            artifact: "section 7 robustness — laws at arbitrary (p, s, q)",
            run: exp::general::run,
        },
    ]
}

/// Resolves experiment ids against a registry, keeping request order.
/// An empty id list selects everything.
///
/// # Errors
///
/// [`Error::UnknownExperiment`] for any id not in `registry`.
pub fn select<'r>(
    registry: &'r [Experiment],
    ids: &[String],
) -> Result<Vec<&'r Experiment>, Error> {
    if ids.is_empty() {
        return Ok(registry.iter().collect());
    }
    ids.iter()
        .map(|id| {
            registry
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| Error::UnknownExperiment { id: id.clone() })
        })
        .collect()
}

/// Runs a set of experiment ids (all when empty), concatenating sections.
///
/// # Errors
///
/// [`Error::UnknownExperiment`] for any unknown id.
pub fn try_run_experiments(ids: &[String], ctx: &Ctx) -> Result<String, Error> {
    let registry = registry();
    let mut out = String::new();
    for e in select(&registry, ids)? {
        let _ = writeln!(out, "## {} — {}\n", e.id.to_uppercase(), e.artifact);
        out.push_str(&(e.run)(ctx));
        out.push('\n');
    }
    Ok(out)
}

/// Runs a set of experiment ids (all when empty), concatenating sections.
///
/// # Panics
///
/// Panics on an unknown id.
#[must_use]
pub fn run_experiments(ids: &[String], ctx: &Ctx) -> String {
    try_run_experiments(ids, ctx).unwrap_or_else(|e| panic!("{e}"))
}

/// Formats a paper-vs-measured verdict line.
#[must_use]
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "MISMATCH"
    }
}

/// Machine-readable result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ExperimentResult {
    /// Experiment id.
    pub id: String,
    /// The paper artifact reproduced.
    pub artifact: String,
    /// Number of individual checks that reproduced.
    pub reproduced: usize,
    /// Number of individual checks that mismatched.
    pub mismatched: usize,
    /// Wall-clock seconds the experiment took. Timing only — every other
    /// field except the diagnostics' throughput is a deterministic
    /// function of `(trials, seed)`.
    pub elapsed_secs: f64,
    /// The full text section.
    pub report: String,
    /// Convergence diagnostics of every named estimate the experiment
    /// recorded (see [`diag`]); empty for purely analytic experiments.
    pub diagnostics: Vec<diag::EstimatorDiag>,
    /// True when the experiment survived on partial estimates: at least
    /// one Monte-Carlo chunk panicked under a degradation policy (chaos
    /// `hard` profile or an explicit runner setting). A
    /// degraded result is honest about its reduced sample sizes but its
    /// REPRODUCED/MISMATCH verdicts are unreliable — the suite exit-code
    /// policy reports it separately.
    #[serde(default)]
    pub degraded: bool,
    /// Faults injected and chunks abandoned while this experiment ran
    /// (deltas of the process-wide `montecarlo::fault` ledger). All zeros
    /// on fault-free runs.
    #[serde(default)]
    pub fault_ledger: FaultLedger,
}

/// Per-experiment fault tallies, copied from the
/// [`montecarlo::fault::Ledger`] deltas around the experiment's run.
///
/// Serialized with every [`ExperimentResult`] so JSON output and degraded
/// reports carry their fault history. Fault tallies legitimately differ
/// between bit-identical runs — a chaos run tears cache writes its
/// fault-free twin never did — so [`RunResult::strip_diagnostics`] zeroes
/// the ledger for equality comparisons, exactly like throughput numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names mirror the ledger; see montecarlo::fault
pub struct FaultLedger {
    pub injected_panics: u64,
    pub injected_torn_writes: u64,
    pub injected_export_faults: u64,
    pub chunks_abandoned: u64,
}

impl From<montecarlo::fault::LedgerSnapshot> for FaultLedger {
    fn from(s: montecarlo::fault::LedgerSnapshot) -> FaultLedger {
        FaultLedger {
            injected_panics: s.injected_panics,
            injected_torn_writes: s.injected_torn_writes,
            injected_export_faults: s.injected_export_faults,
            chunks_abandoned: s.chunks_abandoned,
        }
    }
}

/// Machine-readable result of a whole run (the `--json` output).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RunResult {
    /// Trial count of the context.
    pub trials: u64,
    /// Master seed of the context.
    pub seed: u64,
    /// Worker threads the run used (wall-clock only; results are
    /// thread-count invariant).
    pub threads: usize,
    /// Available parallelism of the host that produced the run.
    pub host_cores: usize,
    /// Per-experiment results.
    pub experiments: Vec<ExperimentResult>,
}

impl RunResult {
    /// A copy with every environment/timing field normalized to zero
    /// (`elapsed_secs`, `threads`, `host_cores`). What remains is exactly
    /// the deterministic payload: two runs of the same `(trials, seed)`
    /// must compare equal after stripping, on any machine at any thread
    /// count.
    #[must_use]
    pub fn strip_timing(&self) -> RunResult {
        let mut stripped = self.clone();
        stripped.threads = 0;
        stripped.host_cores = 0;
        for e in &mut stripped.experiments {
            e.elapsed_secs = 0.0;
        }
        stripped
    }

    /// [`strip_timing`](RunResult::strip_timing) extended to the
    /// diagnostics layer: per-estimator throughput is zeroed alongside the
    /// environment fields. After stripping, everything left — including
    /// every diagnostic mean, half-width, RSE, and trial count — is the
    /// deterministic payload.
    #[must_use]
    pub fn strip_diagnostics(&self) -> RunResult {
        let mut stripped = self.strip_timing();
        for e in &mut stripped.experiments {
            for d in &mut e.diagnostics {
                d.trials_per_sec = 0.0;
            }
            // Which faults fired and what recovered them is not payload;
            // `degraded` stays — it changes the meaning of the results.
            e.fault_ledger = FaultLedger::default();
        }
        stripped
    }
}

/// Writes a crash dossier (when a dossier directory is configured) for an
/// experiment-level incident, counting it in `mc.flight.dossiers`. Dossier
/// failures never fail the run — a forensic artifact is best-effort.
fn emit_dossier(reason: &str, delta: &montecarlo::fault::LedgerSnapshot) {
    let request = obs::flight::current_request();
    match obs::flight::write_dossier(reason, request.as_deref(), &delta.named_fields()) {
        Ok(Some(_)) => obs::global().counter("mc.flight.dossiers").inc(),
        Ok(None) => {}
        Err(e) => eprintln!("warning: failed to write crash dossier ({reason}): {e}"),
    }
}

/// Runs one experiment behind an unwind boundary.
///
/// A panicking experiment becomes a result with one `MISMATCH` and a
/// report recording the panic, so one broken experiment cannot take down
/// the rest of a long batch.
#[must_use]
pub fn run_one_isolated(e: &Experiment, ctx: &Ctx) -> ExperimentResult {
    let run = e.run;
    let session = diag::session();
    let ledger_before = montecarlo::fault::ledger().snapshot();
    let started = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(move || run(ctx));
    let elapsed = started.elapsed();
    let elapsed_us = elapsed.as_micros() as u64;
    let ledger_delta = montecarlo::fault::ledger().snapshot().since(&ledger_before);
    let diagnostics = session.drain();
    drop(session);
    let tele = obs::global();
    tele.counter(&format!("exp.{}.runs", e.id)).inc();
    tele.counter(&format!("exp.{}.elapsed_us", e.id))
        .add(elapsed_us);
    let mut report = match outcome {
        Ok(report) => report,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            emit_dossier("experiment_panicked", &ledger_delta);
            format!("experiment PANICKED: {msg}\n\noverall: MISMATCH\n")
        }
    };
    let degraded = ledger_delta.chunks_abandoned > 0 || ledger_delta.degraded_runs > 0;
    if degraded {
        tele.counter("exp.degraded").inc();
        emit_dossier("experiment_degraded", &ledger_delta);
        // Keep the status word distinct from the REPRODUCED/MISMATCH
        // substrings the verdict counters scan for.
        let _ = writeln!(
            report,
            "\nstatus: DEGRADED — {} chunk(s) abandoned after a panic; \
             estimates are partial and verdicts above are unreliable",
            ledger_delta.chunks_abandoned
        );
    }
    // After any dossier, so a dossier's timeline still ends at its fault.
    obs::flight::event("span").detail(e.id).n(elapsed_us).emit();
    ExperimentResult {
        id: e.id.to_owned(),
        artifact: e.artifact.to_owned(),
        reproduced: report.matches("REPRODUCED").count(),
        mismatched: report.matches("MISMATCH").count(),
        elapsed_secs: elapsed.as_secs_f64(),
        report,
        diagnostics,
        degraded,
        fault_ledger: FaultLedger::from(ledger_delta),
    }
}

/// Runs experiments and collects structured results (the `--json` path),
/// isolating each experiment behind an unwind boundary.
///
/// # Errors
///
/// [`Error::UnknownExperiment`] for any unknown id.
pub fn try_run_experiments_structured(ids: &[String], ctx: &Ctx) -> Result<RunResult, Error> {
    let registry = registry();
    let experiments = select(&registry, ids)?
        .into_iter()
        .map(|e| run_one_isolated(e, ctx))
        .collect();
    Ok(RunResult {
        trials: ctx.trials,
        seed: ctx.seed,
        threads: ctx.threads,
        host_cores: default_threads(),
        experiments,
    })
}

/// Runs experiments and collects structured results (the `--json` path).
///
/// # Panics
///
/// Panics on an unknown id.
#[must_use]
pub fn run_experiments_structured(ids: &[String], ctx: &Ctx) -> RunResult {
    try_run_experiments_structured(ids, ctx).unwrap_or_else(|e| panic!("{e}"))
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// `*.tmp` file which is then renamed over the target, so a crash mid-write
/// can never leave a truncated report, JSON dump, or export behind.
///
/// # Errors
///
/// [`Error::Io`] when the temporary file cannot be written or renamed.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), Error> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "out".into());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents).map_err(|source| Error::Io {
        path: tmp.clone(),
        source,
    })?;
    std::fs::rename(&tmp, path).map_err(|source| Error::Io {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len());
        assert_eq!(reg.len(), 16);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiments(&["nope".into()], &Ctx::quick());
    }

    #[test]
    fn t1_runs_in_quick_mode() {
        let out = run_experiments(&["t1".into()], &Ctx::quick());
        assert!(out.contains("Table 1"));
        assert!(out.contains("REPRODUCED"));
    }

    #[test]
    fn structured_results_serialize() {
        let res = run_experiments_structured(&["t1".into(), "f2".into()], &Ctx::quick());
        assert_eq!(res.experiments.len(), 2);
        assert!(res.experiments.iter().all(|e| e.mismatched == 0));
        assert!(res.experiments.iter().all(|e| e.reproduced >= 1));
        let json = serde_json::to_string_pretty(&res).unwrap();
        assert!(json.contains("\"id\": \"t1\""));
    }

    #[test]
    fn select_reports_unknown_ids() {
        let reg = registry();
        let err = select(&reg, &["t1".into(), "bogus".into()]).unwrap_err();
        match &err {
            Error::UnknownExperiment { id } => assert_eq!(id, "bogus"),
            other => panic!("unexpected error: {other}"),
        }
        assert!(err.to_string().contains("\"bogus\""));
    }

    #[test]
    fn run_one_isolated_contains_panics() {
        fn explodes(_: &Ctx) -> String {
            panic!("synthetic experiment failure")
        }
        let e = Experiment {
            id: "boom",
            artifact: "none",
            run: explodes,
        };
        let res = run_one_isolated(&e, &Ctx::quick());
        assert_eq!(res.id, "boom");
        assert_eq!(res.reproduced, 0);
        assert_eq!(res.mismatched, 1);
        assert!(res.report.contains("PANICKED"), "{}", res.report);
        assert!(res.report.contains("synthetic experiment failure"));
    }

    #[test]
    fn structured_results_roundtrip_through_json() {
        let res = run_experiments_structured(&["t1".into()], &Ctx::quick());
        let json = serde_json::to_string(&res).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, res);
    }

    #[test]
    fn write_atomic_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!(
            "mmr-bench-atomic-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.md");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!dir.join("report.md.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_and_source() {
        let io = Error::Io {
            path: PathBuf::from("/nope/x.json"),
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(io.to_string().contains("/nope/x.json"));
        assert!(std::error::Error::source(&io).is_some());
        let unk = Error::UnknownExperiment { id: "zz".into() };
        assert!(std::error::Error::source(&unk).is_none());
    }
}
