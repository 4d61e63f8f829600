//! The flag layer both binaries share.
//!
//! `mmreliab` and `experiments` take the same seven cache and
//! observability flags: `--cache DIR`, `--metrics FILE`,
//! `--metrics-format json|prom`, `--trace FILE`, `--flight FILE`,
//! `--dossier-dir DIR` and `--quiet`. [`SharedFlags::parse_flag`] parses
//! them, [`SharedFlags::install`] sets them up before a run, and
//! [`SharedFlags::export`] writes the exports after the results print.
//!
//! Every artifact follows the degradation contract of [`obs::degrade`]:
//! an unusable path warns, the run completes with its results intact,
//! and the process exits 2. None of the flags changes a seeded result:
//! the observability flags are out-of-band, and `--cache` serves
//! bit-identical results.

use crate::{write_atomic, Error};
use montecarlo::fault::FaultPlan;
use obs::degrade::Artifacts;
use std::path::{Path, PathBuf};

/// The usage fragment naming the shared flags.
pub const USAGE: &str = "[--cache DIR] [--metrics FILE] [--metrics-format json|prom] \
                         [--trace FILE] [--flight FILE] [--dossier-dir DIR] [--quiet]";

/// Output format of the `--metrics` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MetricsFormat {
    /// The [`obs::Snapshot`] as pretty JSON (the default).
    #[default]
    Json,
    /// Prometheus text exposition.
    Prom,
}

/// The seven flags both binaries take.
#[derive(Debug, Default)]
pub struct SharedFlags {
    /// `--cache DIR`: the content-addressed result store.
    cache: Option<PathBuf>,
    /// `--metrics FILE`: the telemetry snapshot, written at exit.
    metrics: Option<PathBuf>,
    /// `--metrics-format`: the snapshot's format.
    metrics_format: MetricsFormat,
    /// `--trace FILE`: the flight ring as Chrome trace-event JSON.
    trace: Option<PathBuf>,
    /// `--flight FILE`: the CRC-framed mirror of the flight recorder.
    flight: Option<PathBuf>,
    /// `--dossier-dir DIR`: where crash dossiers go.
    dossier_dir: Option<PathBuf>,
    /// `--quiet`: no status lines on stderr (errors still print).
    quiet: bool,
}

impl SharedFlags {
    /// Parses `flag` if it is one of the shared flags, taking its value
    /// from `args`. Returns `Ok(false)` for any other flag.
    ///
    /// # Errors
    ///
    /// A usage message when the value is missing or malformed.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--cache" => self.cache = Some(value("a directory")?.into()),
            "--metrics" => self.metrics = Some(value("a path")?.into()),
            "--metrics-format" => {
                self.metrics_format = match value("json or prom")?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    other => {
                        return Err(format!(
                            "--metrics-format takes json or prom, got {other:?}"
                        ))
                    }
                };
            }
            "--trace" => self.trace = Some(value("a path")?.into()),
            "--flight" => self.flight = Some(value("a path")?.into()),
            "--dossier-dir" => self.dossier_dir = Some(value("a directory")?.into()),
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Sets the flags up for a run: the trace epoch, the log level, the
    /// build stamp, the flight mirror, the dossier directory and the
    /// result cache. A `plan`, if given, is engaged before the cache
    /// opens. Returns the degradation ledger the run's exit code is read
    /// from.
    pub fn install(&self, plan: Option<FaultPlan>) -> Artifacts {
        // Pinned before any work, so every span starts inside the trace.
        let _ = obs::epoch();
        if self.quiet {
            obs::log::set_level(obs::log::Level::Quiet);
        }
        obs::set_build_info(obs::BuildInfo::detect(
            env!("CARGO_PKG_VERSION"),
            montecarlo::CHUNK_WIDTH,
        ));
        let mut artifacts = Artifacts::new();
        if let Some(path) = &self.flight {
            let mirrored = obs::flight::mirror_to(path).map_err(|source| io(path, source));
            if artifacts.install("flight event log", mirrored).is_some() {
                obs::info!("flight events mirrored to {}", path.display());
            }
        }
        if let Some(dir) = &self.dossier_dir {
            let set = obs::flight::set_dossier_dir(dir).map_err(|source| io(dir, source));
            if artifacts.install("crash dossiers", set).is_some() {
                obs::info!("crash dossiers will be written to {}", dir.display());
            }
        }
        if let Some(plan) = plan {
            obs::info!(
                "chaos: fault plan engaged (seed = {}, profile = {})",
                plan.seed(),
                plan.profile()
            );
            montecarlo::fault::install(plan);
        }
        if let Some(dir) = &self.cache {
            let opened = store::Store::open(dir)
                .map_err(|store::StoreError::Io { path, source }| io(&path, source));
            if let Some(s) = artifacts.install("result cache", opened) {
                obs::info!("result cache at {}", dir.display());
                store::install(std::sync::Arc::new(s));
            }
        }
        artifacts
    }

    /// Writes the `--trace` and `--metrics` exports, if asked for. Each
    /// is written atomically; a failed one joins `artifacts`.
    pub fn export(&self, artifacts: &mut Artifacts) {
        if let Some(path) = &self.trace {
            let written = write_export(path, || obs::export::chrome_trace(&obs::snapshot()));
            if artifacts.install("trace export", written).is_some() {
                obs::info!("chrome trace written to {}", path.display());
            }
        }
        if let Some(path) = &self.metrics {
            let written = write_export(path, || {
                let snapshot = obs::snapshot();
                match self.metrics_format {
                    MetricsFormat::Json => {
                        serde_json::to_string_pretty(&snapshot).expect("serializable snapshot")
                    }
                    MetricsFormat::Prom => obs::export::prometheus(&snapshot),
                }
            });
            if artifacts.install("metrics export", written).is_some() {
                obs::info!("metrics snapshot written to {}", path.display());
            }
        }
    }
}

fn io(path: &Path, source: std::io::Error) -> Error {
    Error::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Writes one export atomically. Under the chaos `export` profile every
/// attempt fails with a typed I/O error, the path a full disk or a
/// revoked permission would take.
fn write_export(path: &Path, render: impl FnOnce() -> String) -> Result<(), Error> {
    if montecarlo::fault::active().is_some_and(|p| p.export_fault()) {
        montecarlo::fault::ledger().note_injected_export_fault();
        return Err(io(
            path,
            std::io::Error::other("injected export fault (chaos)"),
        ));
    }
    write_atomic(path, &render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<(SharedFlags, Vec<String>), String> {
        let mut flags = SharedFlags::default();
        let mut rest = Vec::new();
        let mut args = words.iter().map(|w| (*w).to_owned());
        while let Some(arg) = args.next() {
            if !flags.parse_flag(&arg, &mut args)? {
                rest.push(arg);
            }
        }
        Ok((flags, rest))
    }

    #[test]
    fn parses_the_seven_flags_and_leaves_the_rest() {
        let (flags, rest) = parse(&[
            "--cache",
            "c",
            "--metrics",
            "m",
            "--metrics-format",
            "prom",
            "--trace",
            "t",
            "--flight",
            "f",
            "--dossier-dir",
            "d",
            "--quiet",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(flags.cache.as_deref(), Some(Path::new("c")));
        assert_eq!(flags.metrics.as_deref(), Some(Path::new("m")));
        assert_eq!(flags.metrics_format, MetricsFormat::Prom);
        assert_eq!(flags.trace.as_deref(), Some(Path::new("t")));
        assert_eq!(flags.flight.as_deref(), Some(Path::new("f")));
        assert_eq!(flags.dossier_dir.as_deref(), Some(Path::new("d")));
        assert!(flags.quiet);
        assert_eq!(rest, ["--seed", "7"]);
    }

    #[test]
    fn missing_and_malformed_values_are_usage_errors() {
        assert_eq!(
            parse(&["--cache"]).unwrap_err(),
            "--cache needs a directory"
        );
        assert_eq!(parse(&["--flight"]).unwrap_err(), "--flight needs a path");
        let err = parse(&["--metrics-format", "xml"]).unwrap_err();
        assert!(err.contains("json or prom"), "{err}");
    }
}
