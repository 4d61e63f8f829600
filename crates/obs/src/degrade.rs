//! The shared unusable-artifact degradation contract.
//!
//! Every optional artifact flag (`--metrics`, `--trace`, `--flight`,
//! `--dossier-dir`, `--cache`) degrades the
//! same way when its path or address is unusable: the run continues and
//! produces results normally, a `warning: <artifact> disabled: <error>`
//! line goes to stderr, the `obs.degraded_artifacts` counter is bumped,
//! and the process exits with code [`EXIT_CODE`] *after* results print —
//! so a batch caller notices the missing artifact without losing the
//! computation. Both binaries funnel every such flag through one
//! [`Artifacts`] ledger instead of hand-rolling the warn/remember/exit
//! dance per flag.

/// Exit code for a run whose results are intact but one or more
/// requested artifacts could not be produced.
pub const EXIT_CODE: u8 = 2;

/// Accumulates unusable-artifact degradations over a process lifetime.
#[derive(Debug, Default)]
pub struct Artifacts {
    degraded: Vec<String>,
}

impl Artifacts {
    /// An empty ledger.
    #[must_use]
    pub const fn new() -> Artifacts {
        Artifacts {
            degraded: Vec::new(),
        }
    }

    /// Applies the degradation contract to one artifact installation
    /// attempt: `Ok` passes the value through; `Err` warns to stderr
    /// (`warning: <what> disabled: <error>`), bumps
    /// `obs.degraded_artifacts`, records the failure, and returns
    /// `None` — the run proceeds without the artifact.
    pub fn install<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("warning: {what} disabled: {e}");
                crate::global().counter("obs.degraded_artifacts").inc();
                self.degraded.push(format!("{what} disabled: {e}"));
                None
            }
        }
    }

    /// Whether any artifact degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// The recorded degradations, in occurrence order.
    #[must_use]
    pub fn degraded(&self) -> &[String] {
        &self.degraded
    }

    /// The deferred exit code: [`EXIT_CODE`] if anything degraded, else
    /// `ok`. Binaries call this after printing results.
    #[must_use]
    pub fn exit_code(&self, ok: u8) -> u8 {
        if self.is_degraded() {
            EXIT_CODE
        } else {
            ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_passes_through_without_degrading() {
        let mut a = Artifacts::new();
        assert_eq!(a.install::<u32, String>("result cache", Ok(7)), Some(7));
        assert!(!a.is_degraded());
        assert_eq!(a.exit_code(0), 0);
        assert_eq!(a.exit_code(3), 3);
    }

    #[test]
    fn err_warns_counts_and_defers_exit_2() {
        let _g = crate::test_ring_lock();
        crate::set_recording(true);
        let before = crate::global().counter("obs.degraded_artifacts").get();
        let mut a = Artifacts::new();
        let got: Option<u32> = a.install("flight event log", Err("denied".to_owned()));
        assert_eq!(got, None);
        let _: Option<u32> = a.install("result cache", Err("read-only".to_owned()));
        assert!(a.is_degraded());
        assert_eq!(a.degraded().len(), 2);
        assert!(a.degraded()[0].contains("flight event log disabled: denied"));
        assert_eq!(a.exit_code(0), 2);
        // Degradation outranks the "mismatched" exit code too.
        assert_eq!(a.exit_code(1), 2);
        assert_eq!(
            crate::global().counter("obs.degraded_artifacts").get(),
            before + 2
        );
    }
}
