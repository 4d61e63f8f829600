//! A minimal leveled stderr logger for the workspace binaries.
//!
//! Three levels: `Quiet` (status lines suppressed), `Info` (the default
//! — what the binaries printed before this crate existed), and `Debug`.
//! Error/usage output in the binaries intentionally bypasses the logger
//! (plain `eprintln!`), so `--quiet` can never swallow a failure message
//! and exit-code behavior is unchanged. [`crate::set_recording`] does not
//! pause it: logging is part of the binaries' user interface, not of
//! metric collection.

use std::sync::atomic::{AtomicU8, Ordering};

/// Logger verbosity, ordered so that `level as u8` comparison works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Suppress status lines (errors still print via plain `eprintln!`).
    Quiet = 0,
    /// Normal status lines (default).
    Info = 1,
    /// Extra diagnostics.
    Debug = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide log level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide log level.
#[must_use]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Quiet,
        1 => Level::Info,
        _ => Level::Debug,
    }
}

/// Whether a message at `at` would currently be printed.
#[must_use]
pub fn enabled(at: Level) -> bool {
    at <= level() && at != Level::Quiet
}

/// Logs a status line to stderr at `Info` level. Prefer this over raw
/// `eprintln!` for anything `--quiet` should suppress.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            eprintln!($($arg)*);
        }
    };
}

/// Logs a diagnostic line to stderr at `Debug` level.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_correctly() {
        // Serialized against nothing: the only other level-touching test
        // is this one, and the default is restored at the end.
        set_level(Level::Quiet);
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        assert!(!enabled(Level::Quiet));
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Info));
        assert!(enabled(Level::Debug));
        set_level(Level::Info);
        assert_eq!(level(), Level::Info);
    }
}
