//! Fence operations — the §7 extension of the paper.
//!
//! The paper's core model "does not currently handle fence operations
//! explicitly", but §7 sketches how they fit: *"These fences act as one-way
//! barriers, allowing instructions to reorder into, but not out of, a
//! critical section. This behavior can be easily modeled using settling."*
//!
//! In the settling process instructions only ever move *up* (toward earlier
//! positions). A later instruction attempting to settle past a preceding
//! fence is subject to the fence's barrier direction:
//!
//! * [`FenceKind::Acquire`] — begins a critical section. Operations after it
//!   may not hoist above it (settling past it always fails); operations
//!   before it may be passed freely in the other direction, which the upward
//!   process never attempts.
//! * [`FenceKind::Release`] — ends a critical section. Operations after it
//!   *may* hoist above it (reordering **into** the section), so settling past
//!   it succeeds with the usual probability `s`.
//! * [`FenceKind::Full`] — a two-way barrier; nothing passes.
//!
//! Fences themselves never settle (they are synchronisation, not data
//! movement).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The kind of a fence operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FenceKind {
    /// One-way barrier opening a critical section (nothing hoists above it).
    Acquire,
    /// One-way barrier closing a critical section (later operations may
    /// hoist above it, into the section).
    Release,
    /// Two-way barrier (no operation passes in either direction).
    Full,
}

impl FenceKind {
    /// All fence kinds, for iteration.
    pub const ALL: [FenceKind; 3] = [FenceKind::Acquire, FenceKind::Release, FenceKind::Full];

    /// Whether a program-order-later operation may settle (hoist) past this
    /// fence.
    ///
    /// ```
    /// use memmodel::fence::FenceKind;
    /// assert!(FenceKind::Release.permits_hoist_above());
    /// assert!(!FenceKind::Acquire.permits_hoist_above());
    /// assert!(!FenceKind::Full.permits_hoist_above());
    /// ```
    #[must_use]
    pub const fn permits_hoist_above(self) -> bool {
        matches!(self, FenceKind::Release)
    }

    /// Whether a program-order-earlier operation may be observed after this
    /// fence (sink below it). The upward settling process never performs
    /// sinks directly, but the operational simulator (`execsim`) consults
    /// this when draining store buffers.
    #[must_use]
    pub const fn permits_sink_below(self) -> bool {
        matches!(self, FenceKind::Acquire)
    }

    /// Short mnemonic (`ACQ`, `REL`, `FENCE`).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            FenceKind::Acquire => "ACQ",
            FenceKind::Release => "REL",
            FenceKind::Full => "FENCE",
        }
    }
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing a [`FenceKind`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFenceKindError {
    input: String,
}

impl fmt::Display for ParseFenceKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fence kind {:?} (expected acq, rel, or fence)",
            self.input
        )
    }
}

impl std::error::Error for ParseFenceKindError {}

impl FromStr for FenceKind {
    type Err = ParseFenceKindError;

    fn from_str(s: &str) -> Result<FenceKind, ParseFenceKindError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "acq" | "acquire" => Ok(FenceKind::Acquire),
            "rel" | "release" => Ok(FenceKind::Release),
            "fence" | "full" | "mfence" => Ok(FenceKind::Full),
            _ => Err(ParseFenceKindError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_semantics() {
        // Release: into the section only (hoist above allowed).
        assert!(FenceKind::Release.permits_hoist_above());
        assert!(!FenceKind::Release.permits_sink_below());
        // Acquire: into the section only (sink below allowed).
        assert!(!FenceKind::Acquire.permits_hoist_above());
        assert!(FenceKind::Acquire.permits_sink_below());
        // Full: neither.
        assert!(!FenceKind::Full.permits_hoist_above());
        assert!(!FenceKind::Full.permits_sink_below());
    }

    #[test]
    fn parse_round_trips_mnemonics() {
        for k in FenceKind::ALL {
            assert_eq!(k.mnemonic().parse::<FenceKind>().unwrap(), k);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "sfence?".parse::<FenceKind>().unwrap_err();
        assert!(err.to_string().contains("unknown fence kind"));
    }

    #[test]
    fn full_is_strictest() {
        // A full fence permits strictly fewer motions than either one-way kind.
        let blocked =
            |k: FenceKind| u32::from(!k.permits_hoist_above()) + u32::from(!k.permits_sink_below());
        assert_eq!(blocked(FenceKind::Full), 2);
        assert_eq!(blocked(FenceKind::Acquire), 1);
        assert_eq!(blocked(FenceKind::Release), 1);
    }
}
