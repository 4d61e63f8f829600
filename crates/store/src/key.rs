//! Canonical request keys.
//!
//! Every cacheable result in this workspace is a pure function of a small
//! request tuple: kernel version, reorder matrix, program/settle
//! parameters, seed, chunk width, trial count, and (for
//! sequential-stopping runs) the RSE target. This module serializes that
//! tuple into one *canonical string* — versioned, field-ordered, floats as
//! IEEE-754 bit patterns so formatting can never split the cache — and
//! hashes it into a stable 128-bit content address (FNV-1a 64 for the
//! first word, a SplitMix64 finalisation for the second).
//!
//! Two levels of key exist on purpose:
//!
//! * the **family** key ([`KeySpec::family_canon`]) omits the trial count
//!   and RSE target — every run over the same seeded kernel shares it, so
//!   a cached chunk prefix indexed by family can *extend* a larger or
//!   `with_target_rse` request;
//! * the **request** key ([`RequestKey::canon`]) appends both — an exact
//!   hit on it is a finished, bit-identical result.
//!
//! `crates/store/tests/golden_keys.rs` pins exact hash values, so any
//! accidental canonicalization change (field reorder, float formatting,
//! hash tweak) fails loudly instead of silently invalidating every cache.

/// The SplitMix64 finaliser of the RNG fan-out, used to mix the second
/// hash word.
pub use montecarlo::splitmix64;
use std::fmt;

/// Version tag of the simulation kernels whose outputs this cache stores.
///
/// **Bump this whenever a golden-pinned kernel changes** (settle, shift,
/// program generation, RNG fan-out, chunk tiling): the tag is folded into
/// every canonical string, so old cache contents become unreachable
/// instead of silently wrong. `v2`: settling draws one key per settle and
/// addresses every swap attempt's uniform from it. `v3`: a program draws
/// one key and addresses every filler type from it.
pub const KERNEL_VERSION: &str = "mmr-kernels-v3";

/// Canonical-string format version (the leading token of every canon).
/// `mmrk2`: the `lanes=` field is gone with the batch-lane kernels.
pub const CANON_VERSION: &str = "mmrk2";

/// The identity of one seeded kernel run family — everything that
/// determines the per-chunk trial streams except how many trials are
/// requested and when to stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpec {
    /// Kernel version tag plus result kind, e.g.
    /// `"mmr-kernels-v3/survival"` (kinds: `survival`, `windows`, `rb`).
    pub kernel: String,
    /// The reorder matrix in its canonical 4-character Table-1 form
    /// (`....` = SC, `.X..` = TSO, `XX..` = PSO, `XXXX` = WO).
    pub matrix: String,
    /// Program threads `n`.
    pub threads_n: u64,
    /// Filler length `m`.
    pub filler_m: u64,
    /// Store probability `p`, as IEEE-754 bits.
    pub p_bits: u64,
    /// The four per-pair settle probabilities in Table-1 column order
    /// (ST/ST, ST/LD, LD/ST, LD/LD), as IEEE-754 bits.
    pub settle_bits: [u64; 4],
    /// Release-fence pass probability, as IEEE-754 bits.
    pub fence_pass_bits: u64,
    /// Whether the critical load carries an acquire fence.
    pub acquire_fence: bool,
    /// Master RNG seed.
    pub seed: u64,
    /// Chunk width of the runner tiling (results depend on it).
    pub chunk_width: u64,
}

impl KeySpec {
    /// The canonical family string: versioned, fixed field order, floats
    /// as zero-padded hex bit patterns.
    #[must_use]
    pub fn family_canon(&self) -> String {
        let [s0, s1, s2, s3] = self.settle_bits;
        format!(
            "{CANON_VERSION}|kernel={}|matrix={}|n={}|m={}|p={:016x}|s={s0:016x},{s1:016x},{s2:016x},{s3:016x}|fence={:016x}|acq={}|seed={:016x}|cw={}",
            self.kernel,
            self.matrix,
            self.threads_n,
            self.filler_m,
            self.p_bits,
            self.fence_pass_bits,
            u8::from(self.acquire_fence),
            self.seed,
            self.chunk_width,
        )
    }

    /// Completes the family into a concrete request.
    #[must_use]
    pub fn request(&self, trials: u64, target_rse: Option<f64>) -> RequestKey {
        RequestKey {
            family: self.family_canon(),
            trials,
            rse_bits: target_rse.map(f64::to_bits),
        }
    }
}

/// One concrete cacheable request: a family plus the trial budget and the
/// optional sequential-stopping target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKey {
    /// The canonical family string ([`KeySpec::family_canon`]).
    pub family: String,
    /// Requested trials.
    pub trials: u64,
    /// `with_target_rse` target as IEEE-754 bits, if any.
    pub rse_bits: Option<u64>,
}

impl RequestKey {
    /// The canonical request string.
    #[must_use]
    pub fn canon(&self) -> String {
        match self.rse_bits {
            Some(bits) => format!("{}|trials={}|rse={bits:016x}", self.family, self.trials),
            None => format!("{}|trials={}|rse=-", self.family, self.trials),
        }
    }

    /// The content address of this request.
    #[must_use]
    pub fn hash(&self) -> KeyHash {
        KeyHash::of(&self.canon())
    }

    /// The content address of this request's family.
    #[must_use]
    pub fn family_hash(&self) -> KeyHash {
        KeyHash::of(&self.family)
    }
}

/// A 128-bit content address over a canonical string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHash(pub [u64; 2]);

impl KeyHash {
    /// Hashes a canonical string: FNV-1a 64 for the first word; the
    /// second word decorrelates via SplitMix64 over the first word xored
    /// with the byte length, so length-extension-style near-collisions of
    /// FNV cannot collide both words.
    #[must_use]
    pub fn of(canon: &str) -> KeyHash {
        let h1 = fnv1a64(canon.as_bytes());
        let h2 = splitmix64(h1 ^ (canon.len() as u64));
        KeyHash([h1, h2])
    }

    /// The 32-hex-digit rendering used as the on-disk/record key.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for KeyHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// FNV-1a, 64-bit: offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KeySpec {
        KeySpec {
            kernel: format!("{KERNEL_VERSION}/survival"),
            matrix: ".X..".into(),
            threads_n: 2,
            filler_m: 64,
            p_bits: 0.5f64.to_bits(),
            settle_bits: [0.5f64.to_bits(); 4],
            fence_pass_bits: 0.5f64.to_bits(),
            acquire_fence: false,
            seed: 20_110_606,
            chunk_width: 4096,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canon_is_deterministic_and_field_sensitive() {
        let a = spec();
        assert_eq!(a.family_canon(), spec().family_canon());
        let mut b = spec();
        b.seed += 1;
        assert_ne!(a.family_canon(), b.family_canon());
        let mut c = spec();
        c.acquire_fence = true;
        assert_ne!(a.family_canon(), c.family_canon());
    }

    #[test]
    fn request_canon_separates_trials_and_rse() {
        let s = spec();
        let plain = s.request(200_000, None);
        let more = s.request(300_000, None);
        let rse = s.request(200_000, Some(0.01));
        assert_ne!(plain.canon(), more.canon());
        assert_ne!(plain.canon(), rse.canon());
        // ...but all three share the family (the extension index).
        assert_eq!(plain.family, more.family);
        assert_eq!(plain.family, rse.family);
    }

    #[test]
    fn float_bits_not_formatting_enter_the_canon() {
        // 0.1 + 0.2 != 0.3 in bits; a formatted "0.3" would collide them.
        let mut a = spec();
        a.p_bits = (0.1f64 + 0.2f64).to_bits();
        let mut b = spec();
        b.p_bits = 0.3f64.to_bits();
        assert_ne!(a.family_canon(), b.family_canon());
    }

    #[test]
    fn hash_words_disagree_on_different_canons() {
        let a = spec().request(1000, None).hash();
        let b = spec().request(1001, None).hash();
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 32);
    }
}
