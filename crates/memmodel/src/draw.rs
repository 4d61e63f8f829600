//! Counter-addressed uniforms: the one draw primitive of every seeded
//! kernel above this crate.
//!
//! A kernel draws a single `u64` *key* from the caller's RNG and reads
//! output `index` of the SplitMix64 stream seeded with that key as its
//! `index`-th uniform ([`addressed_uniform`]). Every uniform has its own
//! address, so a kernel may read them in any order, or skip those its
//! result does not depend on, and still agree bit for bit with a kernel
//! that reads them all in order. A Bernoulli(`p`) event is "the uniform is
//! below [`bool_threshold`]`(p)`".
//!
//! Two kernels key their draws this way: program generation (filler `j`
//! of a program is a store iff uniform `j` of the program key is below the
//! store threshold) and settling (swap attempt `k` of round `r` reads
//! uniform `r·2³² + k` of the settle key).

/// SplitMix64's increment, `2^64 / φ`.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the next output of the generator whose state is `z` (the
/// state advances by [`GOLDEN_GAMMA`] before mixing). Output `i` of the
/// stream seeded with `seed` is `splitmix64(seed + i·GOLDEN_GAMMA)`.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 53-bit uniform number `index` under key `key`: output `index` of
/// the SplitMix64 stream seeded with `key`, shifted right by 11.
#[must_use]
pub fn addressed_uniform(key: u64, index: u64) -> u64 {
    splitmix64(key.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA))) >> 11
}

/// Draw threshold of a zero probability: no 53-bit uniform is below it,
/// and the settle kernels break without reading one.
pub const BLOCKED: u64 = 0;

/// Draw threshold of probability one: every 53-bit uniform is below it,
/// and the settle kernels swap without reading one (matching `gen_bool`'s
/// `p >= 1.0` early return).
pub const CERTAIN: u64 = u64::MAX;

/// Converts a probability into its 53-bit integer draw threshold: a
/// Bernoulli(`p`) event happens iff a 53-bit uniform is below it.
///
/// # The 53-bit rounding contract
///
/// The threshold is exactly equivalent to `rng.gen_bool(p)` on the
/// vendored `rand`: `gen_bool(p)` compares
/// `(next_u64() >> 11) as f64 * 2^-53 < p`, and for `0 < p < 1` that
/// holds iff `next_u64() >> 11 < ceil(p * 2^53)` — the scaling by a power
/// of two is exact, and both sides are integers below `2^53`, where `f64`
/// is exact. So the hot kernels compare raw 53-bit draws against this
/// threshold as pure `u64` ops, with no float in the loop and no rounding
/// beyond the single `ceil`.
///
/// The endpoints are pinned, not rounded:
///
/// - `p <= 0.0` maps to [`BLOCKED`].
/// - `p >= 1.0` maps to [`CERTAIN`] (draws are `< 2^53`).
/// - Every denormal-adjacent `0 < p < 1` (down to `f64::MIN_POSITIVE` and
///   below) maps to a threshold in `[1, 2^53]`: never 0, never saturated,
///   because `ceil` of a positive value is at least 1 and `p < 1` keeps
///   the product below `2^53`.
#[must_use]
pub fn bool_threshold(p: f64) -> u64 {
    if p <= 0.0 {
        BLOCKED
    } else if p >= 1.0 {
        CERTAIN
    } else {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        {
            (p * (1u64 << 53) as f64).ceil() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressed_uniforms_are_the_splitmix_stream_of_the_key() {
        // The reference outputs of seed 0, then random access.
        let reference = [
            0xe220_a839_7b1d_cdaf_u64,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
        ];
        for (index, want) in (0u64..).zip(reference) {
            assert_eq!(splitmix64(index.wrapping_mul(GOLDEN_GAMMA)), want);
            assert_eq!(addressed_uniform(0, index), want >> 11);
        }
        assert_eq!(
            addressed_uniform(GOLDEN_GAMMA.wrapping_mul(5), 2),
            addressed_uniform(0, 7)
        );
    }

    #[test]
    fn bool_threshold_pins_the_endpoints() {
        assert_eq!(bool_threshold(0.0), BLOCKED);
        assert_eq!(bool_threshold(-0.0), BLOCKED);
        assert_eq!(bool_threshold(-1.0), BLOCKED);
        assert_eq!(bool_threshold(1.0), CERTAIN);
        assert_eq!(bool_threshold(2.0), CERTAIN);
    }

    #[test]
    fn bool_threshold_denormal_adjacent_probabilities_stay_interior() {
        // The smallest positive denormal still rounds up to threshold 1:
        // possible in principle, never BLOCKED.
        assert_eq!(bool_threshold(f64::from_bits(1)), 1);
        assert_eq!(bool_threshold(f64::MIN_POSITIVE), 1);
        // The largest p below 1.0 stays strictly below CERTAIN: it is
        // 1 - 2^-53, whose scaled value 2^53 - 1 is exact, so the top
        // draw value still rejects — interior p never saturates.
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let t = bool_threshold(below_one);
        assert_eq!(t, (1u64 << 53) - 1);
        assert_ne!(t, CERTAIN);
        assert_eq!(bool_threshold(2f64.powi(-60)), 1);
    }

    #[test]
    fn bool_threshold_matches_gen_bool_on_interior_probabilities() {
        // The contract: (draw >> 11) < threshold  <=>  gen_bool accepts.
        for p in [0.5, 0.25, 1.0 / 3.0, 0.9, 1e-9] {
            let t = bool_threshold(p);
            assert_eq!(t, (p * (1u64 << 53) as f64).ceil() as u64, "p={p}");
            // Boundary draws: t-1 accepts, t rejects (as floats, exactly).
            let accept = (t - 1) as f64 * (1.0 / (1u64 << 53) as f64);
            let reject = t as f64 * (1.0 / (1u64 << 53) as f64);
            assert!(accept < p, "p={p}: draw t-1 must accept");
            assert!(reject >= p, "p={p}: draw t must reject");
        }
        assert_eq!(bool_threshold(0.5), 1u64 << 52);
    }
}
