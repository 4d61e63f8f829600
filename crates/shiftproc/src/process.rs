//! Monte-Carlo simulation of the shift process.

use crate::Segment;
use rand::Rng;
use std::fmt;

/// The shift process: i.i.d. geometric translations of segments.
///
/// The canonical process uses success probability `1/2`
/// (`Pr[s = k] = 2^-(k+1)`), matching Appendix A.3's per-thread shift
/// distribution.
///
/// # Example
///
/// ```
/// use shiftproc::ShiftProcess;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(9);
/// let proc = ShiftProcess::canonical();
/// let segments = proc.shift(&[2, 2, 3], &mut rng);
/// assert_eq!(segments.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftProcess {
    q: f64,
}

impl ShiftProcess {
    /// The paper's canonical process (`q = 1/2`).
    #[must_use]
    pub fn canonical() -> ShiftProcess {
        ShiftProcess { q: 0.5 }
    }

    /// A process with geometric success probability `q ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the invalid value if `q` is outside `(0, 1]`.
    pub fn with_q(q: f64) -> Result<ShiftProcess, f64> {
        if q > 0.0 && q <= 1.0 {
            Ok(ShiftProcess { q })
        } else {
            Err(q)
        }
    }

    /// The geometric success probability.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Draws one geometric shift (`Pr[s = k] = q(1−q)^k`), one Bernoulli
    /// flip (one RNG draw) per trial.
    ///
    /// This is the *stream-defining* sampler: every seeded result in the
    /// workspace is expressed in terms of its draw sequence. Use
    /// [`sample_shift_fast`](ShiftProcess::sample_shift_fast) where raw
    /// throughput matters and stream compatibility does not.
    pub fn sample_shift<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut k = 0;
        while !rng.gen_bool(self.q) {
            k += 1;
        }
        k
    }

    /// Draws one geometric shift using one `u64` per ~64 flips.
    ///
    /// For the canonical `q = 1/2`, a uniform `u64` encodes 64 i.i.d. fair
    /// coin flips; the number of failures before the first success is its
    /// count of trailing zero bits (`Pr[tz = k] = 2^-(k+1)`), and an
    /// all-zero word (probability `2^-64`) means 64 failures and counting —
    /// draw again. One RNG draw replaces an expected two `gen_bool` draws
    /// *and* their float conversions. For general `q` this falls back to
    /// the flip loop.
    ///
    /// The sampled distribution is exactly that of [`sample_shift`]
    /// (ShiftProcess::sample_shift) — validated by a chi-squared
    /// goodness-of-fit test — but the RNG *draw count* differs, so the two
    /// samplers are not interchangeable mid-stream of a seeded run.
    pub fn sample_shift_fast<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.q != 0.5 {
            return self.sample_shift(rng);
        }
        let mut base = 0u64;
        loop {
            let word = rng.next_u64();
            if word != 0 {
                return base + u64::from(word.trailing_zeros());
            }
            base += 64;
        }
    }

    /// Shifts segments of the given lengths, returning them in input order.
    pub fn shift<R: Rng + ?Sized>(&self, lengths: &[u64], rng: &mut R) -> Vec<Segment> {
        let mut out = Vec::new();
        self.shift_into(lengths, &mut out, rng);
        out
    }

    /// [`shift`](ShiftProcess::shift) into a caller-provided buffer, which
    /// is cleared and refilled (allocation-free once grown).
    pub fn shift_into<R: Rng + ?Sized>(
        &self,
        lengths: &[u64],
        out: &mut Vec<Segment>,
        rng: &mut R,
    ) {
        out.clear();
        out.extend(
            lengths
                .iter()
                .map(|&len| Segment::new(self.sample_shift(rng), len)),
        );
    }

    /// Simulates one realisation of the disjointness event `A(γ̄)`.
    pub fn simulate_disjoint<R: Rng + ?Sized>(&self, lengths: &[u64], rng: &mut R) -> bool {
        let mut scratch = ShiftScratch::with_capacity(lengths.len());
        self.simulate_disjoint_into(lengths, &mut scratch, rng)
    }

    /// [`simulate_disjoint`](ShiftProcess::simulate_disjoint) with
    /// caller-provided scratch: the steady-state allocation-free kernel.
    ///
    /// Draw-for-draw identical to `simulate_disjoint`, including the early
    /// exit: on the first overlap the trial returns `false` *without*
    /// consuming the remaining shifts. The early exit is sound on both
    /// counts that matter:
    ///
    /// * **unbiasedness** — the undrawn shifts are independent of the
    ///   shifts already drawn, so skipping them cannot tilt the estimate of
    ///   `Pr[A]`;
    /// * **determinism** — each trial's draw count is a function of the
    ///   draws themselves, never of scratch contents or of which kernel
    ///   (scratch or allocating) ran, so seeded streams across trials stay
    ///   aligned between the two routes (asserted by the equivalence
    ///   regression tests).
    pub fn simulate_disjoint_into<R: Rng + ?Sized>(
        &self,
        lengths: &[u64],
        scratch: &mut ShiftScratch,
        rng: &mut R,
    ) -> bool {
        // Incremental check: test each new segment against all previous
        // (n is small in practice).
        let placed = &mut scratch.placed;
        placed.clear();
        for &len in lengths {
            let seg = Segment::new(self.sample_shift(rng), len);
            if placed.iter().any(|p| p.overlaps(&seg)) {
                return false;
            }
            placed.push(seg);
        }
        true
    }
}

/// Reusable buffers for the in-place shift kernels.
///
/// One scratch serves segment vectors of any size: the buffer grows to the
/// largest vector seen and is reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    /// Segments placed so far in the current trial.
    placed: Vec<Segment>,
}

impl ShiftScratch {
    /// An empty scratch; the first simulation sizes it.
    #[must_use]
    pub fn new() -> ShiftScratch {
        ShiftScratch { placed: Vec::new() }
    }

    /// A scratch pre-sized for `n` segments, so even the first simulation
    /// allocates nothing afterwards.
    #[must_use]
    pub fn with_capacity(n: usize) -> ShiftScratch {
        ShiftScratch {
            placed: Vec::with_capacity(n),
        }
    }
}

impl Default for ShiftProcess {
    fn default() -> ShiftProcess {
        ShiftProcess::canonical()
    }
}

impl fmt::Display for ShiftProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShiftProcess(q={})", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn rejects_bad_q() {
        assert!(ShiftProcess::with_q(0.0).is_err());
        assert!(ShiftProcess::with_q(1.1).is_err());
        assert!(ShiftProcess::with_q(1.0).is_ok());
    }

    #[test]
    fn q_one_never_shifts() {
        let p = ShiftProcess::with_q(1.0).unwrap();
        let mut r = rng(0);
        for _ in 0..50 {
            assert_eq!(p.sample_shift(&mut r), 0);
        }
        // All segments at origin: always overlapping for n ≥ 2.
        assert!(!p.simulate_disjoint(&[2, 2], &mut r));
    }

    #[test]
    fn shift_distribution_matches_geometric() {
        let p = ShiftProcess::canonical();
        let mut r = rng(1);
        let n = 200_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let s = p.sample_shift(&mut r);
            if (s as usize) < counts.len() {
                counts[s as usize] += 1;
            }
        }
        for (k, &c) in counts.iter().enumerate() {
            let expect = 2f64.powi(-(k as i32) - 1);
            let got = c as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "k={k}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn single_segment_always_disjoint() {
        let p = ShiftProcess::canonical();
        let mut r = rng(2);
        for _ in 0..100 {
            assert!(p.simulate_disjoint(&[5], &mut r));
            assert!(p.simulate_disjoint(&[], &mut r));
        }
    }

    #[test]
    fn shift_preserves_lengths_and_order() {
        let p = ShiftProcess::canonical();
        let segs = p.shift(&[1, 2, 3], &mut rng(3));
        assert_eq!(segs.iter().map(Segment::len).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn scratch_disjoint_is_bit_for_bit_identical() {
        // Equivalence regression: the scratch kernel must return the same
        // outcomes AND consume the RNG identically (same draw count), so
        // downstream draws of a seeded pipeline stay aligned whichever
        // route ran. Mixed lengths exercise the early exit on both sides.
        let p = ShiftProcess::canonical();
        let mut scratch = ShiftScratch::new();
        for seed in 0..20 {
            let mut old_rng = rng(seed);
            let mut new_rng = old_rng.clone();
            for lengths in [&[2u64, 2][..], &[3, 2, 4], &[0, 0, 0, 0], &[5], &[]] {
                for _ in 0..50 {
                    let old = p.simulate_disjoint(lengths, &mut old_rng);
                    let new = p.simulate_disjoint_into(lengths, &mut scratch, &mut new_rng);
                    assert_eq!(old, new, "outcome diverged on {lengths:?}");
                }
                assert_eq!(old_rng, new_rng, "RNG streams diverged on {lengths:?}");
            }
        }
    }

    #[test]
    fn shift_into_matches_shift() {
        let p = ShiftProcess::canonical();
        let mut a = rng(6);
        let mut b = a.clone();
        let mut buf = Vec::new();
        for _ in 0..100 {
            let owned = p.shift(&[1, 2, 3], &mut a);
            p.shift_into(&[1, 2, 3], &mut buf, &mut b);
            assert_eq!(owned, buf);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fast_sampler_general_q_falls_back_to_flip_loop() {
        // For q != 1/2 the fast sampler IS the flip loop: identical values
        // and identical RNG consumption.
        let p = ShiftProcess::with_q(0.3).unwrap();
        let mut a = rng(7);
        let mut b = a.clone();
        for _ in 0..200 {
            assert_eq!(p.sample_shift(&mut a), p.sample_shift_fast(&mut b));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fast_sampler_draws_one_word_per_64_flips() {
        // At q = 1/2 the fast sampler consumes exactly one u64 per draw
        // (an all-zero word has probability 2^-64 — unobservable here).
        let p = ShiftProcess::canonical();
        let mut counting = rng(8);
        let mut reference = counting.clone();
        for _ in 0..1_000 {
            let _ = p.sample_shift_fast(&mut counting);
            let _ = reference.next_u64();
        }
        assert_eq!(counting, reference);
    }

    #[test]
    fn longer_segments_are_less_likely_disjoint() {
        let p = ShiftProcess::canonical();
        let trials = 100_000;
        let count = |lens: &[u64], seed: u64| {
            let mut r = rng(seed);
            (0..trials).filter(|_| p.simulate_disjoint(lens, &mut r)).count()
        };
        let short = count(&[2, 2], 4);
        let long = count(&[6, 6], 5);
        assert!(long < short, "long {long} >= short {short}");
    }
}
