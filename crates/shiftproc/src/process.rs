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
    /// The success coin's 53-bit threshold `ceil(q·2^53)`: a draw succeeds
    /// iff `next_u64() >> 11` is below it ([`CERTAIN`] at `q = 1`).
    threshold: u64,
}

/// The threshold of a certain success: `sample_shift` draws nothing.
const CERTAIN: u64 = u64::MAX;

impl ShiftProcess {
    /// The paper's canonical process (`q = 1/2`).
    #[must_use]
    pub fn canonical() -> ShiftProcess {
        ShiftProcess::from_q(0.5)
    }

    /// The process of a `q` already checked to lie in `(0, 1]`. The
    /// threshold is `memmodel::bool_threshold`'s: `rng.gen_bool(q)` holds
    /// iff `next_u64() >> 11 < ceil(q·2^53)` for `q < 1` (both sides are
    /// integers below `2^53`, and scaling by `2^53` is exact), and
    /// `gen_bool(1.0)` holds without a draw.
    fn from_q(q: f64) -> ShiftProcess {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let threshold = if q >= 1.0 {
            CERTAIN
        } else {
            (q * (1u64 << 53) as f64).ceil() as u64
        };
        ShiftProcess { q, threshold }
    }

    /// A process with geometric success probability `q ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the invalid value if `q` is outside `(0, 1]`.
    pub fn with_q(q: f64) -> Result<ShiftProcess, f64> {
        if q > 0.0 && q <= 1.0 {
            Ok(ShiftProcess::from_q(q))
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
    /// flip (one RNG draw) per trial, none at `q = 1`.
    ///
    /// This is the *stream-defining* sampler: every seeded result in the
    /// workspace is expressed in terms of its draw sequence. Each flip is
    /// `rng.gen_bool(q)` draw for draw, compared as integers.
    pub fn sample_shift<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut k = 0;
        while self.threshold != CERTAIN && rng.next_u64() >> 11 >= self.threshold {
            k += 1;
        }
        k
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
        self.simulate_disjoint_lazy(lengths.len(), 0, |i| lengths[i], scratch, rng)
    }

    /// [`simulate_disjoint_into`](ShiftProcess::simulate_disjoint_into)
    /// over `n` segments whose lengths are read on demand: `length(i)` is
    /// called only when the shifts cannot decide an overlap with segment
    /// `i`, and every length must be at least `min_len`.
    ///
    /// Two closed segments with shifts `a ≤ b` overlap iff `b − a` is at
    /// most the length of the one at `a`, so a pair overlaps whatever its
    /// lengths when `b − a ≤ min_len`, and otherwise only the earlier
    /// segment's length decides it. Each new shift is first tested against
    /// every placed one by that gap alone; only then are lengths read. The
    /// outcome is that of `simulate_disjoint_into` on the same lengths, and
    /// the draws — one geometric per segment up to the first overlap — are
    /// the same, whichever lengths were read.
    pub fn simulate_disjoint_lazy<R, F>(
        &self,
        n: usize,
        min_len: u64,
        mut length: F,
        scratch: &mut ShiftScratch,
        rng: &mut R,
    ) -> bool
    where
        R: Rng + ?Sized,
        F: FnMut(usize) -> u64,
    {
        let starts = &mut scratch.starts;
        starts.clear();
        for i in 0..n {
            let b = self.sample_shift(rng);
            if starts.iter().any(|&a| a.abs_diff(b) <= min_len) {
                return false;
            }
            for (j, &a) in starts.iter().enumerate() {
                let len = length(if a < b { j } else { i });
                debug_assert!(len >= min_len, "length {len} below the bound {min_len}");
                if a.abs_diff(b) <= len {
                    return false;
                }
            }
            starts.push(b);
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
    /// Shifts of the segments placed so far in the current trial.
    starts: Vec<u64>,
}

impl ShiftScratch {
    /// An empty scratch; the first simulation sizes it.
    #[must_use]
    pub fn new() -> ShiftScratch {
        ShiftScratch { starts: Vec::new() }
    }

    /// A scratch pre-sized for `n` segments, so even the first simulation
    /// allocates nothing afterwards.
    #[must_use]
    pub fn with_capacity(n: usize) -> ShiftScratch {
        ShiftScratch {
            starts: Vec::with_capacity(n),
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
    use rand::{Rng, SeedableRng};

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
    fn integer_coin_is_the_gen_bool_loop_draw_for_draw() {
        // The old sampler, kept here as the reference.
        fn gen_bool_shift<R: Rng>(q: f64, rng: &mut R) -> u64 {
            let mut k = 0;
            while !rng.gen_bool(q) {
                k += 1;
            }
            k
        }
        let mut qs = vec![0.5, 0.3, 0.7, 0.999, 1.0, 0.001];
        let mut cases = rng(11);
        qs.extend((0..20).map(|_| cases.gen_range(0.01..=1.0)));
        // Every q in [1/2, 1) scales to an integer q·2^53; 0.3 and 0.001
        // do not, so their thresholds round up.
        let frac = |q: f64| (q * (1u64 << 53) as f64).fract();
        assert_eq!(frac(0.5), 0.0);
        assert_eq!(frac(0.7), 0.0);
        assert_ne!(frac(0.3), 0.0);
        assert_ne!(frac(0.001), 0.0);
        for (i, &q) in qs.iter().enumerate() {
            let p = ShiftProcess::with_q(q).unwrap();
            let mut old = rng(100 + i as u64);
            let mut new = old.clone();
            let samples = if q < 0.01 { 200 } else { 5_000 };
            for _ in 0..samples {
                assert_eq!(
                    p.sample_shift(&mut new),
                    gen_bool_shift(q, &mut old),
                    "q={q}"
                );
            }
            assert_eq!(new, old, "q={q}: RNG end states differ");
            if q < 1.0 {
                // A draw at the threshold fails and one just below it
                // succeeds, as under gen_bool's float comparison.
                let t = (q * (1u64 << 53) as f64).ceil() as u64;
                let draws = [t << 11 | 0x7ff, (t - 1) << 11];
                assert_eq!(p.sample_shift(&mut Scripted(draws.to_vec())), 1, "q={q}");
                assert_eq!(gen_bool_shift(q, &mut Scripted(draws.to_vec())), 1, "q={q}");
            }
        }
    }

    /// An RNG that replays a fixed list of draws.
    struct Scripted(Vec<u64>);

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
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
            assert!((got - expect).abs() < 0.01, "k={k}: {got} vs {expect}");
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

    /// The eager placement test: every length known up front, each new
    /// segment tested against the placed ones, stopping at the first
    /// overlap.
    fn eager_disjoint(p: &ShiftProcess, lengths: &[u64], rng: &mut SmallRng) -> bool {
        let mut placed: Vec<Segment> = Vec::new();
        for &len in lengths {
            let seg = Segment::new(p.sample_shift(rng), len);
            if placed.iter().any(|q| q.overlaps(&seg)) {
                return false;
            }
            placed.push(seg);
        }
        true
    }

    #[test]
    fn lazy_disjoint_is_eager_disjoint_and_reads_only_undecided_lengths() {
        let mut cases = rng(7);
        let mut scratch = ShiftScratch::new();
        let (mut reads, mut decided_by_gaps) = (0u64, 0u64);
        for _ in 0..20_000 {
            let p = ShiftProcess::with_q(1.0 - cases.gen::<f64>()).unwrap();
            let n = cases.gen_range(0..=8);
            let min_len = cases.gen_range(0..=3);
            let lengths: Vec<u64> = (0..n).map(|_| min_len + cases.gen_range(0..=6)).collect();
            let mut eager_rng = rng(cases.gen());
            let mut lazy_rng = eager_rng.clone();
            let eager = eager_disjoint(&p, &lengths, &mut eager_rng);
            let mut read = 0;
            let lazy = p.simulate_disjoint_lazy(
                n,
                min_len,
                |i| {
                    read += 1;
                    lengths[i]
                },
                &mut scratch,
                &mut lazy_rng,
            );
            assert_eq!(lazy, eager, "{p} on {lengths:?}");
            assert_eq!(
                lazy_rng, eager_rng,
                "RNG streams diverged: {p} on {lengths:?}"
            );
            assert_eq!(
                p.simulate_disjoint_into(&lengths, &mut scratch, &mut rng(1)),
                eager_disjoint(&p, &lengths, &mut rng(1))
            );
            reads += read;
            decided_by_gaps += u64::from(read == 0 && n >= 2);
        }
        assert!(
            reads > 0 && decided_by_gaps > 0,
            "reads {reads}, decided by gaps {decided_by_gaps}"
        );
    }

    #[test]
    fn two_segments_read_one_length_only_past_the_bound() {
        // Shifts differing by at most the bound overlap unread; otherwise
        // exactly the earlier segment's length is read.
        let p = ShiftProcess::canonical();
        let mut scratch = ShiftScratch::new();
        let mut r = rng(8);
        for _ in 0..2_000 {
            let mut probe = r.clone();
            let gap = p
                .sample_shift(&mut probe)
                .abs_diff(p.sample_shift(&mut probe));
            let mut read = Vec::new();
            p.simulate_disjoint_lazy(
                2,
                2,
                |i| {
                    read.push(i);
                    3
                },
                &mut scratch,
                &mut r,
            );
            assert_eq!(read.len(), usize::from(gap > 2), "gap {gap}: read {read:?}");
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
    fn longer_segments_are_less_likely_disjoint() {
        let p = ShiftProcess::canonical();
        let trials = 100_000;
        let count = |lens: &[u64], seed: u64| {
            let mut r = rng(seed);
            (0..trials)
                .filter(|_| p.simulate_disjoint(lens, &mut r))
                .count()
        };
        let short = count(&[2, 2], 4);
        let long = count(&[6, 6], 5);
        assert!(long < short, "long {long} >= short {short}");
    }
}
