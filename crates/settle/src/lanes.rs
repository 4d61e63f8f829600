//! Batch-lane settling: L independent trials advanced in lockstep.
//!
//! The scalar kernel ([`Settler::settle_into`] and friends) walks each
//! mover up with a data-dependent `while pos > 0` loop — one branchy climb
//! per instruction per trial. This module restructures the work across
//! *lanes*: a structure-of-arrays [`LaneScratch`] holds up to
//! [`MAX_LANES`] independent packed settle images position-major
//! (`img[pos * capacity + lane]`), and [`Settler::settle_lanes`] advances
//! every lane's round-`r` climb together, one masked compare/select/swap
//! per lane per lockstep step. Lanes whose climb has ended retire via an
//! all-ones/all-zero `active` mask; the draw thresholds are the same
//! 53-bit integers the scalar kernel uses (see
//! [`bool_threshold`](crate::bool_threshold)), so the pass test is a pure
//! `u64` compare the autovectorizer can chew — no `std::simd`, no
//! `unsafe`.
//!
//! # The lane draw stream
//!
//! Each lane draws from its **own** counter-seeded [`LaneRng`] stream (the
//! caller seeds lane `l` with a pure function of its global trial index).
//! A lane's draw count depends only on that lane's trajectory — retired
//! lanes consume nothing, because [`LaneRng::next_masked`] advances only
//! active lanes — so every trial's results are a pure function of its own
//! seed: bit-identical for any lane width, any thread count, and any
//! grouping of trials into blocks. This is a deliberately *different*
//! stream from the scalar kernels (which draw one settle key per settle
//! from a sequential RNG per chunk and address each attempt's uniform
//! from it; see the crate docs); the two paths
//! agree statistically, not bit-wise, and are validated against each other
//! by chi-square goodness-of-fit tests.
//!
//! Per trial, the stream is consumed in a fixed order:
//!
//! 1. **regeneration** — filler types ([`LaneScratch::regenerate`]): at
//!    the canonical `p = 1/2`, one word per 64 fillers (each bit is one
//!    type); otherwise one word per filler, compared against
//!    `bool_threshold(p)`;
//! 2. **settling** — one word per *active* lockstep step of each round,
//!    consumed by [`Settler::settle_lanes`];
//! 3. any downstream draws (e.g. the shift process) the caller takes from
//!    the same per-lane stream.

use crate::process::{
    bool_threshold, encode, BLOCKED, FENCE_FLAG, LOC_MASK, RELEASE_FLAG, ST_FLAG_SHIFT,
};
use crate::Settler;
use progmodel::Program;

/// Largest supported lane width.
pub const MAX_LANES: usize = 64;

/// Packed-image fence flag, shifted to the image's high word.
const F_FENCE: u64 = (FENCE_FLAG as u64) << 32;
/// Packed-image release flag, shifted to the image's high word.
const F_RELEASE: u64 = (RELEASE_FLAG as u64) << 32;
/// Packed-image St flag, shifted to the image's high word.
const F_ST: u64 = 1u64 << (32 + ST_FLAG_SHIFT);
/// Bit index of [`F_ST`].
const F_ST_BIT: u32 = 32 + ST_FLAG_SHIFT;
/// Packed-image location mask, shifted to the image's high word.
const M_LOC: u64 = (LOC_MASK as u64) << 32;
/// Low half of a packed word: the instruction's initial index.
const INDEX_MASK: u64 = 0xffff_ffff;

/// All-ones for `true`, all-zeros for `false` — the branchless select mask.
#[inline]
fn mask(b: bool) -> u64 {
    u64::from(b).wrapping_neg()
}

/// A structure-of-arrays xoshiro256++ generator: one independent stream
/// per lane, stepped together.
///
/// Each lane's stream is **bit-identical** to the vendored
/// `SmallRng::seed_from_u64(seed)` stream for the same seed (same
/// SplitMix64 state expansion, same all-zero-state guard, same output
/// function), so a width-1 `LaneRng` is interchangeable with a scalar
/// `SmallRng` draw-for-draw. Seed lanes with
/// [`montecarlo::trial_seed`]-style counter values to get the pure
/// per-trial streams the lane kernels are built on.
///
/// [`montecarlo::trial_seed`]: https://docs.rs/montecarlo
#[derive(Debug, Clone, Default)]
pub struct LaneRng {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
}

impl LaneRng {
    /// An empty generator; [`reseed`](LaneRng::reseed) sizes it.
    #[must_use]
    pub fn new() -> LaneRng {
        LaneRng::default()
    }

    /// A generator with state capacity for `width` lanes pre-allocated.
    #[must_use]
    pub fn with_capacity(width: usize) -> LaneRng {
        LaneRng {
            s0: Vec::with_capacity(width),
            s1: Vec::with_capacity(width),
            s2: Vec::with_capacity(width),
            s3: Vec::with_capacity(width),
        }
    }

    /// The current lane width (the length of the last
    /// [`reseed`](LaneRng::reseed)).
    #[must_use]
    pub fn width(&self) -> usize {
        self.s0.len()
    }

    /// Reseeds to one lane per entry of `seeds`, expanding each seed into
    /// xoshiro256++ state exactly as the vendored
    /// `SmallRng::seed_from_u64` does (SplitMix64 ×4, all-zero guard).
    pub fn reseed(&mut self, seeds: &[u64]) {
        self.s0.clear();
        self.s1.clear();
        self.s2.clear();
        self.s3.clear();
        for &seed in seeds {
            let mut state = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            self.s0.push(s[0]);
            self.s1.push(s[1]);
            self.s2.push(s[2]);
            self.s3.push(s[3]);
        }
    }

    /// Draws `words` words from every lane into `out`, word-major:
    /// lane `l`'s `j`-th word lands at `out[j * stride + l]`. All lanes
    /// advance (unmasked bulk fill).
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short for `words` rows of `stride` with
    /// [`width`](LaneRng::width) live columns.
    pub fn fill(&mut self, out: &mut [u64], words: usize, stride: usize) {
        let w = self.width();
        assert!(stride >= w, "stride {stride} below lane width {w}");
        for j in 0..words {
            let row = &mut out[j * stride..j * stride + w];
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = self.step_lane(l, u64::MAX);
            }
        }
    }

    /// Draws one word per lane into `out`, advancing **only** lanes whose
    /// mask in `active` is non-zero. Retired lanes keep their state and
    /// receive a stale (unusable) word — callers mask the result with the
    /// same `active` mask. This is what keeps each lane's draw count a
    /// pure function of its own trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `active` or `out` disagree with the lane width.
    pub fn next_masked(&mut self, active: &[u64], out: &mut [u64]) {
        let w = self.width();
        assert_eq!(active.len(), w, "active mask width mismatch");
        assert_eq!(out.len(), w, "output width mismatch");
        for l in 0..w {
            out[l] = self.step_lane(l, active[l]);
        }
    }

    /// One xoshiro256++ step of lane `l`; the new state is committed only
    /// under `m` (all-ones commits, all-zeros keeps the old state).
    #[inline]
    fn step_lane(&mut self, l: usize, m: u64) -> u64 {
        let (s0, s1, s2, s3) = (self.s0[l], self.s1[l], self.s2[l], self.s3[l]);
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        let n3 = n3.rotate_left(45);
        self.s0[l] = (s0 & !m) | (n0 & m);
        self.s1[l] = (s1 & !m) | (n1 & m);
        self.s2[l] = (s2 & !m) | (n2 & m);
        self.s3[l] = (s3 & !m) | (n3 & m);
        result
    }
}

/// Structure-of-arrays scratch for the batch-lane settle kernel.
///
/// Holds up to `capacity` independent packed settle images of one template
/// program, stored position-major (`img[pos * capacity + lane]`) so the
/// per-lane hot loop of [`Settler::settle_lanes`] strides unit distance
/// across lanes. The template's instruction *positions* are fixed; only
/// the filler LD/ST types vary per lane, redrawn by
/// [`regenerate`](LaneScratch::regenerate) directly into the packed image
/// (the St flag is one bit of the packed word).
#[derive(Debug, Clone)]
pub struct LaneScratch {
    /// Lane capacity (allocation width of every position-major buffer).
    capacity: usize,
    /// Lane width of the last [`regenerate`](LaneScratch::regenerate).
    width: usize,
    /// Template program length.
    len: usize,
    /// Packed template image in initial order, one word per position.
    base: Vec<u64>,
    /// Initial indices of the filler memory accesses, in program order.
    fillers: Vec<usize>,
    /// Whether the template contains a hoistable (release) fence.
    has_release: bool,
    /// Initial index of the critical load / store.
    ld_init: u64,
    st_init: u64,
    /// γ of the unsettled template (the SC fast-path answer).
    base_gamma: u64,
    /// Regenerated pristine images, `len × capacity` position-major.
    regen: Vec<u64>,
    /// Working images settled in place, `len × capacity` position-major.
    img: Vec<u64>,
    /// Per-lane draw buffer (`capacity`, reused for regen and settling).
    draws: Vec<u64>,
    /// Per-lane climb position of the current round.
    pos: Vec<usize>,
    /// Per-lane active mask (all-ones live, all-zeros retired).
    active: Vec<u64>,
    /// Per-lane draw thresholds for passing an earlier Ld / St.
    row_ld: Vec<u64>,
    row_st: Vec<u64>,
    /// Per-lane mover location, pre-shifted for direct image compares.
    mover_loc: Vec<u64>,
    /// Per-lane settled position of the critical load / store.
    gld: Vec<u64>,
    gst: Vec<u64>,
    /// Lockstep draw-steps executed since the last
    /// [`take_steps`](LaneScratch::take_steps).
    steps: u64,
}

impl LaneScratch {
    /// A scratch for up to `capacity` lanes of `template`.
    ///
    /// The template fixes everything but the filler types: instruction
    /// positions, fences, the critical pair. Construction allocates every
    /// buffer up front; [`regenerate`](LaneScratch::regenerate) and
    /// [`Settler::settle_lanes`] are allocation-free thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not in `1..=`[`MAX_LANES`], or the template
    /// is too large for the packed encoding.
    #[must_use]
    pub fn new(template: &Program, capacity: usize) -> LaneScratch {
        assert!(
            (1..=MAX_LANES).contains(&capacity),
            "lane capacity {capacity} outside 1..={MAX_LANES}"
        );
        assert!(
            u32::try_from(template.len()).is_ok(),
            "program too large for the packed settling image"
        );
        let len = template.len();
        let mut has_release = false;
        let mut fillers = Vec::new();
        let base: Vec<u64> = template
            .instructions()
            .iter()
            .enumerate()
            .map(|(i, ins)| {
                let item = encode(ins);
                has_release |= item & (FENCE_FLAG | RELEASE_FLAG) == FENCE_FLAG | RELEASE_FLAG;
                if !ins.is_critical() && !ins.is_fence() {
                    fillers.push(i);
                }
                (u64::from(item) << 32) | i as u64
            })
            .collect();
        let ld_init = template.critical_load_index() as u64;
        let st_init = template.critical_store_index() as u64;
        assert!(st_init > ld_init, "critical store precedes critical load");
        LaneScratch {
            capacity,
            width: 0,
            len,
            base,
            fillers,
            has_release,
            ld_init,
            st_init,
            base_gamma: st_init - ld_init - 1,
            regen: vec![0; len * capacity],
            img: vec![0; len * capacity],
            draws: vec![0; capacity],
            pos: vec![0; capacity],
            active: vec![0; capacity],
            row_ld: vec![0; capacity],
            row_st: vec![0; capacity],
            mover_loc: vec![0; capacity],
            gld: vec![0; capacity],
            gst: vec![0; capacity],
            steps: 0,
        }
    }

    /// The lane capacity this scratch was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lane width of the last [`regenerate`](LaneScratch::regenerate).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// γ of the unsettled template — the answer every lane returns when
    /// the settler cannot reorder anything (the SC fast path).
    #[must_use]
    pub fn base_gamma(&self) -> u64 {
        self.base_gamma
    }

    /// Redraws the filler types of the first `rng.width()` lanes with
    /// store probability `p`, writing St flags directly into the pristine
    /// per-lane images. Subsequent [`Settler::settle_lanes`] calls settle
    /// fresh copies of these images (one trial may settle them `n` times).
    ///
    /// Draw discipline (part of the lane stream contract): at `p = 1/2`
    /// each lane consumes `ceil(m / 64)` words — one *bit* per filler —
    /// otherwise `m` words, one per filler, compared against
    /// `bool_threshold(p)` (so `p = 0` and `p = 1` still consume `m`
    /// words; the draw count depends only on `p` and `m`, never on the
    /// outcomes).
    ///
    /// # Panics
    ///
    /// Panics if `rng.width()` exceeds the scratch capacity or is zero.
    pub fn regenerate(&mut self, p: f64, rng: &mut LaneRng) {
        let w = rng.width();
        assert!(w >= 1, "at least one lane");
        assert!(w <= self.capacity, "lane width {w} exceeds capacity {}", self.capacity);
        self.width = w;
        let cap = self.capacity;
        for (pos, &b) in self.base.iter().enumerate() {
            self.regen[pos * cap..pos * cap + w].fill(b);
        }
        let m = self.fillers.len();
        if m == 0 {
            return;
        }
        #[allow(clippy::float_cmp)]
        if p == 0.5 {
            // Canonical fast path: one draw word encodes 64 filler types.
            let words = m.div_ceil(64);
            self.ensure_draw_capacity(words * cap);
            rng.fill(&mut self.draws, words, cap);
            for (j, &f) in self.fillers.iter().enumerate() {
                let row = f * cap;
                let word_row = (j / 64) * cap;
                let bit = j % 64;
                for l in 0..w {
                    let st = (self.draws[word_row + l] >> bit) & 1;
                    let x = self.regen[row + l];
                    self.regen[row + l] = (x & !F_ST) | (st << F_ST_BIT);
                }
            }
        } else {
            let t = bool_threshold(p);
            self.ensure_draw_capacity(m * cap);
            rng.fill(&mut self.draws, m, cap);
            for (j, &f) in self.fillers.iter().enumerate() {
                let row = f * cap;
                let word_row = j * cap;
                for l in 0..w {
                    let st = u64::from((self.draws[word_row + l] >> 11) < t);
                    let x = self.regen[row + l];
                    self.regen[row + l] = (x & !F_ST) | (st << F_ST_BIT);
                }
            }
        }
    }

    /// Drains the lockstep draw-step counter (for the `mc.lanes.*`
    /// telemetry; each step drew one word per then-active lane).
    pub fn take_steps(&mut self) -> u64 {
        std::mem::take(&mut self.steps)
    }

    /// Grows the draw buffer to at least `len` words (no-op once grown).
    fn ensure_draw_capacity(&mut self, len: usize) {
        if self.draws.len() < len {
            self.draws.resize(len, 0);
        }
    }
}

impl Settler {
    /// Settles every regenerated lane image to completion in lockstep and
    /// writes each lane's window growth γ into `gammas`
    /// (`gammas.len()` must equal the scratch's regenerated width).
    ///
    /// Each call settles a **fresh copy** of the lane images laid down by
    /// [`LaneScratch::regenerate`], so one regenerated trial can be
    /// settled `n` times (the joined model's `n` threads). Rounds run as
    /// in the scalar kernel — round `r` climbs the instruction at
    /// position `r` — but all lanes advance together: one masked draw,
    /// compare, and swap per lane per lockstep step, with finished lanes
    /// retired via an active mask (their RNG lanes do not advance, see
    /// [`LaneRng::next_masked`]).
    ///
    /// Unlike the scalar kernel, an active step **always** consumes one
    /// draw, even against BLOCKED or CERTAIN thresholds — `draw < t`
    /// resolves both endpoints without a branch. The settler's inert fast
    /// path (no reorderable pair, no hoistable fence — SC canonically)
    /// returns [`LaneScratch::base_gamma`] for every lane without drawing
    /// at all, matching the scalar SC fast path.
    ///
    /// # Panics
    ///
    /// Panics if `gammas.len()` differs from the scratch width or the RNG
    /// lane width.
    pub fn settle_lanes(&self, scratch: &mut LaneScratch, rng: &mut LaneRng, gammas: &mut [u64]) {
        let w = gammas.len();
        assert_eq!(w, scratch.width, "gammas width != regenerated lane width");
        assert_eq!(w, rng.width(), "RNG width != lane width");
        let (t_eff, t_fence) = self.lane_tables();
        if !scratch.has_release && t_eff == [[BLOCKED; 2]; 2] {
            gammas.fill(scratch.base_gamma);
            return;
        }
        let cap = scratch.capacity;
        let len = scratch.len;
        let has_release = scratch.has_release;
        let (ld_init, st_init) = (scratch.ld_init, scratch.st_init);
        let mut steps = 0u64;
        scratch.img.copy_from_slice(&scratch.regen);
        let LaneScratch {
            img,
            draws,
            pos,
            active,
            row_ld,
            row_st,
            mover_loc,
            gld,
            gst,
            ..
        } = scratch;
        for r in 1..len {
            // Initialise the round: lane l's mover is its image word at
            // position r. Fence movers and movers with no passable pair
            // retire immediately (no draws), as in the scalar kernel.
            let mut any = false;
            for l in 0..w {
                let mv = img[r * cap + l];
                let mover_st = ((mv >> F_ST_BIT) & 1) as usize;
                let row = [t_eff[0][mover_st], t_eff[1][mover_st]];
                row_ld[l] = row[0];
                row_st[l] = row[1];
                mover_loc[l] = mv & M_LOC;
                pos[l] = r;
                let live = mv & F_FENCE == 0 && (has_release || row != [BLOCKED; 2]);
                active[l] = mask(live);
                any |= live;
            }
            if !any {
                continue;
            }
            for _ in 0..r {
                rng.next_masked(&active[..w], &mut draws[..w]);
                steps += 1;
                let mut still = 0u64;
                for l in 0..w {
                    let p = pos[l];
                    let pi = p.saturating_sub(1);
                    let above = img[pi * cap + l];
                    let cur = img[p * cap + l];
                    // Branchless threshold select, mirroring the scalar
                    // fence / same-location / row logic.
                    let above_fence = mask(above & F_FENCE != 0);
                    let release = mask(above & F_RELEASE != 0);
                    let same_loc = mask(above & M_LOC == mover_loc[l]);
                    let t_mem =
                        ((row_st[l] & mask(above & F_ST != 0)) | (row_ld[l] & mask(above & F_ST == 0)))
                            & !same_loc;
                    let t = (t_fence & release & above_fence) | (t_mem & !above_fence);
                    let pass = mask((draws[l] >> 11) < t) & active[l];
                    // Masked swap (aliasing at pos 0 is benign: pass is
                    // zero there because retired lanes never re-activate).
                    img[pi * cap + l] = (cur & pass) | (above & !pass);
                    img[p * cap + l] = (above & pass) | (cur & !pass);
                    let np = p - (pass & 1) as usize;
                    pos[l] = np;
                    let a = pass & mask(np > 0);
                    active[l] = a;
                    still |= a;
                }
                if still == 0 {
                    break;
                }
            }
        }
        // γ extraction: one position-major scan finds each lane's settled
        // critical-pair positions.
        gld[..w].fill(0);
        gst[..w].fill(0);
        for p in 0..len {
            let p64 = p as u64;
            let row = p * cap;
            for l in 0..w {
                let i = img[row + l] & INDEX_MASK;
                let is_ld = mask(i == ld_init);
                let is_st = mask(i == st_init);
                gld[l] = (p64 & is_ld) | (gld[l] & !is_ld);
                gst[l] = (p64 & is_st) | (gst[l] & !is_st);
            }
        }
        for (l, g) in gammas.iter_mut().enumerate() {
            *g = gst[l] - gld[l] - 1;
        }
        scratch.steps += steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::{MemoryModel, OpType};
    use progmodel::ProgramGenerator;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn template(m: usize) -> Program {
        Program::from_filler_types(&vec![OpType::Ld; m]).unwrap()
    }

    #[test]
    fn width_one_lane_rng_matches_smallrng() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut lane = LaneRng::new();
            lane.reseed(&[seed]);
            let mut scalar = SmallRng::seed_from_u64(seed);
            let mut out = [0u64; 1];
            for i in 0..200 {
                lane.fill(&mut out, 1, 1);
                assert_eq!(out[0], scalar.next_u64(), "seed {seed} draw {i}");
            }
        }
    }

    #[test]
    fn masked_lanes_do_not_advance() {
        let seeds = [7u64, 8];
        let mut a = LaneRng::new();
        let mut b = LaneRng::new();
        a.reseed(&seeds);
        b.reseed(&seeds);
        let mut out_a = [0u64; 2];
        let mut out_b = [0u64; 2];
        // a: both lanes advance once. b: only lane 0 advances.
        a.next_masked(&[u64::MAX, u64::MAX], &mut out_a);
        b.next_masked(&[u64::MAX, 0], &mut out_b);
        assert_eq!(out_a[0], out_b[0]);
        // Re-activating lane 1 of b yields the word lane 1 of a got first.
        let first_lane1 = out_a[1];
        b.next_masked(&[0, u64::MAX], &mut out_b);
        assert_eq!(out_b[1], first_lane1, "masked lane advanced");
    }

    #[test]
    fn lane_widths_agree_trial_for_trial() {
        // The same 8 trial seeds produce the same per-trial γ sequences
        // whether settled 1, 4, or 8 lanes at a time.
        let seeds: Vec<u64> = (0..8u64).map(|t| 0x9E37 ^ (t * 0x1234_5678_9abc)).collect();
        let tmpl = template(24);
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let mut by_width: Vec<Vec<u64>> = Vec::new();
            for width in [1usize, 4, 8] {
                let mut scratch = LaneScratch::new(&tmpl, width);
                let mut rng = LaneRng::with_capacity(width);
                let mut gammas = vec![0u64; width];
                let mut all = Vec::new();
                for group in seeds.chunks(width) {
                    rng.reseed(group);
                    scratch.regenerate(0.5, &mut rng);
                    settler.settle_lanes(&mut scratch, &mut rng, &mut gammas[..group.len()]);
                    all.extend_from_slice(&gammas[..group.len()]);
                }
                by_width.push(all);
            }
            assert_eq!(by_width[0], by_width[1], "{model}: width 1 vs 4");
            assert_eq!(by_width[0], by_width[2], "{model}: width 1 vs 8");
        }
    }

    #[test]
    fn partial_width_matches_full_width_prefix() {
        // Settling 3 of 8 seeds at width 3 gives the same three γs as the
        // first three lanes of a width-8 settle (per-trial purity).
        let seeds: Vec<u64> = (100..108u64).collect();
        let tmpl = template(16);
        let settler = Settler::for_model(MemoryModel::Wo);
        let run = |group: &[u64]| {
            let mut scratch = LaneScratch::new(&tmpl, 8);
            let mut rng = LaneRng::new();
            let mut gammas = vec![0u64; group.len()];
            rng.reseed(group);
            scratch.regenerate(0.5, &mut rng);
            settler.settle_lanes(&mut scratch, &mut rng, &mut gammas);
            gammas
        };
        let full = run(&seeds);
        let prefix = run(&seeds[..3]);
        assert_eq!(full[..3], prefix[..]);
    }

    #[test]
    fn inert_settler_returns_base_gamma_without_draws() {
        let tmpl = template(12);
        let settler = Settler::for_model(MemoryModel::Sc);
        let mut scratch = LaneScratch::new(&tmpl, 4);
        let mut rng = LaneRng::new();
        rng.reseed(&[1, 2, 3, 4]);
        scratch.regenerate(0.5, &mut rng);
        let snapshot = rng.clone();
        let mut gammas = [9u64; 4];
        settler.settle_lanes(&mut scratch, &mut rng, &mut gammas);
        assert_eq!(gammas, [scratch.base_gamma(); 4]);
        assert_eq!(gammas, [0; 4]);
        // The SC fast path must not touch any lane's stream.
        let (mut a, mut b) = (snapshot, rng);
        let (mut wa, mut wb) = ([0u64; 4], [0u64; 4]);
        a.next_masked(&[u64::MAX; 4], &mut wa);
        b.next_masked(&[u64::MAX; 4], &mut wb);
        assert_eq!(wa, wb, "inert settle consumed draws");
    }

    #[test]
    fn acquire_fence_pins_gamma_in_every_model() {
        let tmpl = template(16).with_acquire_before_critical();
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let mut scratch = LaneScratch::new(&tmpl, 8);
            let mut rng = LaneRng::new();
            rng.reseed(&(0..8u64).map(|t| t * 977 + 5).collect::<Vec<_>>());
            scratch.regenerate(0.5, &mut rng);
            let mut gammas = [u64::MAX; 8];
            settler.settle_lanes(&mut scratch, &mut rng, &mut gammas);
            assert_eq!(gammas, [0; 8], "{model}: fence failed to pin window");
        }
    }

    #[test]
    fn lane_gammas_stay_in_range_and_count_steps() {
        let tmpl = template(24);
        let settler = Settler::for_model(MemoryModel::Wo);
        let mut scratch = LaneScratch::new(&tmpl, 16);
        let mut rng = LaneRng::new();
        rng.reseed(&(0..16u64).map(|t| t.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect::<Vec<_>>());
        scratch.regenerate(0.5, &mut rng);
        let mut gammas = [0u64; 16];
        settler.settle_lanes(&mut scratch, &mut rng, &mut gammas);
        for &g in &gammas {
            assert!(g <= (tmpl.len() - 2) as u64, "γ {g} out of range");
        }
        assert!(scratch.take_steps() > 0, "WO settle must draw");
        assert_eq!(scratch.take_steps(), 0, "take_steps must drain");
    }

    #[test]
    fn regenerate_general_p_pins_endpoints() {
        // p = 0 makes every filler a load; p = 1 a store — via the general
        // (non-bit-packed) path, still consuming m words per lane.
        let tmpl = template(10);
        let mut scratch = LaneScratch::new(&tmpl, 2);
        let mut rng = LaneRng::new();
        for (p, want_st) in [(0.0, false), (1.0, true)] {
            rng.reseed(&[11, 12]);
            scratch.regenerate(p, &mut rng);
            for &f in &scratch.fillers {
                for l in 0..2 {
                    let st = scratch.regen[f * scratch.capacity + l] & F_ST != 0;
                    assert_eq!(st, want_st, "p={p} filler {f} lane {l}");
                }
            }
        }
    }

    #[test]
    fn lane_gamma_distribution_tracks_scalar() {
        // Coarse two-sided check per model: lane and scalar mean γ over
        // the same trial count agree within a few percent (the exact GOF
        // comparison lives in the core crate's tests).
        let m = 24;
        let trials = 4000u64;
        for model in [MemoryModel::Tso, MemoryModel::Pso, MemoryModel::Wo] {
            let settler = Settler::for_model(model);
            // Scalar reference.
            let gen = ProgramGenerator::new(m).with_store_probability(0.5).unwrap();
            let mut scalar_rng = SmallRng::seed_from_u64(99);
            let mut program = template(m);
            let mut scratch = crate::SettleScratch::new();
            let mut scalar_sum = 0u64;
            for _ in 0..trials {
                gen.regenerate(&mut program, &mut scalar_rng);
                scalar_sum += settler.sample_gamma_scratch(&program, &mut scratch, &mut scalar_rng);
            }
            // Lane path.
            let tmpl = template(m);
            let mut lanes = LaneScratch::new(&tmpl, 16);
            let mut rng = LaneRng::new();
            let mut gammas = [0u64; 16];
            let mut seeds = [0u64; 16];
            let mut lane_sum = 0u64;
            for block in 0..(trials / 16) {
                for (k, s) in seeds.iter_mut().enumerate() {
                    *s = (block * 16 + k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
                }
                rng.reseed(&seeds);
                lanes.regenerate(0.5, &mut rng);
                settler.settle_lanes(&mut lanes, &mut rng, &mut gammas);
                lane_sum += gammas.iter().sum::<u64>();
            }
            let scalar_mean = scalar_sum as f64 / trials as f64;
            let lane_mean = lane_sum as f64 / trials as f64;
            assert!(
                (scalar_mean - lane_mean).abs() < 0.35 * scalar_mean.max(0.5),
                "{model}: scalar mean {scalar_mean:.3} vs lane mean {lane_mean:.3}"
            );
        }
    }
}
