//! The lazy γ kernel: settles only the climbs the critical window depends
//! on.
//!
//! # Why most of a settle is irrelevant to γ
//!
//! Round `r` inserts instruction `x_r` into the settled prefix `S_{r-1}`
//! by climbing `c_r` positions. Counting depths from the bottom of the
//! prefix, the instruction at depth `d` after round `r` is
//!
//! ```text
//! Q(r, d) = Q(r-1, d)     if d < c_r   (x_r climbed past it)
//!         = x_r           if d = c_r
//!         = Q(r-1, d-1)   if d > c_r   (x_r settled below it)
//! ```
//!
//! and attempt `k` of round `r` asks whether `x_r` passes `Q(r-1, k)`.
//! So `c_r` depends only on the bottom `c_r + 1` instructions of
//! `S_{r-1}`, which depend on the bottom of earlier prefixes in turn —
//! the bottom-of-prefix structure behind Lemma 4.2's `L_µ` and Claim
//! 4.3. The window `γ` depends only on how far the critical LD and ST
//! climb, and on whether later movers pass them. With geometric climbs,
//! that is decided by the last few instructions of the prefix.
//!
//! # Deferred decisions
//!
//! Under the attempt-addressed draw contract (see
//! [`crate::attempt_draw`]) every swap attempt reads its own
//! uniform `U(r, k)`, addressed by the settle key, the round and the
//! attempt. No attempt's uniform depends on which other attempts were
//! read. The kernel can therefore evaluate the recurrence above on demand,
//! as backward queries "which instruction is at depth `d` after round
//! `r`?", and reveal an attempt only when a query needs it. Every value it
//! computes is a value the forward kernel computes for the same key, so
//! its γ is the forward kernel's γ bit for bit, not just in law. And since
//! it evaluates attempt `k` of round `r` only after revealing attempts
//! `0..k` of that round as successes, the attempts it evaluates are a
//! subset of those the forward kernel evaluates.
//!
//! Two shortcuts skip lookups entirely:
//!
//! * a fence mover, or a mover whose every passable threshold is BLOCKED,
//!   never climbs;
//! * a uniform at or above every threshold the mover could meet fails
//!   whatever sits above it.
//!
//! Per-round knowledge (successes revealed so far, and whether the climb
//! is known) lives in the scratch, so no attempt is evaluated twice. Walks
//! that are waiting on a lookup are kept on an explicit stack, so the
//! kernel never recurses, and it allocates nothing once the scratch has
//! grown to the program's length.
//!
//! # Long climbs
//!
//! A lookup walks down the rounds, one step per round, so its cost grows
//! with how far movers climb. At swap probabilities near 1 nearly every
//! climb is long, γ depends on most of the prefix, and the walks cost far
//! more than settling forward. The kernel therefore walks at most
//! `STEPS_PER_INSTRUCTION` (4) steps per instruction. Past that budget it
//! finishes the settle forward, reusing every climb it has revealed and
//! evaluating only the attempts it has not. Both halves read the same
//! attempt addresses, so γ is unchanged, and the attempts evaluated are
//! still a subset of the forward kernel's.

use crate::process::{attempt_draw, climb, image_gamma, Tables, BLOCKED, CERTAIN, FENCE_FLAG, ST_FLAG_SHIFT};

/// Knowledge-word flag: the round's climb is fully known. The remaining
/// bits hold the successes revealed so far.
const DONE: u32 = 1;

/// Lookup-walk steps per instruction before the kernel settles forward
/// instead. At the canonical `s = 1/2` no settle of the named models comes
/// near it; at `s ≥ 0.95` most do.
const STEPS_PER_INSTRUCTION: usize = 4;

/// The draw of a suspended attempt whose uniform is not read yet (53-bit
/// uniforms never equal it).
const UNREAD: u64 = u64::MAX;

/// A walk suspended on a lookup: at `(round, depth)` it needs the outcome
/// of the next unrevealed attempt of `round`, which waits for the
/// instruction above the mover. `draw` is the attempt's uniform, or
/// [`UNREAD`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    round: u32,
    depth: u32,
    draw: u64,
}

/// One lazy settle over a packed image in initial order.
pub(crate) struct Lazy<'s> {
    /// The packed program image, indexed by initial index.
    packed: &'s [u64],
    /// Per round: `successes << 1 | DONE`. All zero at the start.
    know: &'s mut [u32],
    /// Suspended walks, innermost last.
    stack: &'s mut Vec<Frame>,
    tables: &'s Tables,
    /// `tables.reach` for Ld and St movers.
    reach: [u64; 2],
    key: u64,
    /// Swap attempts decided.
    attempts: u64,
    /// Lookup-walk steps left before settling forward.
    budget: usize,
}

impl<'s> Lazy<'s> {
    /// A lazy settle with settle key `key`. `know` must be zeroed, one
    /// word per instruction, and `stack` empty.
    pub(crate) fn new(
        packed: &'s [u64],
        know: &'s mut [u32],
        stack: &'s mut Vec<Frame>,
        tables: &'s Tables,
        key: u64,
    ) -> Lazy<'s> {
        debug_assert_eq!(packed.len(), know.len());
        debug_assert!(stack.is_empty());
        Lazy {
            packed,
            know,
            stack,
            tables,
            reach: [tables.reach(0), tables.reach(1)],
            key,
            attempts: 0,
            budget: STEPS_PER_INSTRUCTION * packed.len(),
        }
    }

    /// Swap attempts decided so far (each by its uniform, by the
    /// instruction above, or both). An attempt suspended when the walk
    /// budget runs out is decided, and counted, by the forward finish.
    pub(crate) fn attempts(&self) -> u64 {
        self.attempts
    }

    /// The window growth `γ` of the settle, for the critical LD at initial
    /// index `ld` and the critical ST at `st`. `work` is the buffer of the
    /// forward finish.
    pub(crate) fn gamma(&mut self, ld: usize, st: usize, work: &mut Vec<u64>) -> u64 {
        self.gamma_within_budget(ld, st)
            .unwrap_or_else(|| self.finish_forward(ld, st, work))
    }

    /// [`gamma`](Lazy::gamma) by lookups alone, or `None` once the walk
    /// budget runs out.
    ///
    /// Tracks both depths through the rounds from `ld` on: a later mover
    /// that does not climb past an instruction pushes it one deeper.
    fn gamma_within_budget(&mut self, ld: usize, st: usize) -> Option<u64> {
        let mut ld_depth = self.climb(ld, u32::MAX)?;
        let mut st_depth = 0;
        for r in ld + 1..self.packed.len() {
            if r == st {
                // The critical ST stops below the critical LD at the latest.
                st_depth = self.climb(r, u32::MAX)?;
                ld_depth += 1;
            } else if r > st && self.climb(r, st_depth)? <= st_depth {
                st_depth += 1;
                ld_depth += 1;
            } else if self.climb(r, ld_depth)? <= ld_depth {
                ld_depth += 1;
            }
        }
        Some(u64::from(ld_depth - st_depth - 1))
    }

    /// Settles the whole program forward in `work`, replaying every climb
    /// already revealed and evaluating only the attempts that are not,
    /// then reads γ off the settled image.
    fn finish_forward(&mut self, ld: usize, st: usize, work: &mut Vec<u64>) -> u64 {
        self.stack.clear();
        work.clear();
        work.extend_from_slice(self.packed);
        for r in 0..work.len() {
            let know = self.know[r];
            let pos = r - (know >> 1) as usize;
            work[pos..=r].rotate_right(1);
            if know & DONE == 0 {
                self.attempts += climb(work, self.tables, self.key, r, pos);
            }
        }
        image_gamma(work, ld, st)
    }

    /// Reveals round `round`'s climb until it is known or exceeds `limit`,
    /// and returns the successes revealed: at most `limit` means the climb
    /// is exactly that. `None` once the walk budget runs out.
    fn climb(&mut self, round: usize, limit: u32) -> Option<u32> {
        // The walk's position: on the empty stack, the top-level round;
        // otherwise a lookup of "the instruction at depth d after round r".
        let (mut r, mut d) = (round, limit);
        loop {
            let know = self.know[r];
            let successes = know >> 1;
            if know & DONE == 0 && successes <= d {
                // The next attempt of round r decides where the walk goes.
                if let Some(draw) = self.open(r, successes) {
                    // Suspend, and look up what the mover meets: the
                    // instruction at depth `successes` after round r - 1.
                    #[allow(clippy::cast_possible_truncation)] // rounds fit u32 (see `load`)
                    self.stack.push(Frame {
                        round: r as u32,
                        depth: d,
                        draw,
                    });
                    r -= 1;
                    d = successes;
                }
                continue;
            }
            if self.stack.is_empty() {
                return Some(successes);
            }
            self.budget = self.budget.checked_sub(1)?;
            if successes > d {
                r -= 1;
            } else if successes < d {
                r -= 1;
                d -= 1;
            } else {
                // x_r itself sits at depth d: resume the suspended walk.
                let frame = self.stack.pop().expect("a suspended walk");
                self.close(frame, r);
                r = frame.round as usize;
                d = frame.depth;
            }
        }
    }

    /// Opens the next attempt (`k`) of round `r`. Returns `None` when it
    /// is decided without a lookup (recording the outcome), otherwise its
    /// uniform, or [`UNREAD`] when no uniform can fail it before the
    /// lookup.
    fn open(&mut self, r: usize, k: u32) -> Option<u64> {
        let mover = (self.packed[r] >> 32) as u32;
        if k as usize == r || mover & FENCE_FLAG != 0 {
            // At the top of the prefix, or a fence (fences never settle).
            self.know[r] = k << 1 | DONE;
            return None;
        }
        let reach = self.reach[((mover >> ST_FLAG_SHIFT) & 1) as usize];
        if reach == BLOCKED {
            self.know[r] = DONE;
            return None;
        }
        if reach == CERTAIN {
            return Some(UNREAD);
        }
        let u = attempt_draw(self.key, r, k as usize);
        if u >= reach {
            self.attempts += 1;
            self.know[r] = k << 1 | DONE;
            return None;
        }
        Some(u)
    }

    /// Decides the suspended attempt of `frame` now that the instruction
    /// above the mover is known to be `above` (an initial index).
    fn close(&mut self, frame: Frame, above: usize) {
        self.attempts += 1;
        let r = frame.round as usize;
        let k = self.know[r] >> 1;
        let t = self
            .tables
            .threshold((self.packed[above] >> 32) as u32, (self.packed[r] >> 32) as u32);
        let pass = t != BLOCKED
            && (t == CERTAIN || {
                let u = if frame.draw == UNREAD {
                    attempt_draw(self.key, r, k as usize)
                } else {
                    frame.draw
                };
                u < t
            });
        self.know[r] = if pass { (k + 1) << 1 } else { k << 1 | DONE };
    }
}

#[cfg(test)]
mod tests {
    use crate::{SettleScratch, Settler};
    use memmodel::fence::FenceKind;
    use memmodel::{MemoryModel, OpType, ReorderMatrix, SettleProbs};
    use progmodel::{Instruction, Location, Program};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A swap probability biased toward the edge cases: 0, 1, ½, and
    /// interior values down to the denormal-adjacent.
    fn probability(rng: &mut SmallRng) -> f64 {
        match rng.gen_range(0..6) {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            3 => f64::MIN_POSITIVE,
            _ => rng.gen(),
        }
    }

    /// A settler over a named or random custom matrix, with random
    /// per-pair probabilities and a fence-pass probability in {0, ½, 1}.
    fn settler(rng: &mut SmallRng) -> Settler {
        let matrix = match rng.gen_range(0..6) {
            i @ 0..=3 => MemoryModel::NAMED[i].matrix(),
            _ => ReorderMatrix::new(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
        };
        let probs = if rng.gen_bool(0.3) {
            SettleProbs::canonical()
        } else {
            SettleProbs::per_pair(probability(rng), probability(rng), probability(rng), probability(rng))
                .expect("valid probabilities")
        };
        Settler::new(matrix, probs)
            .with_fence_pass_probability([0.0, 0.5, 1.0][rng.gen_range(0..3)])
            .expect("valid fence probability")
    }

    /// A program of `m` fillers with the critical pair at the end or at
    /// random positions, and up to three fences anywhere — including
    /// after the critical ST.
    fn program(rng: &mut SmallRng, m: usize) -> Program {
        let mut instrs: Vec<Instruction> = (0..m)
            .map(|i| {
                let op = if rng.gen() { OpType::St } else { OpType::Ld };
                Instruction::mem(op, Location::filler(i))
            })
            .collect();
        if rng.gen_bool(0.5) {
            instrs.push(Instruction::critical_load());
            instrs.push(Instruction::critical_store());
        } else {
            let ld = rng.gen_range(0..=instrs.len());
            instrs.insert(ld, Instruction::critical_load());
            let st = rng.gen_range(ld + 1..=instrs.len());
            instrs.insert(st, Instruction::critical_store());
        }
        for _ in 0..rng.gen_range(0..=3) {
            let at = rng.gen_range(0..=instrs.len());
            instrs.insert(at, Instruction::fence(FenceKind::ALL[rng.gen_range(0..3)]));
        }
        Program::new(instrs).expect("valid program")
    }

    #[test]
    fn lazy_gamma_is_forward_gamma_and_reads_no_more_attempts() {
        // 10^4 programs × 10 (settler, key) draws = 10^5 cases.
        let mut rng = SmallRng::seed_from_u64(0x1a2e);
        let mut scratch = SettleScratch::new();
        let (mut cases, mut saved, mut finished_forward) = (0u64, 0u64, 0u64);
        for _ in 0..10_000 {
            let m = if rng.gen_bool(0.2) { rng.gen_range(0..=200) } else { rng.gen_range(0..=24) };
            let program = program(&mut rng, m);
            for _ in 0..10 {
                let settler = settler(&mut rng);
                let key = rng.gen();
                let ((forward, forward_attempts), (lazy, lazy_attempts), finished) =
                    scratch.forward_and_lazy(&settler, &program, key);
                finished_forward += u64::from(finished);
                assert_eq!(lazy, forward, "{settler:?} key {key:#x} on {program:?}");
                assert!(
                    lazy_attempts <= forward_attempts,
                    "lazy read {lazy_attempts} attempts, forward {forward_attempts}: \
                     {settler:?} key {key:#x} on {program:?}"
                );
                saved += forward_attempts - lazy_attempts;
                cases += 1;
            }
        }
        assert_eq!(cases, 100_000);
        assert!(saved > 0, "the lazy kernel never skipped an attempt");
        // Both halves of the kernel are exercised: most settles stay lazy,
        // and some long-climb settles run out of walk budget.
        assert!(finished_forward > 0 && finished_forward < cases / 2, "{finished_forward}");
    }
}
