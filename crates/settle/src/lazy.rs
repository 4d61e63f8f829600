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
//! # The walk
//!
//! One loop answers every query. At `(r, d)` it either knows where round
//! `r`'s mover sits relative to depth `d` and steps down a round, or it
//! opens the mover's next attempt. An attempt fails on the spot when the
//! mover never climbs (a fence, or a mover whose every threshold is
//! BLOCKED), sits at the top of the prefix, or draws a uniform at or above
//! its reach, every threshold it could meet. It passes on the spot when
//! the uniform is below its floor: the smallest threshold it could meet
//! from another location, over the instruction classes of the program (0
//! when the program holds a fence nothing passes, and always 0 under TSO
//! and PSO, which block some pair; their walk is compiled without the
//! floor test). Under WO every pair of locations swaps alike, so most of
//! its attempts are decided here, from the draw alone.
//! Otherwise the attempt is suspended, with its uniform, on a stack
//! pre-sized to the program, and the walk looks up the instruction above
//! the mover; when the lookup lands, one threshold lookup by (above class,
//! mover class) and one location compare decide the attempt, and the walk
//! resumes where it was suspended. The kernel never recurses, and
//! allocates nothing once the scratch has grown to the program's length.
//!
//! A floor decision never passes a mover over an access of its own
//! location. The encoding marks the accesses an earlier one shares a
//! location with `ALIASED`; in a program that is the critical ST alone,
//! whose only alias is the critical LD. An aliased mover takes the floor
//! only in the γ driver's climb of the critical ST, and only below the
//! critical LD's depth, which the driver tracks; everywhere else it looks
//! up what sits above. Each floor decision spends one step of the walk
//! budget below, as a lookup spends at least one: at `s = 1` every attempt
//! passes, and an uncharged climb could run the length of the prefix
//! for every round.
//!
//! Per-round knowledge (successes revealed so far, and whether the climb
//! is known) lives in the scratch, so no attempt is evaluated twice. A
//! settle clears it again only for the rounds its walk reached.
//!
//! # Long climbs
//!
//! A lookup walks down the rounds, one step per round, so its cost grows
//! with how far movers climb. At swap probabilities near 1 nearly every
//! climb is long, γ depends on most of the prefix, and the walks cost far
//! more than settling forward. The kernel therefore walks at most
//! `STEPS_PER_INSTRUCTION` (4) steps (lookup steps and floor decisions)
//! per instruction. Past that budget it
//! finishes the settle forward, reusing every climb it has revealed and
//! evaluating only the attempts it has not. Both halves read the same
//! attempt addresses, so γ is unchanged, and the attempts evaluated are
//! still a subset of the forward kernel's.
//!
//! # Keyed programs
//!
//! The kernel reads a program as the words of a [`crate::ProgramShape`],
//! each instruction decoded once into its class (load, store, fence kind)
//! and location. Over a materialised program the shape fixes every type.
//! Over a program given by its key ([`crate::Settler::sample_gammas_keyed`])
//! a filler's word is marked untyped until its first read types it from
//! the key, in the program's copy of the words kept across its settles —
//! the program-key analogue of the deferred decisions above, so a settle
//! types only the fillers its γ depends on.
//! One level up, [`crate::Settler::keyed_windows`] defers whole settles the
//! same way: a window is settled only when its caller first reads it.
//!
//! # Prefix observables
//!
//! The same lookups answer Section 4's questions about the bottom of a
//! settled prefix ([`crate::events`]): the run of stores at depths
//! `0, 1, …` after the prefix's last round is a loop of `Q(r, d)` lookups
//! at fixed `r`. Past the walk budget only the prefix is settled forward.

use crate::process::{
    attempt_draw, climb, image_gamma, is_store, ProgramShape, Tables, ALIASED, BLOCKED,
    ST_FLAG_SHIFT, UNTYPED,
};
use progmodel::filler_is_store;

/// Knowledge-word flag: the round's climb is fully known. The bits below
/// hold the successes revealed so far, so a round whose next attempt a walk
/// at depth `d` needs is one whose word is at most `d`.
const DONE: u32 = 1 << 31;

/// The depth limit of a climb revealed until it is known.
const UNLIMITED: u32 = DONE - 1;

/// Walk steps (lookup steps and floor decisions) per instruction before
/// the kernel settles forward instead. At the canonical `s = 1/2` no
/// settle of the named models comes near it; at `s ≥ 0.95` most do.
const STEPS_PER_INSTRUCTION: usize = 4;

/// A suspended attempt: the next attempt of round `round`, whose mover has
/// packed word `mover` and uniform `draw`, waits for the instruction above
/// the mover; the walk was at depth `depth` of `round` when it opened it.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    draw: u64,
    round: u32,
    depth: u32,
    mover: u32,
}

/// One program over a [`ProgramShape`]: the shape's words, with each
/// filler typed from the program key on its first read.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramWords {
    /// The program key the fillers are typed from.
    key: u64,
    store_threshold: u64,
    /// The packed words read so far; empty until the first read.
    words: Vec<u32>,
}

impl ProgramWords {
    /// Buffers pre-sized for programs of `len` instructions.
    pub(crate) fn with_capacity(len: usize) -> ProgramWords {
        ProgramWords {
            words: Vec::with_capacity(len),
            ..ProgramWords::default()
        }
    }

    /// Forgets every filler type: the program of key `key`, over the shape
    /// of the next settle.
    pub(crate) fn reset(&mut self, key: u64, store_threshold: u64) {
        self.key = key;
        self.store_threshold = store_threshold;
        self.words.clear();
    }

    /// Copies the shape's words on a settle of a program not read yet.
    #[inline(always)]
    fn load(&mut self, shape: &ProgramShape) {
        if self.words.is_empty() {
            self.words.extend_from_slice(&shape.words);
        }
    }

    /// The packed word of instruction `i` of the program, typing it first
    /// if it is an untyped filler.
    #[inline(always)]
    fn word(&mut self, shape: &ProgramShape, i: usize) -> u32 {
        let word = self.words[i];
        if word & UNTYPED == 0 {
            word
        } else {
            self.type_filler(shape, i)
        }
    }

    /// Types filler `i` from the program key, and returns its word.
    #[inline(never)]
    fn type_filler(&mut self, shape: &ProgramShape, i: usize) -> u32 {
        let store = filler_is_store(self.key, shape.fillers[i] as usize, self.store_threshold);
        let word = (self.words[i] & !UNTYPED) | u32::from(store) << ST_FLAG_SHIFT;
        self.words[i] = word;
        word
    }
}

/// Reusable buffers of the lazy kernel.
#[derive(Debug, Clone, Default)]
pub(crate) struct LazyScratch {
    /// Per round: the successes revealed, `| DONE` once the climb is known;
    /// all zero between settles.
    know: Vec<u32>,
    /// Suspended attempts, one slot per round.
    stack: Vec<Frame>,
    /// The forward-finish image; empty unless the last settle finished
    /// forward.
    work: Vec<u64>,
}

impl LazyScratch {
    /// Buffers pre-sized for programs of `len` instructions.
    pub(crate) fn with_capacity(len: usize) -> LazyScratch {
        LazyScratch {
            know: vec![0; len],
            stack: vec![Frame::default(); len],
            work: Vec::with_capacity(len),
        }
    }

    /// The lazy kernel's `γ` for settle key `key` of `program` over
    /// `shape`, with the number of swap attempts it decided.
    pub(crate) fn gamma(
        &mut self,
        shape: &ProgramShape,
        program: &mut ProgramWords,
        tables: &Tables,
        key: u64,
    ) -> (u64, u64) {
        // A settler that blocks some pair (SC, TSO, PSO), or a program with
        // a fence nothing passes, has no floor: its walk leaves the floor
        // test out of the loop.
        if tables.has_floor() {
            self.gamma_walk::<true>(shape, program, tables, key)
        } else {
            self.gamma_walk::<false>(shape, program, tables, key)
        }
    }

    /// [`LazyScratch::gamma`] by a walk with or without floor decisions.
    fn gamma_walk<const FLOOR: bool>(
        &mut self,
        shape: &ProgramShape,
        program: &mut ProgramWords,
        tables: &Tables,
        key: u64,
    ) -> (u64, u64) {
        let len = shape.len();
        let (ld, st) = (shape.image.ld, shape.image.st);
        let mut walk = self.start::<FLOOR>(shape, program, tables, key, len);
        let gamma = walk.gamma_within_budget(ld, st).unwrap_or_else(|| {
            walk.settle_forward(len);
            image_gamma(walk.work, ld, st)
        });
        (gamma, walk.finish(len))
    }

    /// The number of stores at the bottom of the settled prefix after
    /// `rounds` rounds (depths `0, 1, …` up to the first non-store),
    /// counting at most `cap`, for settle key `key` of `program` over
    /// `shape`, with the number of swap attempts it decided.
    ///
    /// Each depth is a lookup `Q(rounds - 1, d)`, so only the climbs the
    /// bottom of the prefix depends on are settled. Past the walk budget
    /// (`STEPS_PER_INSTRUCTION` per prefix round) the prefix, and only the
    /// prefix, is settled forward instead. Both halves read the forward
    /// kernel's attempt addresses, so the count is the forward prefix's
    /// bit for bit.
    pub(crate) fn store_run(
        &mut self,
        shape: &ProgramShape,
        program: &mut ProgramWords,
        tables: &Tables,
        key: u64,
        rounds: usize,
        cap: usize,
    ) -> (u64, u64) {
        if tables.has_floor() {
            self.store_run_walk::<true>(shape, program, tables, key, rounds, cap)
        } else {
            self.store_run_walk::<false>(shape, program, tables, key, rounds, cap)
        }
    }

    /// [`LazyScratch::store_run`] by a walk with or without floor
    /// decisions.
    fn store_run_walk<const FLOOR: bool>(
        &mut self,
        shape: &ProgramShape,
        program: &mut ProgramWords,
        tables: &Tables,
        key: u64,
        rounds: usize,
        cap: usize,
    ) -> (u64, u64) {
        debug_assert!(cap <= rounds && rounds <= shape.len());
        let mut walk = self.start::<FLOOR>(shape, program, tables, key, rounds);
        let run = walk
            .store_run_within_budget(rounds, cap)
            .unwrap_or_else(|| {
                walk.settle_forward(rounds);
                let bottom = walk.work.iter().rev().take(cap);
                bottom
                    .take_while(|&&entry| is_store((entry >> 32) as u32))
                    .count() as u64
            });
        (run, walk.finish(rounds))
    }

    /// A lazy settle of the first `rounds` rounds with nothing revealed.
    #[inline(always)]
    fn start<'s, const FLOOR: bool>(
        &'s mut self,
        shape: &'s ProgramShape,
        program: &'s mut ProgramWords,
        tables: &'s Tables,
        key: u64,
        rounds: usize,
    ) -> Walk<'s, FLOOR> {
        program.load(shape);
        if self.know.len() < rounds {
            self.grow(rounds);
        }
        self.work.clear();
        Walk {
            shape,
            program,
            tables,
            know: &mut self.know,
            stack: &mut self.stack,
            work: &mut self.work,
            key,
            attempts: 0,
            budget: STEPS_PER_INSTRUCTION * rounds,
            low: rounds,
        }
    }

    /// Sizes the buffers for programs of `len` instructions.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        self.know.resize(len, 0);
        self.stack.resize(len, Frame::default());
    }

    /// Whether the last settle ran out of walk budget and finished
    /// forward.
    #[cfg(test)]
    pub(crate) fn finished_forward(&self) -> bool {
        !self.work.is_empty()
    }
}

/// One lazy settle of a program in initial order, deciding attempts below
/// the mover's floor on the spot when `FLOOR`.
struct Walk<'s, const FLOOR: bool> {
    shape: &'s ProgramShape,
    program: &'s mut ProgramWords,
    tables: &'s Tables,
    /// Per round: the successes revealed, `| DONE` once the climb is
    /// known. All zero at the start.
    know: &'s mut [u32],
    /// Suspended attempts, innermost last; as long as `know`, since their
    /// rounds strictly decrease.
    stack: &'s mut [Frame],
    /// The buffer of the forward finish.
    work: &'s mut Vec<u64>,
    key: u64,
    /// Swap attempts decided.
    attempts: u64,
    /// Walk steps (lookup steps and floor decisions) left before settling
    /// forward.
    budget: usize,
    /// The lowest round whose knowledge the walk may have written.
    low: usize,
}

impl<const FLOOR: bool> Walk<'_, FLOOR> {
    /// The packed word of instruction `i`.
    #[inline(always)]
    fn word(&mut self, i: usize) -> u32 {
        self.program.word(self.shape, i)
    }

    /// Clears the knowledge of the rounds below `top` the walk reached,
    /// and returns the swap attempts it decided.
    fn finish(self, top: usize) -> u64 {
        self.know[self.low.min(top)..top].fill(0);
        self.attempts
    }

    /// [`LazyScratch::gamma`] by lookups alone, or `None` once the walk
    /// budget runs out, for the critical LD at initial index `ld` and the
    /// critical ST at `st`.
    ///
    /// Tracks both depths through the rounds from `ld` on: a later mover
    /// that does not climb past an instruction pushes it one deeper.
    fn gamma_within_budget(&mut self, ld: usize, st: usize) -> Option<u64> {
        let (mut ld_depth, mut st_depth) = (0, 0);
        for r in ld..self.shape.len() {
            // The critical pair climb as far as they go; a later mover
            // matters only as far as the critical LD's depth (revealing it
            // in one climb decides the same attempts as first revealing it
            // to the critical ST's depth).
            let limit = if r == ld || r == st {
                u32::MAX
            } else {
                ld_depth
            };
            // The critical ST's only alias, the critical LD, sits at depth
            // `ld_depth`: every attempt below it meets another location.
            let clear = if r == st { ld_depth } else { 0 };
            let climbed = self.climb(r, limit, clear)?;
            if r == ld {
                ld_depth = climbed;
            } else if r == st {
                // The critical ST stops below the critical LD at the latest.
                st_depth = climbed;
                ld_depth += 1;
            } else if r > st && climbed <= st_depth {
                st_depth += 1;
                ld_depth += 1;
            } else if climbed <= ld_depth {
                ld_depth += 1;
            }
        }
        Some(u64::from(ld_depth - st_depth - 1))
    }

    /// Settles the first `rounds` rounds forward in `work` (the prefix
    /// `S_{rounds-1}`, in settled order), replaying every climb already
    /// revealed and evaluating only the attempts that are not.
    ///
    /// The rare fallback of both kernels: kept out of line so that it
    /// does not weigh on the walk's code.
    #[cold]
    #[inline(never)]
    fn settle_forward(&mut self, rounds: usize) {
        self.work.clear();
        for i in 0..rounds {
            let word = self.word(i);
            self.work.push(u64::from(word) << 32 | i as u64);
        }
        for r in 0..rounds {
            let know = self.know[r];
            let pos = r - (know & !DONE) as usize;
            self.work[pos..=r].rotate_right(1);
            if know & DONE == 0 {
                self.attempts += climb(self.work, self.tables, self.key, r, pos);
            }
        }
        self.low = 0;
    }

    /// [`LazyScratch::store_run`] by lookups alone, or `None` once the walk
    /// budget runs out.
    fn store_run_within_budget(&mut self, rounds: usize, cap: usize) -> Option<u64> {
        let mut run = 0;
        while run < cap {
            #[allow(clippy::cast_possible_truncation)] // depths fit u32 (see `encode_with`)
            let i = self.lookup(rounds - 1, run as u32)?;
            if !is_store(self.word(i)) {
                break;
            }
            run += 1;
        }
        Some(run as u64)
    }

    /// `Q(r, d)`: the initial index of the instruction at depth `d` (from
    /// the bottom) of the settled prefix after round `r`, by walking down
    /// the rounds. `None` once the walk budget runs out.
    fn lookup(&mut self, mut r: usize, mut d: u32) -> Option<usize> {
        loop {
            let climbed = self.climb(r, d, 0)?;
            if climbed == d {
                return Some(r);
            }
            if climbed < d {
                d -= 1;
            }
            r -= 1;
        }
    }

    /// Reveals round `round`'s climb until it is known or exceeds `limit`,
    /// and returns the successes revealed: at most `limit` means the climb
    /// is exactly that. `None` once the walk budget runs out. An
    /// [`ALIASED`] mover of round `round` meets no access of its location
    /// below depth `clear`.
    #[inline(always)]
    fn climb(&mut self, round: usize, limit: u32, clear: u32) -> Option<u32> {
        // The walk's position: with nothing suspended, the top-level round;
        // otherwise a lookup of "the instruction at depth d after round r".
        let (mut r, mut d) = (round, limit.min(UNLIMITED));
        let mut suspended = 0;
        self.low = self.low.min(r);
        let mut know = self.know[r];
        loop {
            if know <= d {
                // Attempt k of round r decides where the walk goes. It fails
                // on the spot at the top of the prefix, for a mover that
                // never climbs, or for a uniform at or above its reach. It
                // passes on the spot for a uniform below its floor, unless
                // what sits above may share the mover's location.
                let k = know;
                let mover = self.word(r);
                let reach = self.tables.reach(mover);
                if k as usize != r && reach != BLOCKED {
                    let draw = attempt_draw(self.key, r, k as usize);
                    if draw < reach {
                        if FLOOR
                            && draw < self.tables.floor(mover)
                            && (mover & ALIASED == 0 || (suspended == 0 && k < clear))
                        {
                            self.budget = self.budget.checked_sub(1)?;
                            self.attempts += 1;
                            know = k + 1;
                            self.know[r] = know;
                            continue;
                        }
                        // Suspend, and look up what the mover meets: the
                        // instruction at depth k after round r - 1. Rounds
                        // fit u32 (see `encode_with`).
                        #[allow(clippy::cast_possible_truncation)]
                        let frame = Frame {
                            draw,
                            round: r as u32,
                            depth: d,
                            mover,
                        };
                        self.stack[suspended] = frame;
                        suspended += 1;
                        r -= 1;
                        d = k;
                        self.low = self.low.min(r);
                        know = self.know[r];
                        continue;
                    }
                    self.attempts += 1;
                }
                know = k | DONE;
                self.know[r] = know;
            }
            let k = know & !DONE;
            if suspended == 0 {
                return Some(k);
            }
            self.budget = self.budget.checked_sub(1)?;
            if k != d {
                if k < d {
                    d -= 1;
                }
                r -= 1;
                self.low = self.low.min(r);
                know = self.know[r];
                continue;
            }
            // x_r itself sits at depth d: it is above the suspended mover,
            // which passes it iff its uniform is below the pair's threshold.
            suspended -= 1;
            let frame = self.stack[suspended];
            let mover = frame.round as usize;
            self.attempts += 1;
            let threshold = self.tables.threshold(self.word(r), frame.mover);
            let k = self.know[mover];
            know = if frame.draw < threshold {
                k + 1
            } else {
                k | DONE
            };
            self.know[mover] = know;
            r = mover;
            d = frame.depth;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{LazyScratch, ProgramWords};
    use crate::process::{image_gamma, is_store, settle_packed, ALIASED, FENCE_FLAG, LOC_MASK};
    use crate::{events, ProgramShape, SettleScratch, Settler};
    use memmodel::fence::FenceKind;
    use memmodel::{MemoryModel, OpType, ReorderMatrix, SettleProbs};
    use progmodel::{Instruction, Location, Program, ProgramGenerator};
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
            SettleProbs::per_pair(
                probability(rng),
                probability(rng),
                probability(rng),
                probability(rng),
            )
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
            let m = if rng.gen_bool(0.2) {
                rng.gen_range(0..=200)
            } else {
                rng.gen_range(0..=24)
            };
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
        assert!(
            finished_forward > 0 && finished_forward < cases / 2,
            "{finished_forward}"
        );
    }

    /// The pinned lazy settles: 10^5 `(γ or store run, attempts decided,
    /// finished forward)`, per program one materialised settle, two keyed
    /// settles of one program key and two keyed store runs.
    fn pinned_settles(mut visit: impl FnMut((u64, u64, bool))) {
        let mut rng = SmallRng::seed_from_u64(0x9e11);
        let mut scratch = SettleScratch::new();
        for _ in 0..20_000 {
            let m = match rng.gen_range(0..10) {
                0..=1 => rng.gen_range(0..=200),
                2..=3 => 64,
                _ => rng.gen_range(0..=24),
            };
            let mut program = program(&mut rng, m);
            if rng.gen_bool(0.2) {
                program = program.with_acquire_before_critical();
            }
            let shape = ProgramShape::new(&program);
            let settler = settler(&mut rng);
            let store_threshold = memmodel::bool_threshold(probability(&mut rng));
            let program_key = rng.gen();
            let (_, (gamma, attempts), finished) =
                scratch.forward_and_lazy(&settler, &program, rng.gen());
            visit((gamma, attempts, finished));
            for fresh in [true, false] {
                visit(scratch.traced_keyed_gamma(
                    &settler,
                    &shape,
                    store_threshold,
                    program_key,
                    rng.gen(),
                    fresh,
                ));
            }
            for _ in 0..2 {
                let rounds = rng.gen_range(1..=program.len());
                let cap = rng.gen_range(0..=rounds);
                let key = rng.gen();
                visit(scratch.traced_store_run(
                    &settler,
                    &shape,
                    store_threshold,
                    program_key,
                    key,
                    rounds,
                    cap,
                ));
            }
        }
    }

    /// One FNV-1a step.
    fn fnv(hash: u64, x: u64) -> u64 {
        (hash ^ x).wrapping_mul(0x0100_0000_01b3)
    }

    #[test]
    fn settle_stream_is_pinned() {
        // FNV-1a over every field of the pinned settles: a kernel change
        // may not move a γ, an attempt count or the walk budget's verdict
        // unawares. Recorded before the walk was rewritten, and again when
        // the floor rule took over attempts the walk looked up: it decides
        // fewer attempts and finishes fewer settles forward (6 643 → 6 404),
        // while `settle_values_are_pinned` held.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let (mut settles, mut forward) = (0u64, 0u64);
        pinned_settles(|(value, attempts, finished)| {
            for x in [value, attempts, u64::from(finished)] {
                hash = fnv(hash, x);
            }
            forward += u64::from(finished);
            settles += 1;
        });
        assert_eq!(settles, 100_000);
        assert!(forward > 0, "no settle ran out of walk budget");
        assert_eq!(
            hash, 0xf45a_624e_0614_5072,
            "the settle stream moved: {hash:#018x} ({forward} finished forward)"
        );
    }

    #[test]
    fn settle_values_are_pinned() {
        // FNV-1a over the γ and store-run values alone of the pinned
        // settles: what a kernel returns, whatever attempts it decides.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        pinned_settles(|(value, _, _)| hash = fnv(hash, value));
        assert_eq!(
            hash, 0x7400_823e_ac35_2242,
            "the settle values moved: {hash:#018x}"
        );
    }

    /// A settler of the floor differential: WO, or every pair relaxed with
    /// unequal per-pair probabilities (0 and 1 among them), and a fence-pass
    /// probability below, at or above the smallest of them.
    fn floor_settler(rng: &mut SmallRng) -> Settler {
        let (matrix, probs) = if rng.gen_bool(0.3) {
            (MemoryModel::Wo.matrix(), SettleProbs::canonical())
        } else {
            let s = [(); 4].map(|()| probability(rng));
            let probs = SettleProbs::per_pair(s[0], s[1], s[2], s[3]).expect("valid probabilities");
            (ReorderMatrix::new(true, true, true, true), probs)
        };
        let lowest = [OpType::Ld, OpType::St]
            .into_iter()
            .flat_map(|e| [OpType::Ld, OpType::St].map(|l| probs.effective(&matrix, e, l)))
            .fold(1.0, f64::min);
        let fence = match rng.gen_range(0..4) {
            0 => lowest * rng.gen::<f64>(),
            1 => lowest + (1.0 - lowest) * rng.gen::<f64>(),
            2 => lowest,
            _ => [0.0, 1.0][rng.gen_range(0..2)],
        };
        Settler::new(matrix, probs)
            .with_fence_pass_probability(fence)
            .expect("valid fence probability")
    }

    /// A program of the floor differential: the fillers of [`program`], with
    /// no fences, release fences only, or a fence nothing passes among them.
    fn floor_program(rng: &mut SmallRng, m: usize) -> Program {
        let mut instrs = program(rng, m)
            .iter()
            .filter(|ins| !ins.is_fence())
            .copied()
            .collect::<Vec<_>>();
        let kinds: &[FenceKind] = match rng.gen_range(0..3) {
            0 => &[],
            1 => &[FenceKind::Release],
            _ => &FenceKind::ALL,
        };
        if !kinds.is_empty() {
            for _ in 0..rng.gen_range(1..=3) {
                let at = rng.gen_range(0..=instrs.len());
                instrs.insert(at, Instruction::fence(kinds[rng.gen_range(0..kinds.len())]));
            }
        }
        Program::new(instrs).expect("valid program")
    }

    /// Marks every memory word an earlier memory word shares a location
    /// with as [`ALIASED`], and clears the mark on every other.
    fn mark_aliases(words: &mut [u32]) {
        for i in 0..words.len() {
            let loc = words[i] & LOC_MASK;
            let memory = words[i] & FENCE_FLAG == 0;
            let shared = words[..i]
                .iter()
                .any(|&w| w & FENCE_FLAG == 0 && w & LOC_MASK == loc);
            words[i] = if memory && shared {
                words[i] | ALIASED
            } else {
                words[i] & !ALIASED
            };
        }
    }

    #[test]
    fn floor_decisions_are_lookup_decisions() {
        // 10^4 shapes × 10 (settler, key) draws = 10^5 cases, each a γ and
        // a store run of the lazy kernel against the forward kernel over the
        // same words. Half the shapes give up to three fillers the location
        // of an earlier filler, so ALIASED movers other than the critical ST
        // occur; a floor decision must never pass one of them.
        let mut rng = SmallRng::seed_from_u64(0xf100);
        let (mut lazy, mut words, mut packed) =
            (LazyScratch::default(), ProgramWords::default(), Vec::new());
        let (mut cases, mut aliased, mut saved) = (0u64, 0u64, 0u64);
        for _ in 0..10_000 {
            let m = if rng.gen_bool(0.2) {
                rng.gen_range(0..=200)
            } else {
                rng.gen_range(0..=24)
            };
            let program = floor_program(&mut rng, m);
            let mut shape = ProgramShape::default();
            shape.encode(&program, false);
            // The encoder marks exactly the accesses an earlier one aliases.
            let mut marked = shape.words.clone();
            mark_aliases(&mut marked);
            assert_eq!(marked, shape.words, "{program:?}");
            let fillers: Vec<usize> = (0..program.len())
                .filter(|&i| !program[i].is_fence() && !program[i].is_critical())
                .collect();
            if fillers.len() > 1 && rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(1..=3) {
                    let later = rng.gen_range(1..fillers.len());
                    let (i, j) = (fillers[later], fillers[rng.gen_range(0..later)]);
                    shape.words[i] = (shape.words[i] & !LOC_MASK) | (shape.words[j] & LOC_MASK);
                }
                mark_aliases(&mut shape.words);
                aliased += 1;
            }
            for _ in 0..10 {
                let settler = floor_settler(&mut rng);
                let tables = settler.tables(shape.image);
                let key = rng.gen();
                let rounds = rng.gen_range(1..=shape.len());
                let cap = rng.gen_range(0..=rounds);

                let forward = |packed: &mut Vec<u64>, rounds| {
                    packed.clear();
                    packed.extend(
                        shape
                            .words
                            .iter()
                            .enumerate()
                            .map(|(i, &w)| u64::from(w) << 32 | i as u64),
                    );
                    settle_packed(packed, tables, rounds, key)
                };
                let gamma_attempts = forward(&mut packed, shape.len());
                let gamma = image_gamma(&packed, shape.image.ld, shape.image.st);
                let run_attempts = forward(&mut packed, rounds);
                let bottom = packed[..rounds].iter().rev().take(cap);
                let run = bottom.take_while(|&&e| is_store((e >> 32) as u32)).count() as u64;

                words.reset(0, 0);
                let (lazy_gamma, lazy_gamma_attempts) = lazy.gamma(&shape, &mut words, tables, key);
                let (lazy_run, lazy_run_attempts) =
                    lazy.store_run(&shape, &mut words, tables, key, rounds, cap);

                let case = format!(
                    "{settler:?} key {key:#x} rounds {rounds} cap {cap} on {:x?}",
                    shape.words
                );
                assert_eq!((lazy_gamma, lazy_run), (gamma, run), "{case}");
                assert!(
                    lazy_gamma_attempts <= gamma_attempts && lazy_run_attempts <= run_attempts,
                    "{case}"
                );
                saved += gamma_attempts - lazy_gamma_attempts;
                cases += 1;
            }
        }
        assert_eq!(cases, 100_000);
        assert!(
            aliased > 1_000 && saved > 0,
            "aliased shapes {aliased}, attempts saved {saved}"
        );
    }

    #[test]
    fn canonical_wo_settles_decide_fewer_than_five_attempts() {
        // The keyed route of the RB trials at m = 64: 16 settles per
        // program key. The walk alone decided about 5 attempts per settle;
        // the floor decides each it meets from the draw alone.
        let mut rng = SmallRng::seed_from_u64(0x3064);
        let mut scratch = SettleScratch::new();
        let settler = Settler::for_model(MemoryModel::Wo);
        let shape = ProgramShape::new(
            &Program::from_filler_types(&[OpType::Ld; 64]).expect("valid program"),
        );
        let threshold = memmodel::bool_threshold(0.5);
        let (mut attempts, mut settles) = (0u64, 0u64);
        for _ in 0..10_000 {
            let program_key = rng.gen();
            for slot in 0..16 {
                let key = rng.gen();
                attempts += scratch
                    .traced_keyed_gamma(&settler, &shape, threshold, program_key, key, slot == 0)
                    .1;
                settles += 1;
            }
        }
        let mean = attempts as f64 / settles as f64;
        assert!(mean < 5.0, "{mean} attempts per canonical WO settle");
    }

    #[test]
    fn deep_walks_agree_with_forward_on_a_default_stack() {
        // Long programs at swap probabilities near and at 1, with fences
        // anywhere: every climb is long, so walks run deep and most settles
        // run out of walk budget and finish forward. The walk keeps its
        // suspended attempts on an explicit stack, so a worker thread's
        // default stack suffices whatever the depth.
        let worker = std::thread::spawn(|| {
            let mut rng = SmallRng::seed_from_u64(0xdee9);
            let mut scratch = SettleScratch::new();
            let (mut settles, mut forward) = (0u64, 0u64);
            for m in [2_000, 8_000] {
                for s in [0.95, 1.0 - 2f64.powi(-20), 1.0] {
                    for model in [MemoryModel::Tso, MemoryModel::Wo] {
                        let probs = SettleProbs::uniform(s).expect("valid s");
                        let settler = Settler::new(model.matrix(), probs)
                            .with_fence_pass_probability(s)
                            .expect("valid fence probability");
                        let program = program(&mut rng, m);
                        let key = rng.gen();
                        let ((gamma, _), (lazy, _), finished) =
                            scratch.forward_and_lazy(&settler, &program, key);
                        assert_eq!(lazy, gamma, "{model} m {m}, s {s}, key {key:#x}");
                        forward += u64::from(finished);
                        settles += 1;
                    }
                }
            }
            (settles, forward)
        });
        let (settles, forward) = worker
            .join()
            .expect("the deep walks ran on a default stack");
        assert!(
            forward > 0 && forward < settles,
            "{forward} of {settles} settles finished forward"
        );
    }

    #[test]
    fn keyed_gammas_are_materialised_gammas() {
        // 10^4 program shapes × 10 (settler, p, n, RNG state) draws = 10^5
        // cases: drawing a program key and settling the keyed program must
        // give regenerate + sample_gammas_scratch's γ vector and RNG end
        // state, bit for bit.
        let mut rng = SmallRng::seed_from_u64(0x6e7d);
        let (mut materialised, mut keyed) = (SettleScratch::new(), SettleScratch::new());
        let (mut out_m, mut out_k) = ([0u64; 16], [0u64; 16]);
        let mut cases = 0u64;
        for _ in 0..10_000 {
            let m = if rng.gen_bool(0.2) {
                rng.gen_range(0..=200)
            } else {
                rng.gen_range(0..=24)
            };
            let mut program = program(&mut rng, m);
            if rng.gen_bool(0.2) {
                program = program.with_acquire_before_critical();
            }
            let shape = ProgramShape::new(&program);
            for _ in 0..10 {
                let settler = settler(&mut rng);
                let gen = ProgramGenerator::new(m)
                    .with_store_probability(probability(&mut rng))
                    .expect("valid probability");
                let n = rng.gen_range(1..=16);
                let mut a = SmallRng::seed_from_u64(rng.gen());
                let mut b = a.clone();

                gen.regenerate(&mut program, &mut a);
                settler.sample_gammas_scratch(&program, &mut out_m[..n], &mut materialised, &mut a);
                let key = gen.draw_key(&mut b);
                settler.sample_gammas_keyed(
                    &shape,
                    gen.store_threshold(),
                    key,
                    &mut out_k[..n],
                    &mut keyed,
                    &mut b,
                );

                assert_eq!(
                    out_k[..n],
                    out_m[..n],
                    "{settler:?} {gen} key {key:#x} on {program:?}"
                );
                assert_eq!(
                    a, b,
                    "RNG end states differ: {settler:?} {gen} on {program:?}"
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 100_000);
    }

    #[test]
    fn keyed_observables_are_forward_observables() {
        // 10^4 program shapes × 10 (settler, p, prefix, RNG state) draws =
        // 10^5 cases, each checking both observables: drawing a program key
        // and reading the keyed observable must give regenerate + the
        // forward observable's value and RNG end state, bit for bit.
        let mut rng = SmallRng::seed_from_u64(0x5e43);
        let mut scratch = SettleScratch::new();
        let mut cases = 0u64;
        let (mut lazy, mut forward) = (0u64, 0u64);
        let mut tally = |scratch: &SettleScratch| {
            if scratch.finished_forward() {
                forward += 1;
            } else {
                lazy += 1;
            }
        };
        for _ in 0..10_000 {
            let m = if rng.gen_bool(0.2) {
                rng.gen_range(0..=200)
            } else {
                rng.gen_range(0..=24)
            };
            let mut program = program(&mut rng, m);
            if rng.gen_bool(0.2) {
                program = program.with_acquire_before_critical();
            }
            let shape = ProgramShape::new(&program);
            for _ in 0..10 {
                let settler = settler(&mut rng);
                let gen = ProgramGenerator::new(m)
                    .with_store_probability(probability(&mut rng))
                    .expect("valid probability");
                let threshold = gen.store_threshold();
                let i = rng.gen_range(1..=program.len());
                let mut a = SmallRng::seed_from_u64(rng.gen());
                let mut b = a.clone();

                gen.regenerate(&mut program, &mut a);
                let bottom = events::observe_bottom_store(&settler, &program, i, &mut a);
                gen.regenerate(&mut program, &mut a);
                let l_mu = events::observe_l_mu(&settler, &program, &mut a);

                let key = gen.draw_key(&mut b);
                let keyed_bottom = events::bottom_store_keyed(
                    &settler,
                    &shape,
                    key,
                    threshold,
                    i,
                    &mut scratch,
                    &mut b,
                );
                tally(&scratch);
                let key = gen.draw_key(&mut b);
                let keyed_l_mu =
                    events::l_mu_keyed(&settler, &shape, key, threshold, &mut scratch, &mut b);
                tally(&scratch);

                assert_eq!(
                    keyed_bottom,
                    Ok(bottom),
                    "{settler:?} {gen} i {i} on {program:?}"
                );
                assert_eq!(keyed_l_mu, l_mu, "{settler:?} {gen} on {program:?}");
                assert_eq!(
                    a, b,
                    "RNG end states differ: {settler:?} {gen} i {i} on {program:?}"
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 100_000);
        // Both halves of the kernel are exercised: most prefixes are read by
        // lookups, and some long-climb prefixes run out of walk budget.
        assert!(
            forward > 0 && forward < lazy,
            "lazy {lazy}, forward {forward}"
        );
    }
}
