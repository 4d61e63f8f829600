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
//!
//! # Keyed programs
//!
//! The kernel reads each instruction's packed word through a word source.
//! Over a materialised program that is the packed image. Over a program
//! given by its key ([`crate::Settler::sample_gammas_keyed`]) it is the
//! [`crate::ProgramShape`]'s word plus the filler's addressed store bit,
//! typed on first read and memoised across the program's settles — the
//! program-key analogue of the deferred decisions above, so a settle
//! types only the fillers its γ depends on. One level up,
//! [`crate::Settler::keyed_windows`] defers whole settles the same way: a
//! window is settled only when its caller first reads it.
//!
//! # Prefix observables
//!
//! The same lookups answer Section 4's questions about the bottom of a
//! settled prefix ([`crate::events`]): the run of stores at depths
//! `0, 1, …` after the prefix's last round is a loop of `Q(r, d)` lookups
//! at fixed `r`. Past the walk budget only the prefix is settled forward.

use crate::process::{
    attempt_draw, climb, image_gamma, Image, ProgramShape, Tables, BLOCKED, CERTAIN, FENCE_FLAG,
    NOT_FILLER, ST_ENTRY_BIT, ST_FLAG_SHIFT,
};
use progmodel::filler_is_store;

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
struct Frame {
    round: u32,
    depth: u32,
    draw: u64,
}

/// The packed entries (`word << 32 | initial index`) of the program a lazy
/// settle runs over, by initial index.
pub(crate) trait Entries {
    /// The number of instructions.
    fn len(&self) -> usize;
    /// The packed entry of instruction `i`.
    fn entry(&mut self, i: usize) -> u64;
}

/// A materialised program: its packed image.
impl Entries for &[u64] {
    fn len(&self) -> usize {
        <[u64]>::len(self)
    }

    fn entry(&mut self, i: usize) -> u64 {
        self[i]
    }
}

/// A keyed program: the shape's entries with each filler's store bit
/// addressed by the program key, typed on first read.
pub(crate) struct Keyed<'s> {
    shape: &'s ProgramShape,
    key: u64,
    store_threshold: u64,
    /// Per instruction: 0 while untyped, otherwise 1 + the store bit.
    memo: &'s mut [u8],
}

impl<'s> Keyed<'s> {
    /// The program of key `key` over `shape`; `memo` holds one byte per
    /// instruction, zeroed when the program is new.
    pub(crate) fn new(shape: &'s ProgramShape, key: u64, store_threshold: u64, memo: &'s mut [u8]) -> Keyed<'s> {
        debug_assert_eq!(memo.len(), shape.len());
        Keyed {
            shape,
            key,
            store_threshold,
            memo,
        }
    }
}

impl Entries for Keyed<'_> {
    fn len(&self) -> usize {
        self.shape.len()
    }

    fn entry(&mut self, i: usize) -> u64 {
        let mut typed = self.memo[i];
        if typed == 0 {
            let j = self.shape.fillers[i];
            typed = 1 + u8::from(j != NOT_FILLER && filler_is_store(self.key, j as usize, self.store_threshold));
            self.memo[i] = typed;
        }
        self.shape.words[i] | if typed == 2 { ST_ENTRY_BIT } else { 0 }
    }
}

/// Reusable buffers of the lazy kernel.
#[derive(Debug, Clone, Default)]
pub(crate) struct LazyScratch {
    /// Per round: `successes << 1 | DONE`.
    know: Vec<u32>,
    /// Suspended walks.
    stack: Vec<Frame>,
    /// The forward-finish image; empty unless the last settle finished
    /// forward.
    work: Vec<u64>,
}

impl LazyScratch {
    /// Buffers pre-sized for programs of `len` instructions.
    pub(crate) fn with_capacity(len: usize) -> LazyScratch {
        LazyScratch {
            know: Vec::with_capacity(len),
            stack: Vec::with_capacity(len),
            work: Vec::with_capacity(len),
        }
    }

    /// The lazy kernel's `γ` for settle key `key` over `entries`, with the
    /// number of swap attempts it decided.
    pub(crate) fn gamma<E: Entries>(&mut self, entries: E, tables: &Tables, key: u64, image: Image) -> (u64, u64) {
        let len = entries.len();
        let (mut lazy, work) = self.start(entries, tables, key, len);
        let gamma = lazy.gamma(image.ld, image.st, work);
        (gamma, lazy.attempts)
    }

    /// A lazy settle of the first `rounds` rounds over `entries` with
    /// nothing revealed, and the buffer of its forward finish.
    fn start<'s, E: Entries>(
        &'s mut self,
        entries: E,
        tables: &'s Tables,
        key: u64,
        rounds: usize,
    ) -> (Lazy<'s, E>, &'s mut Vec<u64>) {
        self.know.clear();
        self.know.resize(rounds, 0);
        debug_assert!(self.stack.is_empty());
        self.stack.reserve(rounds);
        self.work.clear();
        self.work.reserve(rounds);
        let lazy = Lazy {
            entries,
            know: &mut self.know,
            stack: &mut self.stack,
            tables,
            reach: [tables.reach(0), tables.reach(1)],
            key,
            attempts: 0,
            budget: STEPS_PER_INSTRUCTION * rounds,
        };
        (lazy, &mut self.work)
    }

    /// The number of stores at the bottom of the settled prefix after
    /// `rounds` rounds (depths `0, 1, …` up to the first non-store),
    /// counting at most `cap`, for settle key `key` over `entries`.
    ///
    /// Each depth is a lookup `Q(rounds - 1, d)`, so only the climbs the
    /// bottom of the prefix depends on are settled. Past the walk budget
    /// (`STEPS_PER_INSTRUCTION` per prefix round) the prefix, and only the
    /// prefix, is settled forward instead. Both halves read the forward
    /// kernel's attempt addresses, so the count is the forward prefix's
    /// bit for bit.
    pub(crate) fn store_run<E: Entries>(
        &mut self,
        entries: E,
        tables: &Tables,
        key: u64,
        rounds: usize,
        cap: usize,
    ) -> u64 {
        debug_assert!(cap <= rounds && rounds <= entries.len());
        let (mut lazy, work) = self.start(entries, tables, key, rounds);
        lazy.store_run_within_budget(rounds, cap).unwrap_or_else(|| {
            lazy.settle_forward(rounds, work);
            let bottom = work.iter().rev().take(cap);
            bottom.take_while(|&&entry| is_store((entry >> 32) as u32)).count() as u64
        })
    }

    /// Whether the last settle ran out of walk budget and finished
    /// forward.
    #[cfg(test)]
    pub(crate) fn finished_forward(&self) -> bool {
        !self.work.is_empty()
    }
}

/// Whether a packed word is a store (critical or filler).
fn is_store(word: u32) -> bool {
    word & FENCE_FLAG == 0 && (word >> ST_FLAG_SHIFT) & 1 == 1
}

/// One lazy settle over a program's entries in initial order.
struct Lazy<'s, E> {
    entries: E,
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

impl<E: Entries> Lazy<'_, E> {
    /// The packed word of instruction `i`.
    fn word(&mut self, i: usize) -> u32 {
        (self.entries.entry(i) >> 32) as u32
    }

    /// The window growth `γ` of the settle, for the critical LD at initial
    /// index `ld` and the critical ST at `st`. `work` is the buffer of the
    /// forward finish.
    fn gamma(&mut self, ld: usize, st: usize, work: &mut Vec<u64>) -> u64 {
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
        for r in ld + 1..self.entries.len() {
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

    /// Settles the whole program forward in `work`, then reads γ off the
    /// settled image.
    fn finish_forward(&mut self, ld: usize, st: usize, work: &mut Vec<u64>) -> u64 {
        self.settle_forward(self.entries.len(), work);
        image_gamma(work, ld, st)
    }

    /// Settles the first `rounds` rounds forward in `work` (the prefix
    /// `S_{rounds-1}`, in settled order), replaying every climb already
    /// revealed and evaluating only the attempts that are not.
    ///
    /// The rare fallback of both kernels: kept out of line so that it
    /// does not weigh on the lookup walks' code.
    #[cold]
    #[inline(never)]
    fn settle_forward(&mut self, rounds: usize, work: &mut Vec<u64>) {
        self.stack.clear();
        work.clear();
        work.extend((0..rounds).map(|i| self.entries.entry(i)));
        for r in 0..rounds {
            let know = self.know[r];
            let pos = r - (know >> 1) as usize;
            work[pos..=r].rotate_right(1);
            if know & DONE == 0 {
                self.attempts += climb(work, self.tables, self.key, r, pos);
            }
        }
    }

    /// [`LazyScratch::store_run`] by lookups alone, or `None` once the walk
    /// budget runs out.
    fn store_run_within_budget(&mut self, rounds: usize, cap: usize) -> Option<u64> {
        let mut run = 0;
        while run < cap {
            #[allow(clippy::cast_possible_truncation)] // depths fit u32 (see `encode_image`)
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
            let climbed = self.climb(r, d)?;
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
                    #[allow(clippy::cast_possible_truncation)] // rounds fit u32 (see `encode_image`)
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
        let mover = self.word(r);
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
        let (above, mover) = (self.word(above), self.word(r));
        let t = self.tables.threshold(above, mover);
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
            let m = if rng.gen_bool(0.2) { rng.gen_range(0..=200) } else { rng.gen_range(0..=24) };
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
                settler.sample_gammas_keyed(&shape, gen.store_threshold(), key, &mut out_k[..n], &mut keyed, &mut b);

                assert_eq!(out_k[..n], out_m[..n], "{settler:?} {gen} key {key:#x} on {program:?}");
                assert_eq!(a, b, "RNG end states differ: {settler:?} {gen} on {program:?}");
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
            let m = if rng.gen_bool(0.2) { rng.gen_range(0..=200) } else { rng.gen_range(0..=24) };
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
                let keyed_bottom = events::bottom_store_keyed(&settler, &shape, key, threshold, i, &mut scratch, &mut b);
                tally(&scratch);
                let key = gen.draw_key(&mut b);
                let keyed_l_mu = events::l_mu_keyed(&settler, &shape, key, threshold, &mut scratch, &mut b);
                tally(&scratch);

                assert_eq!(keyed_bottom, Ok(bottom), "{settler:?} {gen} i {i} on {program:?}");
                assert_eq!(keyed_l_mu, l_mu, "{settler:?} {gen} on {program:?}");
                assert_eq!(a, b, "RNG end states differ: {settler:?} {gen} i {i} on {program:?}");
                cases += 1;
            }
        }
        assert_eq!(cases, 100_000);
        // Both halves of the kernel are exercised: most prefixes are read by
        // lookups, and some long-climb prefixes run out of walk budget.
        assert!(forward > 0 && forward < lazy, "lazy {lazy}, forward {forward}");
    }
}
