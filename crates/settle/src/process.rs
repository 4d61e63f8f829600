//! The settling process itself.

use crate::lazy::{LazyScratch, ProgramWords};
use crate::Permutation;
use memmodel::draw::addressed_uniform;
pub(crate) use memmodel::draw::{BLOCKED, CERTAIN};
use memmodel::{bool_threshold, MemoryModel, OpType, ReorderMatrix, SettleProbs};
use progmodel::{InstrKind, Instruction, Program};
use rand::Rng;
use std::fmt;

/// The settling process for a given memory model.
///
/// Configured by a relaxation matrix, per-pair swap probabilities, and the
/// probability of hoisting past a release fence (the §7 extension; default
/// `1/2`, matching the canonical `s`).
///
/// # Example
///
/// ```
/// use memmodel::MemoryModel;
/// use progmodel::Program;
/// use settle::Settler;
/// use memmodel::OpType::St;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let program = Program::from_filler_types(&[St, St, St]).unwrap();
/// let sc = Settler::for_model(MemoryModel::Sc);
/// let settled = sc.settle(&program, &mut SmallRng::seed_from_u64(0));
/// assert!(settled.permutation().is_identity()); // SC never reorders
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Settler {
    matrix: ReorderMatrix,
    probs: SettleProbs,
    fence_pass_probability: f64,
    /// The draw thresholds of the three fields above, by the fences a
    /// program contains (see [`Settler::tables`]).
    tables: [Tables; 4],
}

impl Settler {
    /// The canonical settler for a named model (`s = 1/2` on relaxed pairs).
    #[must_use]
    pub fn for_model(model: MemoryModel) -> Settler {
        Settler::new(model.matrix(), SettleProbs::canonical())
    }

    /// A settler with an explicit matrix and probabilities (the generalised
    /// model of footnote 3).
    #[must_use]
    pub fn new(matrix: ReorderMatrix, probs: SettleProbs) -> Settler {
        Settler::with_tables(matrix, probs, 0.5)
    }

    /// Replaces the probability of hoisting past a release fence.
    ///
    /// # Errors
    ///
    /// Returns the invalid value if `p` is not in `[0, 1]`.
    pub fn with_fence_pass_probability(self, p: f64) -> Result<Settler, f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(p);
        }
        Ok(Settler::with_tables(self.matrix, self.probs, p))
    }

    /// The settler of the given parameters, with its draw thresholds
    /// resolved.
    fn with_tables(
        matrix: ReorderMatrix,
        probs: SettleProbs,
        fence_pass_probability: f64,
    ) -> Settler {
        let threshold = |earlier, later| bool_threshold(probs.effective(&matrix, earlier, later));
        let eff = [
            [
                threshold(OpType::Ld, OpType::Ld),
                threshold(OpType::Ld, OpType::St),
            ],
            [
                threshold(OpType::St, OpType::Ld),
                threshold(OpType::St, OpType::St),
            ],
        ];
        let fence = bool_threshold(fence_pass_probability);
        Settler {
            matrix,
            probs,
            fence_pass_probability,
            tables: [
                Tables::new(eff, None, false),
                Tables::new(eff, Some(fence), false),
                Tables::new(eff, None, true),
                Tables::new(eff, Some(fence), true),
            ],
        }
    }

    /// The relaxation matrix in force.
    #[must_use]
    pub fn matrix(&self) -> ReorderMatrix {
        self.matrix
    }

    /// The per-pair swap probabilities in force.
    #[must_use]
    pub fn probs(&self) -> SettleProbs {
        self.probs
    }

    /// The probability of hoisting past a release fence in force.
    #[must_use]
    pub fn fence_pass_probability(&self) -> f64 {
        self.fence_pass_probability
    }

    /// The probability that one settling swap of `mover` past `above`
    /// succeeds.
    ///
    /// Zero when the two conflict (same location — the critical pair), when
    /// either is a non-passable fence, when the mover is itself a fence
    /// (fences never settle), or when the matrix forbids the pair.
    #[must_use]
    pub fn swap_probability(&self, above: &Instruction, mover: &Instruction) -> f64 {
        if mover.conflicts_with(above) {
            return 0.0;
        }
        match (above.kind(), mover.kind()) {
            (_, InstrKind::Fence(_)) => 0.0,
            (InstrKind::Fence(k), InstrKind::Mem(_)) => {
                if k.permits_hoist_above() {
                    self.fence_pass_probability
                } else {
                    0.0
                }
            }
            (InstrKind::Mem(earlier), InstrKind::Mem(later)) => {
                self.probs.effective(&self.matrix, earlier, later)
            }
        }
    }

    /// Runs the full settling process (all `len` rounds) on `program`.
    pub fn settle<R: Rng + ?Sized>(&self, program: &Program, rng: &mut R) -> Settled {
        self.settle_rounds(program, program.len(), rng)
    }

    /// Runs the first `rounds` rounds of settling into caller-provided
    /// scratch — the allocation-free kernel underneath
    /// [`settle_rounds`](Settler::settle_rounds).
    ///
    /// The scratch's order buffer is reset and reused; once it has grown to
    /// `program.len()` entries, subsequent calls of the same size perform
    /// no heap allocation. The RNG use is identical to
    /// [`settle_rounds`](Settler::settle_rounds) (one settle key, see the
    /// crate docs), so the two routes are interchangeable mid-stream. Returns the settled order: `order[p]`
    /// is the initial index of the instruction at settled position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds > program.len()`.
    pub fn settle_into<'s, R: Rng + ?Sized>(
        &self,
        program: &Program,
        rounds: usize,
        scratch: &'s mut SettleScratch,
        rng: &mut R,
    ) -> &'s [usize] {
        let tables = self.tables(encode_image(program, &mut scratch.packed));
        // An inert settle reads no attempt, so its key is never used.
        let key = if tables.inert() { 0 } else { rng.next_u64() };
        settle_packed(&mut scratch.packed, tables, rounds, key);
        scratch.sync_order()
    }

    /// The settle key of one settle of `program`: the single `u64` a
    /// settle draws from the caller's RNG, from which every swap
    /// attempt's uniform is addressed (see [`attempt_draw`]). `None` when
    /// the settler is inert on `program` — no memory pair may reorder and
    /// no fence may be hoisted past — in which case the settle draws
    /// nothing and the settled order is the identity.
    pub(crate) fn settle_key<R: Rng + ?Sized>(
        &self,
        program: &Program,
        rng: &mut R,
    ) -> Option<u64> {
        let tables = self.tables(encode_with(program, |_, _| {}));
        (!tables.inert()).then(|| rng.next_u64())
    }

    /// Runs only the first `rounds` rounds — the paper's intermediate order
    /// `S_r`. Instructions not yet settled remain at their initial positions
    /// below the settled prefix (exactly as in Appendix A.2, where round `i`
    /// inserts `x_i` into the permuted prefix).
    ///
    /// # Panics
    ///
    /// Panics if `rounds > program.len()`.
    pub fn settle_rounds<R: Rng + ?Sized>(
        &self,
        program: &Program,
        rounds: usize,
        rng: &mut R,
    ) -> Settled {
        let mut scratch = SettleScratch::new();
        self.settle_into(program, rounds, &mut scratch, rng);
        let permutation = Permutation::from_settled_order(scratch.order())
            .expect("swaps preserve the permutation");
        Settled {
            program: program.clone(),
            permutation,
        }
    }

    /// Settles the instruction currently at position `start` (round
    /// `start`) upward by repeated swaps, reading attempt uniforms from
    /// `key`. `order` maps positions to initial indices.
    ///
    /// This is the general route behind [`SettleTrace`](crate::SettleTrace):
    /// each step evaluates [`swap_probability`](Settler::swap_probability)'s
    /// cases directly on the instructions. It reads the same attempt
    /// addresses as the packed kernel, and zero and one probabilities read
    /// nothing on both, so the two agree bit for bit for a given key
    /// (asserted by the equivalence regression tests).
    pub(crate) fn settle_one(
        &self,
        program: &Program,
        order: &mut [usize],
        start: usize,
        key: u64,
    ) {
        let mover = &program[order[start]];
        let (mover_op, mover_loc) = match mover.kind() {
            // Fences never settle: every swap probability is zero.
            InstrKind::Fence(_) => return,
            InstrKind::Mem(op) => (op, mover.loc()),
        };
        let mut pos = start;
        while pos > 0 {
            let above = &program[order[pos - 1]];
            let p = match above.kind() {
                InstrKind::Fence(k) => {
                    if k.permits_hoist_above() {
                        self.fence_pass_probability
                    } else {
                        0.0
                    }
                }
                InstrKind::Mem(e) => {
                    if above.loc() == mover_loc {
                        0.0 // conflicting pair (the critical LD/ST)
                    } else {
                        self.probs.effective(&self.matrix, e, mover_op)
                    }
                }
            };
            if p <= 0.0 || (p < 1.0 && attempt_draw(key, start, start - pos) >= bool_threshold(p)) {
                break;
            }
            order.swap(pos - 1, pos);
            pos -= 1;
        }
    }

    /// Samples the critical-window growth `γ` (the paper's `B_γ` variable):
    /// the number of instructions strictly between the settled critical LD
    /// and critical ST.
    ///
    /// Computed by the lazy kernel (see [`lazy`](crate::lazy)), which
    /// settles only the climbs `γ` depends on. Bit-for-bit identical to
    /// `settle(program, rng).gamma()` under the same RNG state, and leaves
    /// the RNG in the same state (asserted by the equivalence regression
    /// tests).
    pub fn sample_gamma<R: Rng + ?Sized>(&self, program: &Program, rng: &mut R) -> u64 {
        let mut scratch = SettleScratch::new();
        self.sample_gamma_scratch(program, &mut scratch, rng)
    }

    /// [`sample_gamma`](Settler::sample_gamma) with caller-provided scratch:
    /// the steady-state allocation-free γ kernel. The scratch's
    /// [`order`](SettleScratch::order) buffer and settled image are not
    /// refreshed (use [`settle_into`](Settler::settle_into) when the full
    /// settled order is needed).
    pub fn sample_gamma_scratch<R: Rng + ?Sized>(
        &self,
        program: &Program,
        scratch: &mut SettleScratch,
        rng: &mut R,
    ) -> u64 {
        let mut gamma = [0];
        self.sample_gammas_scratch(program, &mut gamma, scratch, rng);
        gamma[0]
    }

    /// Samples one γ per slot of `out`, all from fresh settles of the same
    /// `program` — the per-thread window draws of one trial. The program
    /// image is encoded once; each settle then draws its key and resolves
    /// only the climbs its γ needs. The RNG stream is identical to calling
    /// [`sample_gamma_scratch`](Settler::sample_gamma_scratch) `out.len()`
    /// times.
    pub fn sample_gammas_scratch<R: Rng + ?Sized>(
        &self,
        program: &Program,
        out: &mut [u64],
        scratch: &mut SettleScratch,
        rng: &mut R,
    ) {
        let shape = &mut scratch.materialised;
        shape.encode(program, false);
        let tables = self.tables(shape.image);
        if tables.inert() {
            out.fill(shape.image.inert_gamma());
            return;
        }
        scratch.words.reset(0, 0);
        for slot in out {
            *slot = scratch
                .lazy
                .gamma(shape, &mut scratch.words, tables, rng.next_u64())
                .0;
        }
    }

    /// [`sample_gammas_scratch`](Settler::sample_gammas_scratch) on the
    /// program of key `program_key` (see `progmodel`'s program-key
    /// contract) over `shape`, without materialising it: every slot of
    /// [`keyed_windows`](Settler::keyed_windows), read in order.
    ///
    /// For one RNG state, drawing `program_key` with
    /// [`ProgramGenerator::draw_key`](progmodel::ProgramGenerator::draw_key)
    /// and calling this gives the γ vector, and leaves the RNG in the
    /// state, of [`ProgramGenerator::regenerate`](progmodel::ProgramGenerator::regenerate)
    /// followed by `sample_gammas_scratch` — bit for bit. The settle keys
    /// are drawn from `rng` exactly as there.
    pub fn sample_gammas_keyed<R: Rng + ?Sized>(
        &self,
        shape: &ProgramShape,
        store_threshold: u64,
        program_key: u64,
        out: &mut [u64],
        scratch: &mut SettleScratch,
        rng: &mut R,
    ) {
        let mut windows =
            self.keyed_windows(shape, store_threshold, program_key, out.len(), scratch, rng);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = windows.gamma(i);
        }
    }

    /// The `n` windows of `n` independent settles of the program of key
    /// `program_key` over `shape`, each settled only when it is first
    /// read ([`KeyedWindows::gamma`]).
    ///
    /// Draws the `n` settle keys from `rng` now, in slot order, or none
    /// when the settler is inert on the shape — exactly the draws of `n`
    /// eager settles, since a settle reads nothing from `rng` beyond its
    /// key. A window read later, or never, therefore leaves every other
    /// draw of the caller's stream where it was. The lazy γ kernel types a
    /// filler from the program key on its first read, so a settle types
    /// only the fillers its γ depends on; types are kept across the
    /// program's settles.
    pub fn keyed_windows<'s, R: Rng + ?Sized>(
        &'s self,
        shape: &'s ProgramShape,
        store_threshold: u64,
        program_key: u64,
        n: usize,
        scratch: &'s mut SettleScratch,
        rng: &mut R,
    ) -> KeyedWindows<'s> {
        let tables = self.tables(shape.image);
        scratch.keys.clear();
        scratch.windows.clear();
        if tables.inert() {
            scratch.windows.resize(n, shape.image.inert_gamma());
        } else {
            scratch.keys.extend((0..n).map(|_| rng.next_u64()));
            scratch.windows.resize(n, UNSETTLED);
            scratch.words.reset(program_key, store_threshold);
        }
        KeyedWindows {
            shape,
            tables,
            scratch,
        }
    }

    /// The number of stores at the bottom of the settled prefix of
    /// `rounds` rounds of the program of key `program_key` over `shape`,
    /// counting at most `cap` — the keyed kernel under
    /// [`events::bottom_store_keyed`](crate::events::bottom_store_keyed)
    /// and [`events::l_mu_keyed`](crate::events::l_mu_keyed). Draws one
    /// settle key unless the settler is inert on the shape, exactly as
    /// [`settle_rounds`](Settler::settle_rounds) does.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store_run_keyed<R: Rng + ?Sized>(
        &self,
        shape: &ProgramShape,
        store_threshold: u64,
        program_key: u64,
        rounds: usize,
        cap: usize,
        scratch: &mut SettleScratch,
        rng: &mut R,
    ) -> u64 {
        let tables = self.tables(shape.image);
        // An inert settle reads no attempt, so its key is never used.
        let key = if tables.inert() { 0 } else { rng.next_u64() };
        scratch.words.reset(program_key, store_threshold);
        scratch
            .lazy
            .store_run(shape, &mut scratch.words, tables, key, rounds, cap)
            .0
    }

    /// The integer draw thresholds of this settler for a program of
    /// image `image`, by whether it has a hoistable (release) fence and a
    /// fence nothing passes, all via [`bool_threshold`]; resolved once,
    /// when the settler is made.
    pub(crate) fn tables(&self, image: Image) -> &Tables {
        &self.tables[usize::from(image.has_release) | usize::from(image.has_barrier) << 1]
    }
}

impl fmt::Debug for Settler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Settler")
            .field("matrix", &self.matrix)
            .field("probs", &self.probs)
            .field("fence_pass_probability", &self.fence_pass_probability)
            .finish()
    }
}

/// The windows of one keyed program's settles, each settled on first read
/// and memoised (see [`Settler::keyed_windows`]).
#[derive(Debug)]
pub struct KeyedWindows<'s> {
    shape: &'s ProgramShape,
    tables: &'s Tables,
    scratch: &'s mut SettleScratch,
}

impl KeyedWindows<'_> {
    /// The window growth γ of settle `slot`: settled by the lazy kernel
    /// under the slot's settle key on the first call, read back after.
    /// Bit for bit the γ an eager settle with that key gives.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the `n` the windows were drawn for.
    pub fn gamma(&mut self, slot: usize) -> u64 {
        let memo = self.scratch.windows[slot];
        if memo != UNSETTLED {
            return memo;
        }
        let scratch = &mut *self.scratch;
        let gamma = scratch
            .lazy
            .gamma(
                self.shape,
                &mut scratch.words,
                self.tables,
                scratch.keys[slot],
            )
            .0;
        scratch.windows[slot] = gamma;
        gamma
    }
}

/// The memoised γ of a window not settled yet (no γ reaches it).
const UNSETTLED: u64 = u64::MAX;

/// The integer draw thresholds of one settler over one program image,
/// indexed by instruction class: a packed word's top three bits (fence,
/// release, store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tables {
    /// `pass[above class][mover is a store]`: the threshold of a memory
    /// mover passing an instruction of another location.
    pass: [[u64; 2]; 8],
    /// `reach[mover class]`: the largest threshold the mover can meet, so
    /// a uniform at or above it fails whatever sits above; BLOCKED for a
    /// fence, which never settles.
    reach: [u64; 8],
    /// `floor[mover class]`: the smallest threshold the mover can meet
    /// from an instruction of another location, over the classes the
    /// program contains, so a uniform below it passes whatever of another
    /// location sits above; BLOCKED for a fence, and for every class in a
    /// program with a fence nothing passes.
    floor: [u64; 8],
}

impl Tables {
    /// The thresholds of the memory-memory pairs `eff[earlier_st][later_st]`
    /// and of passing a release fence, `release` (`None` when the program
    /// has no release fence), for a program with or without a `barrier`: a
    /// fence nothing passes.
    fn new(eff: [[u64; 2]; 2], release: Option<u64>, barrier: bool) -> Tables {
        let mut pass = [[BLOCKED; 2]; 8];
        pass[0] = eff[0];
        pass[1] = eff[1];
        pass[((FENCE_FLAG | RELEASE_FLAG) >> ST_FLAG_SHIFT) as usize] =
            [release.unwrap_or(BLOCKED); 2];
        let (mut reach, mut floor) = ([BLOCKED; 8], [BLOCKED; 8]);
        for st in 0..2 {
            reach[st] = pass.iter().map(|row| row[st]).max().unwrap_or(BLOCKED);
            // Both memory rows: every program holds a load and a store (its
            // critical pair), and a minimum over more classes is still a floor.
            let met = [eff[0][st], eff[1][st]].into_iter().chain(release);
            floor[st] = if barrier {
                BLOCKED
            } else {
                met.min().unwrap_or(BLOCKED)
            };
        }
        Tables { pass, reach, floor }
    }

    /// Whether no attempt can ever succeed: the settle draws no key and
    /// the settled order is the identity (the SC fast path).
    pub(crate) fn inert(&self) -> bool {
        self.reach == [BLOCKED; 8]
    }

    /// The largest threshold the instruction of packed word `mover` can
    /// meet.
    #[inline]
    pub(crate) fn reach(&self, mover: u32) -> u64 {
        self.reach[(mover >> ST_FLAG_SHIFT) as usize]
    }

    /// Whether some memory mover has a floor above BLOCKED.
    #[inline]
    pub(crate) fn has_floor(&self) -> bool {
        self.floor != [BLOCKED; 8]
    }

    /// The smallest threshold the instruction of packed word `mover` can
    /// meet from an instruction of another location.
    #[inline]
    pub(crate) fn floor(&self, mover: u32) -> u64 {
        self.floor[(mover >> ST_FLAG_SHIFT) as usize]
    }

    /// The threshold of memory mover `mover` passing `above` (packed
    /// words): BLOCKED when the two share a location (the critical LD/ST).
    #[inline]
    pub(crate) fn threshold(&self, above: u32, mover: u32) -> u64 {
        if (above ^ mover) & LOC_MASK == 0 {
            return BLOCKED;
        }
        self.pass[(above >> ST_FLAG_SHIFT) as usize][((mover >> ST_FLAG_SHIFT) & 1) as usize]
    }
}

/// The forward kernel: runs `rounds` settling rounds over a packed image
/// in initial order, permuting it in place. Returns the number of swap
/// attempts evaluated (climb steps, whether or not they read a uniform).
///
/// The hot loop runs over a packed image of the program — one u64 per
/// instruction carrying its class/location word and its initial index —
/// so each swap-probability evaluation is a single load plus bit tests.
/// The probabilities are resolved once per call, as integer draw
/// thresholds (see [`bool_threshold`]). Attempt `k` of round `r` reads
/// [`attempt_draw`]`(key, r, k)`; BLOCKED and CERTAIN attempts read
/// nothing, exactly as on the general [`Settler::settle_one`] route.
pub(crate) fn settle_packed(packed: &mut [u64], tables: &Tables, rounds: usize, key: u64) -> u64 {
    assert!(
        rounds <= packed.len(),
        "cannot settle {rounds} rounds of a {}-instruction program",
        packed.len()
    );
    if tables.inert() {
        return 0;
    }
    (0..rounds)
        .map(|round| climb(packed, tables, key, round, round))
        .sum()
}

/// Continues round `round` of a forward settle: the mover sits at `pos`,
/// having won attempts `0..round - pos`, and climbs on until an attempt
/// fails or it reaches the top. Returns the attempts evaluated.
pub(crate) fn climb(
    image: &mut [u64],
    tables: &Tables,
    key: u64,
    round: usize,
    mut pos: usize,
) -> u64 {
    let mover = (image[pos] >> 32) as u32;
    // Fences never settle, and a mover that can pass nothing never
    // climbs: no attempt, no swap.
    if tables.reach(mover) == BLOCKED {
        return 0;
    }
    let mut attempts = 0;
    while pos > 0 {
        attempts += 1;
        let t = tables.threshold((image[pos - 1] >> 32) as u32, mover);
        if t == BLOCKED || (t != CERTAIN && attempt_draw(key, round, round - pos) >= t) {
            break;
        }
        image.swap(pos - 1, pos);
        pos -= 1;
    }
    attempts
}

/// The window growth `γ` of a settled packed image: instructions strictly
/// between the critical LD (initial index `ld`) and ST (`st`).
///
/// # Panics
///
/// Panics if either instruction is missing, or if the critical store sits
/// above the critical load — which settling makes impossible
/// (same-location swaps always fail).
pub(crate) fn image_gamma(image: &[u64], ld: usize, st: usize) -> u64 {
    let position = |i: usize| image.iter().position(|&x| x & 0xffff_ffff == i as u64);
    let (Some(ld), Some(st)) = (position(ld), position(st)) else {
        panic!("critical pair missing from settled order");
    };
    assert!(st > ld, "critical store settled above critical load");
    (st - ld - 1) as u64
}

/// The 53-bit uniform of swap attempt `attempt` of settling round `round`
/// under settle key `key`: [`memmodel::addressed_uniform`] number
/// `round·2³² + attempt`, i.e. that output of the SplitMix64 stream seeded
/// with `key`, shifted down to 53 bits. The attempt succeeds iff this is
/// below the pair's [`bool_threshold`].
///
/// Every attempt has its own address, so a kernel may read attempts in
/// any order, or skip those its result does not depend on, and still
/// agree bit for bit with the forward kernels.
#[must_use]
pub fn attempt_draw(key: u64, round: usize, attempt: usize) -> u64 {
    addressed_uniform(key, ((round as u64) << 32).wrapping_add(attempt as u64))
}

/// Whether a packed word is a hoistable (release) fence.
fn is_release(word: u32) -> bool {
    word & (FENCE_FLAG | RELEASE_FLAG) == FENCE_FLAG | RELEASE_FLAG
}

/// Packed-image flag: the instruction is a fence.
pub(crate) const FENCE_FLAG: u32 = 1 << 31;
/// Packed-image flag: the fence permits hoisting (release).
pub(crate) const RELEASE_FLAG: u32 = 1 << 30;
/// Packed-image bit position of the St flag for memory operations.
pub(crate) const ST_FLAG_SHIFT: u32 = 29;
/// Packed-image flag of a keyed program's filler whose type is not read
/// yet (its store bit is clear).
pub(crate) const UNTYPED: u32 = 1 << 28;
/// Packed-image flag of a memory access an earlier access shares its
/// location with: the only movers that may meet a blocking pair.
pub(crate) const ALIASED: u32 = 1 << 27;
/// Packed-image mask of the location id. A fence's location bits are all
/// set, a location no memory access has, so it shares none.
pub(crate) const LOC_MASK: u32 = ALIASED - 1;

/// Encodes one instruction's settling-relevant facts into a u32 word.
pub(crate) fn encode(ins: &Instruction) -> u32 {
    match ins.kind() {
        InstrKind::Fence(k) => {
            if k.permits_hoist_above() {
                FENCE_FLAG | RELEASE_FLAG | LOC_MASK
            } else {
                FENCE_FLAG | LOC_MASK
            }
        }
        InstrKind::Mem(op) => {
            let loc = ins.loc().expect("memory access has a location").raw();
            assert!(
                loc < LOC_MASK,
                "location id {loc} exceeds the packed encoding"
            );
            (u32::from(op == OpType::St) << ST_FLAG_SHIFT) | loc
        }
    }
}

/// Whether a packed word is a store (critical or filler).
pub(crate) fn is_store(word: u32) -> bool {
    (word >> ST_FLAG_SHIFT) & 1 == 1
}

/// Facts about a packed program image.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Image {
    /// Whether the program contains a hoistable (release) fence.
    pub(crate) has_release: bool,
    /// Whether the program contains a fence nothing passes.
    pub(crate) has_barrier: bool,
    /// Initial index of the critical load.
    pub(crate) ld: usize,
    /// Initial index of the critical store.
    pub(crate) st: usize,
}

impl Image {
    /// γ of a settle that moves nothing.
    fn inert_gamma(self) -> u64 {
        (self.st - self.ld - 1) as u64
    }
}

/// Encodes `program` into `packed` in initial order — `(encode(instr) <<
/// 32) | initial index` per instruction — reusing the buffer's allocation.
fn encode_image(program: &Program, packed: &mut Vec<u64>) -> Image {
    packed.clear();
    encode_with(program, |i, word| {
        packed.push((u64::from(word) << 32) | i as u64)
    })
}

/// Encodes each instruction of `program` in initial order, handing
/// `(initial index, word)` to `push`.
fn encode_with(program: &Program, mut push: impl FnMut(usize, u32)) -> Image {
    // Rounds, depths and climbs fit 31 bits (the lazy kernel's knowledge
    // words keep a flag in the 32nd).
    assert!(
        program.len() < 1 << 31,
        "program too large for the packed settling image"
    );
    let mut image = Image {
        has_release: false,
        has_barrier: false,
        ld: usize::MAX,
        st: usize::MAX,
    };
    for (i, ins) in program.instructions().iter().enumerate() {
        let mut word = encode(ins);
        image.has_release |= is_release(word);
        image.has_barrier |= word & (FENCE_FLAG | RELEASE_FLAG) == FENCE_FLAG;
        // The critical pair are the only accesses to location 0: a program
        // has distinct filler locations and its critical LD first, so the
        // critical ST is the one access an earlier access shares a
        // location with.
        if word & (FENCE_FLAG | LOC_MASK) == 0 {
            if is_store(word) {
                image.st = i;
                word |= ALIASED;
            } else {
                image.ld = i;
            }
        }
        push(i, word);
    }
    image
}

/// The fixed part of a family of random programs: everything but the
/// filler types, which a program key supplies (see `progmodel`'s
/// program-key contract). Built once from a template program; the keyed
/// γ kernel ([`Settler::sample_gammas_keyed`]) then settles any program of
/// the family from its key alone.
#[derive(Debug, Clone, Default)]
pub struct ProgramShape {
    /// Per instruction: its packed word; a filler's is [`UNTYPED`] with
    /// the store bit clear, unless the shape is of a materialised program.
    pub(crate) words: Vec<u32>,
    /// Per instruction of a keyed shape: its filler ordinal `j` (the
    /// `j`-th memory access that is neither critical nor a fence), or 0
    /// when not [`UNTYPED`]. Empty for a materialised program.
    pub(crate) fillers: Vec<u32>,
    pub(crate) image: Image,
}

impl ProgramShape {
    /// The shape of `template`: its fences, locations and critical pair.
    /// Its filler types are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the program is too large for the packed settling image.
    #[must_use]
    pub fn new(template: &Program) -> ProgramShape {
        let mut shape = ProgramShape::default();
        shape.encode(template, true);
        shape
    }

    /// Encodes `program` in place, reusing the buffers: as the shape of a
    /// keyed family when `keyed`, otherwise as the one materialised
    /// program, with every type fixed.
    pub(crate) fn encode(&mut self, program: &Program, keyed: bool) {
        self.words.clear();
        self.image = encode_with(program, |_, word| self.words.push(word));
        self.fillers.clear();
        if !keyed {
            return;
        }
        let mut filler = 0;
        for (ins, word) in program.iter().zip(&mut self.words) {
            if ins.is_critical() || ins.is_fence() {
                self.fillers.push(0);
            } else {
                *word = (*word & !(1 << ST_FLAG_SHIFT)) | UNTYPED;
                self.fillers.push(filler);
                filler += 1;
            }
        }
    }

    /// The number of instructions of every program of the shape.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The initial index of the critical load.
    pub(crate) fn critical_load_index(&self) -> usize {
        self.image.ld
    }
}

/// Reusable buffers for the in-place settling kernels.
///
/// One scratch serves any number of programs (of any length): the buffers
/// grow to the largest program seen and are reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct SettleScratch {
    /// `order[p]` = initial index of the instruction currently at `p`.
    /// Refreshed by [`Settler::settle_into`] only.
    order: Vec<usize>,
    /// The packed settling image of the forward kernel: `(encode(instr) <<
    /// 32) | initial index` per position, permuted in place.
    packed: Vec<u64>,
    /// The shape of the materialised program the lazy kernel last read
    /// ([`Settler::sample_gammas_scratch`]), every type fixed.
    materialised: ProgramShape,
    /// The words of the program the lazy kernel reads, typed as read.
    words: ProgramWords,
    /// The settle keys of the current [`KeyedWindows`], by slot (empty when
    /// the settler is inert).
    keys: Vec<u64>,
    /// The γ of each slot of the current [`KeyedWindows`], or `UNSETTLED`.
    windows: Vec<u64>,
    lazy: LazyScratch,
}

impl SettleScratch {
    /// An empty scratch; the first settle sizes it.
    #[must_use]
    pub fn new() -> SettleScratch {
        SettleScratch::default()
    }

    /// A scratch pre-sized for programs of `len` instructions, so even the
    /// first settle allocates nothing afterwards.
    #[must_use]
    pub fn with_capacity(len: usize) -> SettleScratch {
        SettleScratch {
            order: Vec::with_capacity(len),
            packed: Vec::with_capacity(len),
            materialised: ProgramShape {
                words: Vec::with_capacity(len),
                ..ProgramShape::default()
            },
            words: ProgramWords::with_capacity(len),
            keys: Vec::new(),
            windows: Vec::new(),
            lazy: LazyScratch::with_capacity(len),
        }
    }

    /// Rewrites `order` from the packed image and returns it.
    fn sync_order(&mut self) -> &[usize] {
        self.order.clear();
        self.order
            .extend(self.packed.iter().map(|&x| (x & 0xffff_ffff) as usize));
        &self.order
    }

    /// How many windows the last [`Settler::keyed_windows`] handle has
    /// settled: the slots read so far, or 0 when the settler is inert.
    #[must_use]
    pub fn windows_settled(&self) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        self.windows
            .iter()
            .filter(|&&gamma| gamma != UNSETTLED)
            .count()
    }

    /// The settled order of the last [`Settler::settle_into`] call:
    /// `order()[p]` is the initial index of the instruction at settled
    /// position `p`. Empty before the first settle. The γ-only kernels
    /// ([`Settler::sample_gamma_scratch`] and friends) do not refresh this
    /// buffer.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The window growth `γ` of the last [`Settler::settle_into`] of
    /// `program`: instructions strictly between the settled critical LD
    /// and critical ST, read straight off the packed settling image. The
    /// γ kernels ([`Settler::sample_gamma_scratch`] and friends) do not
    /// write that image.
    ///
    /// # Panics
    ///
    /// Panics if the scratch does not hold a settled image of `program`
    /// (length mismatch, or a critical instruction not found), or if the
    /// critical store settled above the critical load — which the process
    /// makes impossible (same-location swaps always fail).
    #[must_use]
    pub fn gamma(&self, program: &Program) -> u64 {
        assert_eq!(
            self.packed.len(),
            program.len(),
            "scratch does not hold a settled image of this program"
        );
        image_gamma(
            &self.packed,
            program.critical_load_index(),
            program.critical_store_index(),
        )
    }
}

#[cfg(test)]
impl SettleScratch {
    /// Both γ kernels on one settle key:
    /// `((forward γ, forward attempts), (lazy γ, lazy attempts))`, and
    /// whether the lazy kernel finished forward.
    pub(crate) fn forward_and_lazy(
        &mut self,
        settler: &Settler,
        program: &Program,
        key: u64,
    ) -> ((u64, u64), (u64, u64), bool) {
        self.materialised.encode(program, false);
        let tables = settler.tables(self.materialised.image);
        self.words.reset(0, 0);
        let lazy = self
            .lazy
            .gamma(&self.materialised, &mut self.words, tables, key);
        let finished_forward = self.lazy.finished_forward();
        encode_image(program, &mut self.packed);
        let attempts = settle_packed(&mut self.packed, tables, program.len(), key);
        ((self.gamma(program), attempts), lazy, finished_forward)
    }

    /// Whether the last lazy settle ran out of walk budget and finished
    /// forward.
    pub(crate) fn finished_forward(&self) -> bool {
        self.lazy.finished_forward()
    }

    /// The lazy kernel on one settle of the program of key `program_key`
    /// over `shape` under settle key `key`, as [`KeyedWindows::gamma`] runs
    /// it, with the filler types of earlier calls on the same program key
    /// kept: `(γ, attempts decided, finished forward)`.
    pub(crate) fn traced_keyed_gamma(
        &mut self,
        settler: &Settler,
        shape: &ProgramShape,
        store_threshold: u64,
        program_key: u64,
        key: u64,
        fresh_program: bool,
    ) -> (u64, u64, bool) {
        let tables = settler.tables(shape.image);
        if tables.inert() {
            return (shape.image.inert_gamma(), 0, false);
        }
        if fresh_program {
            self.words.reset(program_key, store_threshold);
        }
        let (gamma, attempts) = self.lazy.gamma(shape, &mut self.words, tables, key);
        (gamma, attempts, self.lazy.finished_forward())
    }

    /// The keyed store run of [`Settler::store_run_keyed`] under settle key
    /// `key`: `(run, attempts decided, finished forward)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn traced_store_run(
        &mut self,
        settler: &Settler,
        shape: &ProgramShape,
        store_threshold: u64,
        program_key: u64,
        key: u64,
        rounds: usize,
        cap: usize,
    ) -> (u64, u64, bool) {
        let tables = settler.tables(shape.image);
        self.words.reset(program_key, store_threshold);
        let (run, attempts) = self
            .lazy
            .store_run(shape, &mut self.words, tables, key, rounds, cap);
        (run, attempts, self.lazy.finished_forward())
    }
}

impl fmt::Display for Settler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Settler[{}]", self.matrix)
    }
}

/// The outcome of a settling run: the program plus the final permutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Settled {
    program: Program,
    permutation: Permutation,
}

impl Settled {
    /// Assembles a `Settled` from already-validated parts (used by the
    /// tracer).
    pub(crate) fn from_parts(program: Program, permutation: Permutation) -> Settled {
        debug_assert_eq!(program.len(), permutation.len());
        Settled {
            program,
            permutation,
        }
    }

    /// The settled permutation `π`.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// The program that was settled.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Settled position of the instruction initially at `i`.
    #[must_use]
    pub fn position_of(&self, i: usize) -> usize {
        self.permutation.position_of(i)
    }

    /// The instructions in settled order, as an owned vector.
    ///
    /// Prefer [`settled_iter`](Settled::settled_iter) where a borrow
    /// suffices; this method is kept for API compatibility.
    #[must_use]
    pub fn settled_instructions(&self) -> Vec<Instruction> {
        self.settled_iter().copied().collect()
    }

    /// Iterates over the instructions in settled order without allocating.
    pub fn settled_iter(&self) -> impl Iterator<Item = &Instruction> + '_ {
        self.permutation
            .settled_order()
            .iter()
            .map(|&i| &self.program[i])
    }

    /// The window growth `γ`: instructions strictly between the critical LD
    /// and critical ST in the settled order.
    ///
    /// # Panics
    ///
    /// Panics if the critical store settled above the critical load, which
    /// the process makes impossible (same-location swaps always fail).
    #[must_use]
    pub fn gamma(&self) -> u64 {
        let ld = self.position_of(self.program.critical_load_index());
        let st = self.position_of(self.program.critical_store_index());
        assert!(st > ld, "critical store settled above critical load");
        (st - ld - 1) as u64
    }

    /// The critical-window length `Γ = γ + 2` (both critical instructions
    /// included) — the segment length fed to the shift process.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.gamma() + 2
    }

    /// The settled positions spanned by the critical window, inclusive
    /// (the paper's `W_k`).
    #[must_use]
    pub fn window_span(&self) -> std::ops::RangeInclusive<usize> {
        let ld = self.position_of(self.program.critical_load_index());
        let st = self.position_of(self.program.critical_store_index());
        ld..=st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::fence::FenceKind;
    use memmodel::OpType::{Ld, St};
    use progmodel::ProgramGenerator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn program(m: usize, seed: u64) -> Program {
        ProgramGenerator::new(m).generate(&mut rng(seed))
    }

    #[test]
    fn sc_settling_is_identity() {
        let settler = Settler::for_model(MemoryModel::Sc);
        for seed in 0..20 {
            let p = program(32, seed);
            let s = settler.settle(&p, &mut rng(seed + 100));
            assert!(s.permutation().is_identity());
            assert_eq!(s.gamma(), 0);
            assert_eq!(s.window_len(), 2);
        }
    }

    #[test]
    fn critical_pair_never_reorders_in_any_model() {
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            for seed in 0..50 {
                let p = program(24, seed);
                let s = settler.settle(&p, &mut rng(seed * 7 + 1));
                let ld = s.position_of(p.critical_load_index());
                let st = s.position_of(p.critical_store_index());
                assert!(ld < st, "{model}: critical pair reordered");
            }
        }
    }

    #[test]
    fn tso_preserves_relative_store_order() {
        let settler = Settler::for_model(MemoryModel::Tso);
        for seed in 0..50 {
            let p = program(24, seed);
            let s = settler.settle(&p, &mut rng(seed * 13 + 3));
            let store_positions: Vec<usize> = (0..p.len())
                .filter(|&i| p[i].op_type() == Some(St))
                .map(|i| s.position_of(i))
                .collect();
            assert!(
                store_positions.windows(2).all(|w| w[0] < w[1]),
                "TSO reordered two stores (seed {seed})"
            );
        }
    }

    #[test]
    fn tso_preserves_relative_load_order() {
        let settler = Settler::for_model(MemoryModel::Tso);
        for seed in 0..50 {
            let p = program(24, seed);
            let s = settler.settle(&p, &mut rng(seed * 17 + 5));
            let load_positions: Vec<usize> = (0..p.len())
                .filter(|&i| p[i].op_type() == Some(Ld))
                .map(|i| s.position_of(i))
                .collect();
            assert!(
                load_positions.windows(2).all(|w| w[0] < w[1]),
                "TSO reordered two loads (seed {seed})"
            );
        }
    }

    #[test]
    fn certain_swaps_climb_all_the_way() {
        // With s = 1 under WO, each instruction climbs to the top (blocked
        // only by same-location conflicts), reversing the filler order.
        let settler = Settler::new(ReorderMatrix::all(), SettleProbs::uniform(1.0).unwrap());
        let p = Program::from_filler_types(&[St, Ld, St]).unwrap();
        let s = settler.settle(&p, &mut rng(0));
        // Every round sends the new instruction straight to the top, so the
        // critical LD ends at the top and the critical ST directly below it
        // (blocked by the same-location rule).
        assert_eq!(s.position_of(p.critical_load_index()), 0);
        assert_eq!(s.position_of(p.critical_store_index()), 1);
        assert_eq!(s.gamma(), 0);
        // Fillers are fully reversed below the critical pair.
        assert_eq!(s.position_of(0), 4);
        assert_eq!(s.position_of(1), 3);
        assert_eq!(s.position_of(2), 2);
    }

    #[test]
    fn zero_probability_means_identity_even_when_relaxed() {
        let settler = Settler::new(ReorderMatrix::all(), SettleProbs::uniform(0.0).unwrap());
        let p = program(16, 9);
        let s = settler.settle(&p, &mut rng(10));
        assert!(s.permutation().is_identity());
    }

    #[test]
    fn settle_rounds_prefix_only_moves_prefix() {
        let settler = Settler::for_model(MemoryModel::Wo);
        let p = program(16, 11);
        let s = settler.settle_rounds(&p, 8, &mut rng(12));
        // Instructions 8.. have not settled; they must still be in initial
        // relative order at the bottom... in fact at their exact positions,
        // because settling rounds 0..8 only permutes positions 0..8.
        for i in 8..p.len() {
            assert_eq!(s.position_of(i), i, "unsettled instruction {i} moved");
        }
    }

    #[test]
    #[should_panic(expected = "cannot settle")]
    fn settle_rounds_bounds_checked() {
        let p = program(4, 0);
        let _ = Settler::for_model(MemoryModel::Sc).settle_rounds(&p, 7, &mut rng(0));
    }

    #[test]
    fn acquire_fence_pins_the_critical_load() {
        // An acquire fence directly above the critical LD prevents any
        // window growth in every model.
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            for seed in 0..20 {
                let p = program(16, seed).with_acquire_before_critical();
                let s = settler.settle(&p, &mut rng(seed + 40));
                assert_eq!(s.gamma(), 0, "{model}: fence failed to pin window");
            }
        }
    }

    #[test]
    fn release_fence_can_be_hoisted_past() {
        // A release fence permits hoisting: under WO with s = 1 an
        // instruction below it climbs past.
        let settler = Settler::new(ReorderMatrix::all(), SettleProbs::uniform(1.0).unwrap())
            .with_fence_pass_probability(1.0)
            .unwrap();
        let p = Program::from_filler_types(&[St])
            .unwrap()
            .with_fence_at(1, FenceKind::Release);
        // Order: ST, REL, LD*, ST*. The critical LD climbs past REL and ST.
        let s = settler.settle(&p, &mut rng(0));
        assert_eq!(s.position_of(p.critical_load_index()), 0);
    }

    #[test]
    fn full_fence_blocks_everything() {
        let settler = Settler::new(ReorderMatrix::all(), SettleProbs::uniform(1.0).unwrap());
        let p = Program::from_filler_types(&[St])
            .unwrap()
            .with_fence_at(1, FenceKind::Full);
        let s = settler.settle(&p, &mut rng(0));
        // The critical LD climbs to just below the fence (position 2's LD
        // cannot pass the FENCE at position 1).
        assert_eq!(s.position_of(p.critical_load_index()), 2);
    }

    #[test]
    fn fences_themselves_never_settle() {
        let settler = Settler::new(ReorderMatrix::all(), SettleProbs::uniform(1.0).unwrap());
        let p = Program::from_filler_types(&[St, St])
            .unwrap()
            .with_fence_at(2, FenceKind::Release);
        let s = settler.settle(&p, &mut rng(0));
        // The fence is at initial index 2; nothing it can do moves it up.
        // (Later instructions may push it down by climbing past.)
        let fence_initial = 2;
        assert!(p[fence_initial].is_fence());
        // All instructions that were above it stay above... the fence can
        // only move down; verify it did not move up.
        assert!(s.position_of(fence_initial) >= 2);
    }

    #[test]
    fn swap_probability_matrix_gating() {
        let tso = Settler::for_model(MemoryModel::Tso);
        let st = Instruction::mem(St, progmodel::Location::filler(0));
        let ld = Instruction::mem(Ld, progmodel::Location::filler(1));
        assert_eq!(tso.swap_probability(&st, &ld), 0.5); // ST then LD: relaxed
        assert_eq!(tso.swap_probability(&ld, &st), 0.0);
        assert_eq!(tso.swap_probability(&st, &st), 0.0);
        assert_eq!(tso.swap_probability(&ld, &ld), 0.0);
    }

    #[test]
    fn swap_probability_same_location_is_zero() {
        let wo = Settler::for_model(MemoryModel::Wo);
        let a = Instruction::mem(St, progmodel::Location::filler(3));
        let b = Instruction::mem(Ld, progmodel::Location::filler(3));
        assert_eq!(wo.swap_probability(&a, &b), 0.0);
        assert_eq!(
            wo.swap_probability(
                &Instruction::critical_load(),
                &Instruction::critical_store()
            ),
            0.0
        );
    }

    #[test]
    fn invalid_fence_probability_rejected() {
        assert!(Settler::for_model(MemoryModel::Wo)
            .with_fence_pass_probability(1.5)
            .is_err());
    }

    #[test]
    fn settle_is_deterministic_given_rng() {
        let settler = Settler::for_model(MemoryModel::Wo);
        let p = program(32, 5);
        let a = settler.settle(&p, &mut rng(77));
        let b = settler.settle(&p, &mut rng(77));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_gamma_matches_settle() {
        let settler = Settler::for_model(MemoryModel::Tso);
        let p = program(32, 6);
        assert_eq!(
            settler.sample_gamma(&p, &mut rng(88)),
            settler.settle(&p, &mut rng(88)).gamma()
        );
    }

    #[test]
    fn scratch_gamma_is_bit_for_bit_identical_to_settled_gamma() {
        // Equivalence regression: for every model, the in-place kernel and
        // the Settled route must produce the same γ AND consume the RNG
        // identically (the final RNG states match), so swapping routes
        // mid-stream cannot desynchronise downstream draws.
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let mut scratch = SettleScratch::new();
            for seed in 0..40 {
                let p = program(24, seed);
                let mut old_rng = rng(seed * 31 + 7);
                let mut new_rng = old_rng.clone();
                let old = settler.settle(&p, &mut old_rng).gamma();
                let new = settler.sample_gamma_scratch(&p, &mut scratch, &mut new_rng);
                assert_eq!(old, new, "{model} seed {seed}: γ diverged");
                assert_eq!(
                    old_rng, new_rng,
                    "{model} seed {seed}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn settle_into_matches_settle_rounds_order() {
        let settler = Settler::for_model(MemoryModel::Wo);
        let mut scratch = SettleScratch::new();
        for seed in 0..20 {
            let p = program(16, seed);
            for rounds in [0usize, 1, 8, 18] {
                let mut a = rng(seed + 500);
                let mut b = a.clone();
                let settled = settler.settle_rounds(&p, rounds, &mut a);
                let order = settler.settle_into(&p, rounds, &mut scratch, &mut b);
                assert_eq!(settled.permutation().settled_order(), order);
                assert_eq!(a, b, "RNG streams diverged at rounds={rounds}");
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_program_sizes() {
        let settler = Settler::for_model(MemoryModel::Wo);
        let mut scratch = SettleScratch::with_capacity(34);
        for (m, seed) in [(32usize, 1u64), (8, 2), (16, 3)] {
            let p = program(m, seed);
            let g = settler.sample_gamma_scratch(&p, &mut scratch, &mut rng(seed + 9));
            assert_eq!(g, settler.sample_gamma(&p, &mut rng(seed + 9)));
            settler.settle_into(&p, p.len(), &mut scratch, &mut rng(seed + 9));
            assert_eq!(scratch.order().len(), p.len());
        }
    }

    #[test]
    fn scratch_gamma_validates_program_length() {
        let settler = Settler::for_model(MemoryModel::Sc);
        let mut scratch = SettleScratch::new();
        let p = program(8, 0);
        settler.settle_into(&p, p.len(), &mut scratch, &mut rng(1));
        let other = program(12, 0);
        let result = std::panic::catch_unwind(move || scratch.gamma(&other));
        assert!(result.is_err(), "length mismatch must be rejected");
    }

    #[test]
    fn batched_gammas_are_bit_for_bit_identical_to_sequential() {
        // The memcpy-restore batch kernel must consume the RNG exactly as
        // n sequential sample_gamma_scratch calls (and as n Settled
        // routes), for every model.
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let mut scratch = SettleScratch::new();
            let mut batch = [0u64; 4];
            for seed in 0..25 {
                let p = program(24, seed);
                let mut seq_rng = rng(seed * 41 + 3);
                let mut batch_rng = seq_rng.clone();
                let seq: Vec<u64> = (0..4)
                    .map(|_| settler.settle(&p, &mut seq_rng).gamma())
                    .collect();
                settler.sample_gammas_scratch(&p, &mut batch, &mut scratch, &mut batch_rng);
                assert_eq!(seq, batch, "{model} seed {seed}: γ batch diverged");
                assert_eq!(
                    seq_rng, batch_rng,
                    "{model} seed {seed}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn attempt_draws_are_the_splitmix_stream_of_the_key() {
        // Attempt k of round r is output r·2³² + k of the SplitMix64
        // stream seeded with the key: the reference outputs of seed 0,
        // then random access into the stream.
        let reference = [
            0xe220_a839_7b1d_cdaf_u64,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
        ];
        for (attempt, want) in reference.into_iter().enumerate() {
            assert_eq!(attempt_draw(0, 0, attempt), want >> 11);
        }
        let step = 0x9E37_79B9_7F4A_7C15_u64;
        assert_eq!(
            attempt_draw(step.wrapping_mul(1 << 32), 0, 1),
            attempt_draw(0, 1, 1)
        );
        assert_eq!(
            attempt_draw(7, 3, 2),
            attempt_draw(7u64.wrapping_add(step.wrapping_mul(2)), 3, 0)
        );
    }

    #[test]
    fn a_settle_draws_one_key_unless_inert() {
        let p = program(24, 3);
        for model in MemoryModel::NAMED {
            let settler = Settler::for_model(model);
            let draws = usize::from(model != MemoryModel::Sc);
            let mut gammas = [0u64; 5];
            let mut a = rng(9);
            settler.sample_gammas_scratch(&p, &mut gammas, &mut SettleScratch::new(), &mut a);
            let mut b = rng(9);
            for _ in 0..gammas.len() * draws {
                let _ = rand::RngCore::next_u64(&mut b);
            }
            assert_eq!(a, b, "{model}: one key per settle");
            let mut c = rng(9);
            assert_eq!(settler.settle_key(&p, &mut c).is_some(), draws == 1);
        }
        // A release fence with pass probability 0 leaves SC inert.
        let fenced = p.with_fence_at(10, FenceKind::Release);
        let sc = Settler::for_model(MemoryModel::Sc)
            .with_fence_pass_probability(0.0)
            .unwrap();
        assert_eq!(sc.settle_key(&fenced, &mut rng(1)), None);
        let sc = Settler::for_model(MemoryModel::Sc);
        assert!(sc.settle_key(&fenced, &mut rng(1)).is_some());
    }

    #[test]
    fn settled_iter_matches_settled_instructions() {
        let settler = Settler::for_model(MemoryModel::Wo);
        let p = program(16, 4);
        let s = settler.settle(&p, &mut rng(42));
        let owned = s.settled_instructions();
        let borrowed: Vec<Instruction> = s.settled_iter().copied().collect();
        assert_eq!(owned, borrowed);
        assert_eq!(s.settled_iter().count(), p.len());
    }
}
