//! The canonical increment's own kernel: [`IncrementMachine`] steps only
//! the state the outcome of the §2.2 race depends on.
//!
//! Every core runs `fillers` private accesses, an optional fence, then
//! `LD x; ADD 1; ST x` on its accumulator. A filler touches only its own
//! location and its scratch register, which no other op reads, so filler
//! values never reach `x`. What does:
//!
//! * per core: the start delay, the pc (in order) or the pending bitset
//!   (out of order), the accumulator, and the store buffer;
//! * per machine: `x`'s committed value and the cycle's last staged `x`.
//!
//! An in-order core pushes stores in program order and the `x` store is
//! its last op, so its buffer is always some filler stores followed, at
//! the tail, by at most the `x` store. The buffer is therefore a count of
//! filler stores and one flag. Its locations are all distinct (each
//! filler slot has its own), so PSO's
//! [`drain_random_location`](crate::StoreBuffer::drain_random_location)
//! picks entry `gen_range(0..len)` directly, and the `x` store drains when
//! that is the tail. A core without a buffer (SC) never stalls on its
//! fence, so its fillers and fence are only delay.
//!
//! An out-of-order core's issue dependencies depend on the trial only
//! through the filler pattern, so up to [`MEMO_FILLERS`] fillers each
//! pattern is planned once, and the ready ops are a mask of the pending
//! word against those rows.

use crate::cpu::plan_rows;
use crate::machine::{start_delay, Outcome, RunError, SimParams, MAX_CYCLES};
use crate::workload::{build_workload, retype};
use crate::Op;
use memmodel::draw::{bool_threshold, CERTAIN};
use memmodel::fence::FenceKind;
use memmodel::{MemoryModel, OpType, ReorderMatrix};
use rand::Rng;

/// Out-of-order issue rows are memoised per filler pattern up to this many
/// fillers (`2^8 = 256` patterns, opsim's 8 fillers); longer programs are
/// planned per trial.
const MEMO_FILLERS: usize = 8;

/// How a core issues and retires its stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Issue {
    /// In order, stores staged directly (loads may not pass stores).
    Direct,
    /// In order through a store buffer drained oldest first.
    Fifo,
    /// In order through a store buffer drained at a uniformly random
    /// location (PSO).
    AnyLocation,
    /// Out of order from a window; stores staged directly.
    OutOfOrder,
}

/// One core's state.
#[derive(Debug, Clone, Copy, Default)]
struct Core {
    /// Cycles left before the first instruction.
    delay: u64,
    /// In order: the next slot. Out of order: the lowest un-issued slot.
    pc: usize,
    /// The accumulator `r0`.
    acc: i64,
    /// Buffered filler stores, all older than a buffered `x` store.
    fillers_buffered: usize,
    /// Whether the `x` store is buffered (always the youngest entry).
    x_buffered: bool,
    /// Retired, with an empty buffer.
    done: bool,
}

impl Core {
    fn buffer_len(&self) -> usize {
        self.fillers_buffered + usize::from(self.x_buffered)
    }
}

/// A reusable machine for the canonical increment workload
/// ([`increment_workload`](crate::increment_workload), or
/// [`increment_workload_fenced`](crate::increment_workload_fenced)): each
/// [`run`](IncrementMachine::run) is one fresh trial.
///
/// Each trial is draw for draw the trial of building the workload and a
/// [`Machine::new`](crate::Machine::new) afresh from the same RNG state,
/// and running it: same outcome, same cycle count, same RNG end state. It
/// steps only the state the outcome depends on (see the module docs), and
/// steady-state trials allocate nothing.
///
/// # Example
///
/// ```
/// use execsim::{IncrementMachine, SimParams};
/// use memmodel::MemoryModel;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let mut machine = IncrementMachine::new(2, 4, SimParams::for_model(MemoryModel::Wo));
/// for _ in 0..3 {
///     let outcome = machine.run(&mut rng).expect("terminates");
///     assert!(outcome.shared_value() == 1 || outcome.shared_value() == 2);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementMachine {
    cores: Vec<Core>,
    /// The per-cycle core service order.
    service: Vec<usize>,
    fillers: usize,
    /// The fence kind's slot stalls on a non-empty buffer.
    fence_waits: bool,
    stagger: bool,
    issue: Issue,
    /// The drain coin's [`bool_threshold`].
    drain: u64,
    /// Program length in slots: fillers, the fence if any, then `LD x`,
    /// `ADD`, `ST x`.
    len: usize,
    /// Filler store bits of the current trial, 64 slots a word.
    pattern: Vec<u64>,
    /// Out of order only: the issue window.
    window: usize,
    /// Out of order only: words per bitset row.
    words: usize,
    /// Out of order only: each core's pending bitset, `words` words apiece.
    pending: Vec<u64>,
    /// Out of order only: `pending` at the start of a trial, every op.
    pending_start: Vec<u64>,
    /// Out of order only: one plan of `len` rows per memo slot, each slot
    /// the rows of one filler pattern (one slot, replanned per trial, past
    /// [`MEMO_FILLERS`]).
    rows: Vec<u64>,
    /// Out of order only: which memo slots hold their pattern's plan.
    planned: Vec<bool>,
    /// Out of order only: core 0's program, retyped to plan a pattern.
    program: Vec<Op>,
    matrix: ReorderMatrix,
    /// Scratch of [`plan_rows`] and of the ready ops.
    blockers: Vec<u64>,
    ready: Vec<usize>,
}

impl IncrementMachine {
    /// A machine running [`increment_workload`](crate::increment_workload)`(n, filler, ·)`
    /// under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.drain_prob` is outside `[0, 1]`.
    #[must_use]
    pub fn new(n: usize, filler: usize, params: SimParams) -> IncrementMachine {
        IncrementMachine::build(n, filler, None, params)
    }

    /// A machine running
    /// [`increment_workload_fenced`](crate::increment_workload_fenced)`(n, filler, fence, ·)`
    /// under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.drain_prob` is outside `[0, 1]`.
    #[must_use]
    pub fn fenced(
        n: usize,
        filler: usize,
        fence: FenceKind,
        params: SimParams,
    ) -> IncrementMachine {
        IncrementMachine::build(n, filler, Some(fence), params)
    }

    fn build(
        n: usize,
        fillers: usize,
        fence: Option<FenceKind>,
        params: SimParams,
    ) -> IncrementMachine {
        use OpType::{Ld, St};
        assert!(
            (0.0..=1.0).contains(&params.drain_prob),
            "drain probability {} is outside [0, 1]",
            params.drain_prob
        );
        let matrix = params.model.matrix();
        let issue = if matrix.allows(Ld, Ld) || matrix.allows(Ld, St) {
            Issue::OutOfOrder
        } else if !matrix.allows(St, Ld) {
            Issue::Direct
        } else if params.model == MemoryModel::Pso {
            Issue::AnyLocation
        } else {
            Issue::Fifo
        };
        let len = fillers + usize::from(fence.is_some()) + 3;
        let words = len.div_ceil(64);
        let mut machine = IncrementMachine {
            cores: vec![Core::default(); n],
            service: Vec::with_capacity(n),
            fillers,
            fence_waits: fence.is_some_and(|kind| kind != FenceKind::Acquire),
            stagger: params.stagger,
            issue,
            drain: bool_threshold(params.drain_prob),
            len,
            pattern: vec![0; fillers.div_ceil(64)],
            window: params.window.max(1),
            words,
            pending: Vec::new(),
            pending_start: Vec::new(),
            rows: Vec::new(),
            planned: Vec::new(),
            program: Vec::new(),
            matrix,
            blockers: Vec::new(),
            ready: Vec::new(),
        };
        if issue == Issue::OutOfOrder {
            let slots = if fillers <= MEMO_FILLERS {
                1 << fillers
            } else {
                1
            };
            let mut start = vec![u64::MAX; words];
            if !len.is_multiple_of(64) {
                start[words - 1] = (1 << (len % 64)) - 1;
            }
            machine.pending_start = start.repeat(n);
            machine.pending = machine.pending_start.clone();
            machine.rows = vec![0; slots * len * words];
            machine.planned = vec![false; slots];
            machine.program = build_workload(1, &vec![false; fillers], fence)[0]
                .ops()
                .to_vec();
        }
        machine
    }

    /// Runs one trial: draws the filler types and the start delays, then
    /// runs to quiescence (see [`Machine::run`](crate::Machine::run)).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the machine fails to quiesce within
    /// [`Machine`](crate::Machine)'s default cycle budget.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Outcome, RunError> {
        self.pattern.fill(0);
        // Filler j is a store iff its draw is below the fair coin's
        // threshold: `rng.gen_bool(0.5)` draw for draw.
        let half = bool_threshold(0.5);
        for j in 0..self.fillers {
            self.pattern[j / 64] |= u64::from(rng.next_u64() >> 11 < half) << (j % 64);
        }
        let rows = if self.issue == Issue::OutOfOrder {
            self.plan()
        } else {
            0
        };
        // A direct core's fillers and fence reach nothing (its buffer is
        // always empty, so the fence never stalls): they are one more
        // cycle of delay each, and it starts at `LD x`.
        let skip = if self.issue == Issue::Direct {
            self.len - 3
        } else {
            0
        };
        for core in &mut self.cores {
            *core = Core {
                delay: start_delay(self.stagger, rng) + skip as u64,
                pc: skip,
                ..Core::default()
            };
        }
        self.pending.copy_from_slice(&self.pending_start);
        let n = self.cores.len();
        self.service.clear();
        self.service.extend(0..n);
        let (mut x, mut live) = (0, n);
        for cycle in 0..MAX_CYCLES {
            if live == 0 {
                return Ok(Outcome::new(x, cycle, n));
            }
            // Fisher-Yates shuffle of the service order.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                self.service.swap(i, j);
            }
            let mut staged = None;
            for k in 0..n {
                let c = self.service[k];
                let finished = if self.issue == Issue::OutOfOrder {
                    self.step_out_of_order(c, x, rows, &mut staged, rng)
                } else {
                    self.step_in_order(c, x, &mut staged, rng)
                };
                live -= usize::from(finished);
            }
            if let Some(value) = staged {
                x = value;
            }
        }
        Err(RunError {
            max_cycles: MAX_CYCLES,
        })
    }

    /// The offset in `rows` of the current pattern's issue rows, planning
    /// them unless memoised.
    fn plan(&mut self) -> usize {
        let memoised = self.fillers <= MEMO_FILLERS;
        // A memoised pattern is at most one word, and is its slot's index.
        let slot = if memoised {
            self.pattern.first().map_or(0, |&word| word as usize)
        } else {
            0
        };
        let stride = self.len * self.words;
        if !(memoised && self.planned[slot]) {
            retype(&mut self.program, self.fillers, &self.pattern);
            let rows = &mut self.rows[slot * stride..(slot + 1) * stride];
            plan_rows(
                &self.program,
                self.matrix,
                self.window,
                rows,
                &mut self.blockers,
            );
            self.planned[slot] = true;
        }
        slot * stride
    }

    /// One cycle of in-order core `c`: possibly one instruction, then
    /// possibly one drain. Returns whether the core finished.
    fn step_in_order<R: Rng + ?Sized>(
        &mut self,
        c: usize,
        x: i64,
        staged: &mut Option<i64>,
        rng: &mut R,
    ) -> bool {
        let mut core = self.cores[c];
        if core.done {
            return false;
        }
        if core.delay > 0 {
            self.cores[c].delay -= 1;
            return false;
        }
        let buffered = self.issue != Issue::Direct;
        let pc = core.pc;
        if pc < self.fillers {
            core.fillers_buffered +=
                usize::from(buffered) & (self.pattern[pc / 64] >> (pc % 64)) as usize & 1;
            core.pc += 1;
        } else if pc + 3 < self.len {
            // The fence: full and release fences wait for an empty buffer.
            if !(self.fence_waits && core.buffer_len() > 0) {
                core.pc += 1;
            }
        } else if pc < self.len {
            if let Some(value) = trailer(&mut core, self.len - pc, x) {
                if buffered {
                    core.x_buffered = true;
                } else {
                    *staged = Some(value);
                }
            }
            core.pc += 1;
        }
        let len = core.buffer_len();
        if len > 0 {
            // The drain coin, then which entry drains: PSO's uniformly
            // random one (the `x` store is the tail), else the oldest.
            let hit = self.drain == CERTAIN || rng.next_u64() >> 11 < self.drain;
            let x_drains = if self.issue == Issue::AnyLocation {
                hit && rng.gen_range(0..len) == len - 1 && core.x_buffered
            } else {
                hit & (core.fillers_buffered == 0)
            };
            core.fillers_buffered -= usize::from(hit & !x_drains);
            core.x_buffered &= !x_drains;
            if x_drains {
                *staged = Some(core.acc);
            }
        }
        core.done = core.pc == self.len && core.buffer_len() == 0;
        self.cores[c] = core;
        core.done
    }

    /// One cycle of out-of-order core `c`, issuing from the rows at
    /// offset `rows`: one uniformly random ready op of its window. Returns
    /// whether the core finished.
    fn step_out_of_order<R: Rng + ?Sized>(
        &mut self,
        c: usize,
        x: i64,
        rows: usize,
        staged: &mut Option<i64>,
        rng: &mut R,
    ) -> bool {
        let mut core = self.cores[c];
        if core.done {
            return false;
        }
        if core.delay > 0 {
            self.cores[c].delay -= 1;
            return false;
        }
        let words = self.words;
        let pending = &mut self.pending[c * words..(c + 1) * words];
        let is_pending = |pending: &[u64], i: usize| pending[i / 64] >> (i % 64) & 1 == 1;
        let end = (core.pc + self.window).min(self.len);
        // The ready ops, in slot order: pending ops of the window whose row
        // meets no pending op. Never empty: the lowest pending op waits on
        // nothing. On one word, each op of the window is written to the
        // next free place of the list, which only a ready op keeps.
        let choice = if words == 1 {
            let p = pending[0];
            let mut ready = [0u8; 64];
            let mut count = 0;
            for (i, row) in self.rows[rows..rows + end].iter().enumerate().skip(core.pc) {
                ready[count] = i as u8;
                count += usize::from(row & p == 0) & (p >> i) as usize & 1;
            }
            usize::from(ready[rng.gen_range(0..count)])
        } else {
            self.ready.clear();
            for i in core.pc..end {
                let row = &self.rows[rows + i * words..rows + (i + 1) * words];
                if is_pending(pending, i)
                    && row.iter().zip(pending.iter()).all(|(dep, p)| dep & p == 0)
                {
                    self.ready.push(i);
                }
            }
            self.ready[rng.gen_range(0..self.ready.len())]
        };
        if choice + 3 >= self.len {
            if let Some(value) = trailer(&mut core, self.len - choice, x) {
                *staged = Some(value);
            }
        }
        pending[choice / 64] &= !(1 << (choice % 64));
        if words == 1 {
            core.pc = (pending[0].trailing_zeros() as usize).min(self.len);
        } else {
            while core.pc < self.len && !is_pending(pending, core.pc) {
                core.pc += 1;
            }
        }
        core.done = core.pc == self.len;
        self.cores[c] = core;
        core.done
    }
}

/// Executes the trailer slot `from_end` slots before the end of the program
/// (`LD x`, `ADD 1`, `ST x` at 3, 2, 1) on `core`, where `x` is the
/// begin-of-cycle value. Returns the value stored if the slot is `ST x`.
fn trailer(core: &mut Core, from_end: usize, x: i64) -> Option<i64> {
    match from_end {
        3 => core.acc = x,
        2 => core.acc = core.acc.wrapping_add(1),
        _ => return Some(core.acc),
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{increment_workload, Machine};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn reused_increment_machine_is_a_fresh_machine_per_trial() {
        // 4 core counts × 4 filler lengths × 6 models × 2 stagger settings
        // × 2 workloads = 384 configurations of 30 trials each: 11,520
        // trials. One reused machine per configuration must give each
        // trial's outcome (final value, cycle count) and RNG end state of
        // building the workload and a fresh Machine from the same state.
        use crate::increment_workload_fenced;
        use memmodel::ReorderMatrix;
        let models = [
            MemoryModel::Sc,
            MemoryModel::Tso,
            MemoryModel::Pso,
            MemoryModel::Wo,
            // Out of order on LD/LD and ST/ST only.
            MemoryModel::Custom(ReorderMatrix::new(true, false, false, true)),
            // PSO's matrix without PSO's drain policy: in order, FIFO buffer.
            MemoryModel::Custom(MemoryModel::Pso.matrix()),
        ];
        let mut r = rng(0xe5e5);
        let mut trials = 0;
        for n in 1..=4 {
            // 70 fillers make a program longer than one bitset word.
            for filler in [0, 8, 16, 70] {
                for model in models {
                    for stagger in [true, false] {
                        for fence in [None, Some(FenceKind::ALL[r.gen_range(0..3)])] {
                            let mut params = SimParams::for_model(model);
                            params.stagger = stagger;
                            params.window = [1, 3, 8, 80][r.gen_range(0..4)];
                            let mut machine = match fence {
                                None => IncrementMachine::new(n, filler, params),
                                Some(kind) => IncrementMachine::fenced(n, filler, kind, params),
                            };
                            for _ in 0..30 {
                                let mut fresh_rng = rng(r.gen());
                                let mut reused_rng = fresh_rng.clone();
                                let programs = match fence {
                                    None => increment_workload(n, filler, &mut fresh_rng),
                                    Some(kind) => {
                                        increment_workload_fenced(n, filler, kind, &mut fresh_rng)
                                    }
                                };
                                let fresh = Machine::new(programs, params, &mut fresh_rng)
                                    .run(&mut fresh_rng);
                                let reused = machine.run(&mut reused_rng);
                                assert_eq!(
                                    reused, fresh,
                                    "{params:?} n {n} filler {filler} fence {fence:?}"
                                );
                                assert_eq!(
                                    reused_rng, fresh_rng,
                                    "RNG end states differ: {params:?} n {n}"
                                );
                                trials += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(trials, 11_520);
    }

    #[test]
    fn increment_streams_are_pinned() {
        // Per model, an FNV-1a hash of every trial's (cycles, final value)
        // over 128 reused machines (1–4 cores, fillers {0, 8, 16, 70},
        // windows {1, 3, 8, 80}, fenced and unfenced, stagger on and off)
        // of 132 trials each, plus the RNG's next output: 16,896 trials a
        // model, 101,376 in all. Recorded on the generic `Machine` that
        // this kernel replaced.
        use memmodel::ReorderMatrix;
        let pinned = [
            (
                MemoryModel::Sc,
                0x3b49_a232_6394_41a3,
                0x483d_5797_1eac_bcf6,
            ),
            (
                MemoryModel::Tso,
                0x0e2d_62c2_a706_30c7,
                0xc2f4_44da_efd8_1221,
            ),
            (
                MemoryModel::Pso,
                0x40cc_65cb_b7b0_f07a,
                0x6d8f_e16c_a2c6_6000,
            ),
            (
                MemoryModel::Wo,
                0x4f2a_2df0_c394_088d,
                0x081c_929a_83fb_2b24,
            ),
            (
                MemoryModel::Custom(ReorderMatrix::new(true, false, false, true)),
                0x877c_1b11_82ef_a826,
                0x081c_929a_83fb_2b24,
            ),
            (
                // PSO's matrix without PSO's drain policy: TSO's stream.
                MemoryModel::Custom(ReorderMatrix::new(true, true, false, false)),
                0x0e2d_62c2_a706_30c7,
                0xc2f4_44da_efd8_1221,
            ),
        ];
        let mut got = Vec::new();
        for (model, _, _) in pinned {
            let mut r = rng(0x1ac5);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut fold = |x: u64| hash = (hash ^ x).wrapping_mul(0x0100_0000_01b3);
            for config in 0..128usize {
                let n = 1 + config % 4;
                let filler = [0, 8, 16, 70][config / 4 % 4];
                let mut params = SimParams::for_model(model);
                params.window = [1, 3, 8, 80][config / 16 % 4];
                params.stagger = config / 64 == 0;
                let mut machine = match config % 5 {
                    0 | 1 => IncrementMachine::new(n, filler, params),
                    k => IncrementMachine::fenced(n, filler, FenceKind::ALL[k - 2], params),
                };
                for _ in 0..132 {
                    let out = machine.run(&mut r).unwrap();
                    fold(out.cycles());
                    fold(out.shared_value() as u64);
                }
            }
            got.push((model, hash, r.gen::<u64>()));
        }
        assert_eq!(got, pinned.to_vec());
    }

    #[test]
    fn pso_drains_pick_a_buffer_index() {
        // Every store of an increment core has a location of its own, so
        // the locations in its store buffer are distinct...
        use crate::workload::build_workload;
        use crate::StoreBuffer;
        use progmodel::Location;
        for n in 1..=4 {
            for filler in [0, 1, 8, 70] {
                for fence in [None, Some(FenceKind::Full)] {
                    for program in build_workload(n, &vec![true; filler], fence) {
                        let mut stored = std::collections::HashSet::new();
                        for op in program.ops() {
                            if let Op::Store { loc, .. } = op {
                                assert!(stored.insert(*loc), "{loc} stored twice: {program}");
                            }
                        }
                        assert_eq!(stored.len(), filler + 1);
                    }
                }
            }
        }
        // ...and over distinct locations, a PSO drain takes entry
        // `gen_range(0..len)` of the buffer, in push order: the kernel's
        // direct pick, draw for draw.
        let mut r = rng(0x950);
        for _ in 0..2_000 {
            let mut buffer = StoreBuffer::new();
            let mut entries: Vec<(Location, i64)> = (0..r.gen_range(1..=12))
                .map(|i| (Location::filler(i), i as i64))
                .collect();
            for &(loc, value) in &entries {
                buffer.push(loc, value);
            }
            while !entries.is_empty() {
                let mut direct = r.clone();
                let expected = entries.remove(direct.gen_range(0..entries.len()));
                assert_eq!(buffer.drain_random_location(&mut r), Some(expected));
                assert_eq!(r, direct);
            }
        }
    }
}
