//! A single simulated core.

use crate::{CoreProgram, Op, Reg, SharedMemory, StoreBuffer};
use memmodel::fence::FenceKind;
use memmodel::{MemoryModel, ReorderMatrix};
use rand::Rng;

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Start-staggered; not yet executing (the shift process's `η`).
    Waiting,
    /// Executing instructions.
    Running,
    /// All instructions retired; store buffer still draining.
    Draining,
    /// Finished, buffer empty.
    Done,
}

/// What one core did during one cycle (for timeline tracing).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepEvent {
    /// The instruction executed this cycle, if any (None = waiting,
    /// stalled on a fence, or out of ready work).
    pub executed: Option<Op>,
    /// A store that drained from the buffer to memory this cycle.
    pub drained: Option<(progmodel::Location, i64)>,
}

/// One simulated core: registers, program, and model-specific reordering
/// machinery (store buffer for TSO/PSO, out-of-order window for WO and
/// custom models).
#[derive(Debug, Clone)]
pub struct Cpu {
    program: CoreProgram,
    regs: [i64; Reg::COUNT],
    model: MemoryModel,
    buffer: StoreBuffer,
    start_delay: u64,
    /// In-order models: next op index. OoO: lowest un-issued index.
    pc: usize,
    window: usize,
    drain_prob: f64,
    /// Whether the core issues out of order (WO, or any custom model that
    /// relaxes a pair beyond what a store buffer expresses).
    out_of_order: bool,
    /// In-order only: whether stores pass through the store buffer (the
    /// model lets loads pass earlier stores).
    buffered: bool,
    /// OoO only: the issue dependencies, one bitset row of
    /// [`Cpu::words`] words per op: bit `j` of row `i` is set when op `i`
    /// may not issue while earlier op `j` is un-issued. Only pairs that
    /// can share the window are recorded.
    deps: Vec<u64>,
    /// OoO only: bitset of the un-issued ops.
    pending: Vec<u64>,
    /// OoO only: the ops ready to issue this step (reused buffer).
    ready: Vec<usize>,
    /// OoO only: [`Cpu::plan`]'s bitsets of the ops planned so far, one
    /// row of [`Cpu::words`] words per blocker class (reused buffer).
    blockers: Vec<u64>,
}

impl Cpu {
    /// A core with the given program, model, start delay (cycles to wait
    /// before the first instruction), OoO window size, and per-cycle store
    /// buffer drain probability.
    #[must_use]
    pub fn new(
        program: CoreProgram,
        model: MemoryModel,
        start_delay: u64,
        window: usize,
        drain_prob: f64,
    ) -> Cpu {
        use memmodel::OpType::{Ld, St};
        let m = model.matrix();
        let mut cpu = Cpu {
            program,
            regs: [0; Reg::COUNT],
            model,
            buffer: StoreBuffer::new(),
            start_delay,
            pc: 0,
            window: window.max(1),
            drain_prob,
            out_of_order: m.allows(Ld, Ld) || m.allows(Ld, St),
            buffered: m.allows(St, Ld),
            deps: Vec::new(),
            pending: Vec::new(),
            ready: Vec::new(),
            blockers: Vec::new(),
        };
        cpu.plan();
        cpu.restart(start_delay);
        cpu
    }

    /// Current execution state.
    #[must_use]
    pub fn state(&self) -> CpuState {
        if self.start_delay > 0 {
            CpuState::Waiting
        } else if self.pc < self.program.len() {
            CpuState::Running
        } else if !self.buffer.is_empty() {
            CpuState::Draining
        } else {
            CpuState::Done
        }
    }

    /// The register file (for post-run inspection).
    #[must_use]
    pub fn regs(&self) -> &[i64; Reg::COUNT] {
        &self.regs
    }

    /// The words per row of the OoO bitsets.
    fn words(&self) -> usize {
        self.program.len().div_ceil(64)
    }

    /// Derives the OoO issue dependencies of the current program (nothing
    /// for an in-order core); see [`plan_rows`].
    pub(crate) fn plan(&mut self) {
        self.deps.clear();
        if self.out_of_order {
            self.deps.resize(self.program.len() * self.words(), 0);
            plan_rows(
                self.program.ops(),
                self.model.matrix(),
                self.window,
                &mut self.deps,
                &mut self.blockers,
            );
        }
    }

    /// Resets the core to the start of its program with an empty store
    /// buffer and zeroed registers, waiting `start_delay` cycles.
    pub(crate) fn restart(&mut self, start_delay: u64) {
        self.regs = [0; Reg::COUNT];
        self.buffer.clear();
        self.start_delay = start_delay;
        self.pc = 0;
        self.pending.clear();
        if self.out_of_order {
            let len = self.program.len();
            self.pending.resize(self.words(), u64::MAX);
            if !len.is_multiple_of(64) {
                *self.pending.last_mut().expect("a non-empty program") = (1 << (len % 64)) - 1;
            }
        }
    }

    /// Runs one cycle: possibly executes one instruction, then possibly
    /// drains one store-buffer entry. Loads read `mem`'s begin-of-cycle
    /// state; stores stage for end-of-cycle commit. Returns what happened,
    /// for timeline tracing.
    pub fn step<R: Rng + ?Sized>(&mut self, mem: &mut SharedMemory, rng: &mut R) -> StepEvent {
        let mut event = StepEvent::default();
        if self.start_delay > 0 {
            self.start_delay -= 1;
            return event;
        }
        if self.pc < self.program.len() {
            event.executed = if self.out_of_order {
                self.step_out_of_order(mem, rng)
            } else {
                self.step_in_order(mem)
            };
        }
        // Store-buffer drain (TSO/PSO path; the OoO path stages directly).
        if !self.buffer.is_empty() && rng.gen_bool(self.drain_prob) {
            let drained = match self.model {
                MemoryModel::Pso => self.buffer.drain_random_location(rng),
                _ => self.buffer.drain_fifo(),
            };
            if let Some((loc, value)) = drained {
                mem.stage_write(loc, value);
                event.drained = Some((loc, value));
            }
        }
        event
    }

    /// In-order pipeline with a store buffer (SC / TSO / PSO). Returns the
    /// executed instruction, or `None` on a fence stall.
    fn step_in_order(&mut self, mem: &mut SharedMemory) -> Option<Op> {
        let op = self.program.ops()[self.pc];
        match op {
            Op::Load { reg, loc } => {
                let value = if self.buffered {
                    self.buffer.forward(loc).unwrap_or_else(|| mem.read(loc))
                } else {
                    mem.read(loc)
                };
                self.regs[reg.index()] = value;
            }
            Op::Store { reg, loc } => {
                let value = self.regs[reg.index()];
                if self.buffered {
                    self.buffer.push(loc, value);
                } else {
                    mem.stage_write(loc, value);
                }
            }
            Op::AddImm { reg, imm } => {
                self.regs[reg.index()] = self.regs[reg.index()].wrapping_add(imm);
            }
            Op::Fence(kind) => {
                // Full and release fences wait for prior stores to become
                // visible; an acquire has nothing to wait for in-order.
                if !matches!(kind, FenceKind::Acquire) && !self.buffer.is_empty() {
                    // Stall this cycle; the trailing drain in `step` still
                    // runs, so the fence eventually clears.
                    return None;
                }
            }
        }
        self.pc += 1;
        Some(op)
    }

    /// Out-of-order issue from a bounded window (WO and custom models).
    /// Returns the issued instruction, if any was ready.
    fn step_out_of_order<R: Rng + ?Sized>(
        &mut self,
        mem: &mut SharedMemory,
        rng: &mut R,
    ) -> Option<Op> {
        let end = (self.pc + self.window).min(self.program.len());
        self.ready.clear();
        for i in self.pc..end {
            if self.is_ready(i) {
                self.ready.push(i);
            }
        }
        if self.ready.is_empty() {
            return None;
        }
        let choice = self.ready[rng.gen_range(0..self.ready.len())];
        self.execute_now(choice, mem);
        self.pending[choice / 64] &= !(1 << (choice % 64));
        while self.pc < self.program.len() && !self.is_pending(self.pc) {
            self.pc += 1;
        }
        Some(self.program.ops()[choice])
    }

    /// Whether op `i` is un-issued.
    fn is_pending(&self, i: usize) -> bool {
        self.pending[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether op `i` is un-issued and may issue ahead of all earlier
    /// un-issued ops.
    fn is_ready(&self, i: usize) -> bool {
        let words = self.words();
        let row = &self.deps[i * words..(i + 1) * words];
        self.is_pending(i)
            && row
                .iter()
                .zip(&self.pending)
                .all(|(dep, pending)| dep & pending == 0)
    }

    fn execute_now(&mut self, i: usize, mem: &mut SharedMemory) {
        match self.program.ops()[i] {
            Op::Load { reg, loc } => self.regs[reg.index()] = mem.read(loc),
            Op::Store { reg, loc } => mem.stage_write(loc, self.regs[reg.index()]),
            Op::AddImm { reg, imm } => {
                self.regs[reg.index()] = self.regs[reg.index()].wrapping_add(imm);
            }
            Op::Fence(_) => {}
        }
    }
}

/// Writes the OoO issue dependencies of `ops` under `matrix` and a
/// `window`-op issue window to `deps`: one bitset row of
/// `ops.len().div_ceil(64)` words per op, bit `j` of row `i` set when op
/// `i` may not issue while earlier op `j` is un-issued. One pass: an op's
/// row is the union of the bitsets of the earlier ops in the blocker
/// classes that bind it (see [`blocker_classes`]) and of those accessing
/// its location, cut to its window. `blockers` is scratch.
pub(crate) fn plan_rows(
    ops: &[Op],
    matrix: ReorderMatrix,
    window: usize,
    deps: &mut [u64],
    blockers: &mut Vec<u64>,
) {
    let words = ops.len().div_ceil(64);
    assert_eq!(deps.len(), ops.len() * words, "one row per op");
    deps.fill(0);
    blockers.clear();
    blockers.resize(BLOCKER_CLASSES * words, 0);
    for (i, op) in ops.iter().enumerate() {
        let (member, bound) = blocker_classes(op, matrix);
        // An op in the window is at most `window - 1` past the lowest
        // un-issued op, so earlier ops further back are issued.
        let first = i.saturating_sub(window.max(1) - 1);
        let row = &mut deps[i * words..(i + 1) * words];
        for class in set_bits(bound) {
            let earlier = &blockers[class * words..(class + 1) * words];
            row.iter_mut().zip(earlier).for_each(|(r, e)| *r |= e);
        }
        if let Some(loc) = op.loc() {
            for j in (first..i).filter(|&j| ops[j].loc() == Some(loc)) {
                row[j / 64] |= 1 << (j % 64);
            }
        }
        for (w, r) in row.iter_mut().enumerate() {
            *r &= bits_between(w, first, i);
        }
        for class in set_bits(member) {
            blockers[class * words + i / 64] |= 1 << (i % 64);
        }
    }
}

/// Blocker class of the ops writing register `r`: `WRITES + r`.
const WRITES: usize = 0;
/// Blocker class of the ops reading register `r`: `READS + r`.
const READS: usize = Reg::COUNT;
/// Blocker class of the loads.
const LOADS: usize = 2 * Reg::COUNT;
/// Blocker class of the stores.
const STORES: usize = LOADS + 1;
/// Blocker class of the fences nothing may be hoisted above.
const HOIST_BARRIERS: usize = LOADS + 2;
/// Blocker class of every op.
const ANY: usize = LOADS + 3;
/// The number of blocker classes.
const BLOCKER_CLASSES: usize = ANY + 1;

/// The blocker classes `op` is in, and those that bind it, as bitsets:
/// `op` may not issue while an earlier un-issued op of a class that binds
/// it is in its window — the pairwise rule apart from same-location pairs.
fn blocker_classes(op: &Op, matrix: ReorderMatrix) -> (u32, u32) {
    use memmodel::OpType::{Ld, St};
    let (mut member, mut bound) = (1 << ANY, 1 << HOIST_BARRIERS);
    if let Some(r) = op.reads_reg() {
        member |= 1 << (READS + r.index());
        bound |= 1 << (WRITES + r.index()); // RAW
    }
    if let Some(r) = op.writes_reg() {
        member |= 1 << (WRITES + r.index());
        bound |= 1 << (WRITES + r.index()) | 1 << (READS + r.index()); // WAW, WAR
    }
    if let Some(t) = op_type(op) {
        member |= 1 << if t == Ld { LOADS } else { STORES };
        if !matrix.allows(Ld, t) {
            bound |= 1 << LOADS;
        }
        if !matrix.allows(St, t) {
            bound |= 1 << STORES;
        }
    }
    if let Op::Fence(k) = op {
        if !k.permits_hoist_above() {
            member |= 1 << HOIST_BARRIERS;
        }
        if !k.permits_sink_below() {
            bound |= 1 << ANY;
        }
    }
    (member, bound)
}

/// The positions of the set bits of `bits`.
fn set_bits(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = bits.trailing_zeros();
        bits &= bits.wrapping_sub(1);
        (bit < 32).then_some(bit as usize)
    })
}

/// The bits of word `w` of a bitset that stand for positions in `lo..hi`.
fn bits_between(w: usize, lo: usize, hi: usize) -> u64 {
    let below = |n: usize| match n.saturating_sub(64 * w) {
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    };
    below(hi) & !below(lo)
}

/// Whether `op` may not issue while the earlier `earlier` is un-issued:
/// the pairwise rule [`Cpu::plan`] derives its rows from in one pass.
#[cfg(test)]
fn blocks(earlier: &Op, op: &Op, matrix: ReorderMatrix) -> bool {
    // Register dependencies (RAW, WAW, WAR) always bind.
    let raw = earlier.writes_reg().is_some() && earlier.writes_reg() == op.reads_reg();
    let waw = earlier.writes_reg().is_some() && earlier.writes_reg() == op.writes_reg();
    let war = earlier.reads_reg().is_some() && earlier.reads_reg() == op.writes_reg();
    // Same-location memory dependencies always bind.
    let same_loc = earlier.loc().is_some() && earlier.loc() == op.loc();
    // Fence constraints.
    let fenced = matches!(earlier, Op::Fence(k) if !k.permits_hoist_above())
        || matches!(op, Op::Fence(k) if !k.permits_sink_below());
    // Memory-model pair constraints for two memory ops.
    let ordered =
        matches!((op_type(earlier), op_type(op)), (Some(te), Some(tm)) if !matrix.allows(te, tm));
    raw || waw || war || same_loc || fenced || ordered
}

fn op_type(op: &Op) -> Option<memmodel::OpType> {
    match op {
        Op::Load { .. } => Some(memmodel::OpType::Ld),
        Op::Store { .. } => Some(memmodel::OpType::St),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmodel::Location;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const R0: Reg = Reg(0);

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn increment_x() -> CoreProgram {
        CoreProgram::from_ops(vec![
            Op::Load {
                reg: R0,
                loc: Location::SHARED,
            },
            Op::AddImm { reg: R0, imm: 1 },
            Op::Store {
                reg: R0,
                loc: Location::SHARED,
            },
        ])
    }

    fn run_alone(model: MemoryModel, program: CoreProgram, seed: u64) -> (SharedMemory, Cpu) {
        let mut mem = SharedMemory::new();
        let mut cpu = Cpu::new(program, model, 0, 8, 0.5);
        let mut r = rng(seed);
        for _ in 0..10_000 {
            if cpu.state() == CpuState::Done {
                break;
            }
            cpu.step(&mut mem, &mut r);
            mem.commit_cycle();
        }
        assert_eq!(cpu.state(), CpuState::Done, "core did not finish");
        (mem, cpu)
    }

    #[test]
    fn single_core_increment_is_correct_in_every_model() {
        for model in MemoryModel::NAMED {
            for seed in 0..10 {
                let (mem, cpu) = run_alone(model, increment_x(), seed);
                assert_eq!(mem.read(Location::SHARED), 1, "{model}");
                assert_eq!(cpu.regs()[0], 1, "{model}");
            }
        }
    }

    #[test]
    fn store_to_load_forwarding_preserves_own_writes() {
        // ST 1 -> x; LD x must see 1 even while the store sits in the buffer.
        let program = CoreProgram::from_ops(vec![
            Op::AddImm { reg: R0, imm: 42 },
            Op::Store {
                reg: R0,
                loc: Location::SHARED,
            },
            Op::AddImm { reg: R0, imm: -42 },
            Op::Load {
                reg: R0,
                loc: Location::SHARED,
            },
        ]);
        for model in MemoryModel::NAMED {
            for seed in 0..20 {
                let (_, cpu) = run_alone(model, program.clone(), seed);
                assert_eq!(cpu.regs()[0], 42, "{model} seed {seed}");
            }
        }
    }

    #[test]
    fn waiting_state_counts_down() {
        let mut cpu = Cpu::new(increment_x(), MemoryModel::Sc, 3, 8, 0.5);
        let mut mem = SharedMemory::new();
        let mut r = rng(0);
        assert_eq!(cpu.state(), CpuState::Waiting);
        cpu.step(&mut mem, &mut r);
        cpu.step(&mut mem, &mut r);
        cpu.step(&mut mem, &mut r);
        assert_eq!(cpu.state(), CpuState::Running);
        // No instruction executed during the delay.
        assert_eq!(mem.staged_count(), 0);
    }

    #[test]
    fn sc_stores_commit_without_buffering() {
        let mut cpu = Cpu::new(
            CoreProgram::from_ops(vec![
                Op::AddImm { reg: R0, imm: 7 },
                Op::Store {
                    reg: R0,
                    loc: Location::SHARED,
                },
            ]),
            MemoryModel::Sc,
            0,
            8,
            0.5,
        );
        let mut mem = SharedMemory::new();
        let mut r = rng(1);
        cpu.step(&mut mem, &mut r); // ADD
        cpu.step(&mut mem, &mut r); // ST stages directly
        assert_eq!(mem.staged_count(), 1);
        mem.commit_cycle();
        assert_eq!(mem.read(Location::SHARED), 7);
        assert_eq!(cpu.state(), CpuState::Done);
    }

    #[test]
    fn tso_store_sits_in_buffer_until_drained() {
        let mut cpu = Cpu::new(
            CoreProgram::from_ops(vec![
                Op::AddImm { reg: R0, imm: 7 },
                Op::Store {
                    reg: R0,
                    loc: Location::SHARED,
                },
            ]),
            MemoryModel::Tso,
            0,
            8,
            0.0, // never drain
        );
        let mut mem = SharedMemory::new();
        let mut r = rng(2);
        for _ in 0..10 {
            cpu.step(&mut mem, &mut r);
            mem.commit_cycle();
        }
        assert_eq!(mem.read(Location::SHARED), 0);
        assert_eq!(cpu.state(), CpuState::Draining);
    }

    #[test]
    fn full_fence_stalls_until_buffer_empty() {
        let program = CoreProgram::from_ops(vec![
            Op::AddImm { reg: R0, imm: 1 },
            Op::Store {
                reg: R0,
                loc: Location::SHARED,
            },
            Op::Fence(FenceKind::Full),
            Op::AddImm { reg: R0, imm: 10 },
        ]);
        let mut cpu = Cpu::new(program, MemoryModel::Tso, 0, 8, 0.0);
        let mut mem = SharedMemory::new();
        let mut r = rng(3);
        for _ in 0..50 {
            cpu.step(&mut mem, &mut r);
            mem.commit_cycle();
        }
        // Drain probability 0: the fence never clears, the ADD never runs.
        assert_eq!(cpu.regs()[0], 1);
    }

    #[test]
    fn wo_never_violates_data_dependencies() {
        // The store of r0 must always see the incremented value, no matter
        // how aggressively the window reorders.
        for seed in 0..100 {
            let (mem, _) = run_alone(MemoryModel::Wo, increment_x(), seed);
            assert_eq!(mem.read(Location::SHARED), 1, "seed {seed}");
        }
    }

    #[test]
    fn wo_reorders_independent_accesses() {
        // Two independent stores to distinct locations: under WO the window
        // may issue the second one first. Observe which value lands in
        // memory first across many seeds.
        let mut seen_early_second = false;
        for seed in 0..200 {
            let program = CoreProgram::from_ops(vec![
                Op::AddImm {
                    reg: Reg(1),
                    imm: 5,
                },
                Op::Store {
                    reg: Reg(1),
                    loc: Location::filler(0),
                },
                Op::AddImm {
                    reg: Reg(2),
                    imm: 6,
                },
                Op::Store {
                    reg: Reg(2),
                    loc: Location::filler(1),
                },
            ]);
            let mut cpu = Cpu::new(program, MemoryModel::Wo, 0, 8, 0.5);
            let mut mem = SharedMemory::new();
            let mut r = rng(seed);
            // Step until the first store commits; see which one it was.
            for _ in 0..100 {
                cpu.step(&mut mem, &mut r);
                mem.commit_cycle();
                let a = mem.read(Location::filler(0));
                let b = mem.read(Location::filler(1));
                if a != 0 || b != 0 {
                    if b != 0 && a == 0 {
                        seen_early_second = true;
                    }
                    break;
                }
            }
            if seen_early_second {
                break;
            }
        }
        assert!(
            seen_early_second,
            "WO window never reordered independent stores"
        );
    }

    #[test]
    fn planned_rows_are_the_pairwise_rule() {
        // Random programs of every op kind over a few registers and
        // locations, windows up to past a bitset word, out-of-order models
        // named and custom: each planned row is the set of earlier ops in
        // the window that `blocks` the op.
        use memmodel::fence::FenceKind;
        use rand::Rng;
        let mut r = rng(0x91a4);
        for _ in 0..2_000 {
            let len = if r.gen_bool(0.2) {
                r.gen_range(60..=140)
            } else {
                r.gen_range(0..=12)
            };
            let ops: Vec<Op> = (0..len)
                .map(|_| {
                    let (reg, loc) = (Reg(r.gen_range(0..3)), Location::filler(r.gen_range(0..4)));
                    match r.gen_range(0..4) {
                        0 => Op::Load { reg, loc },
                        1 => Op::Store { reg, loc },
                        2 => Op::AddImm { reg, imm: 1 },
                        _ => Op::Fence(FenceKind::ALL[r.gen_range(0..3)]),
                    }
                })
                .collect();
            let matrix = ReorderMatrix::new(r.gen(), r.gen(), r.gen(), true);
            let model = if r.gen() {
                MemoryModel::Wo
            } else {
                MemoryModel::Custom(matrix)
            };
            let window = [1, 2, 3, 8, 64, 80][r.gen_range(0..6)];
            let cpu = Cpu::new(CoreProgram::from_ops(ops.clone()), model, 0, window, 0.5);
            let words = cpu.words();
            for (i, op) in ops.iter().enumerate() {
                for j in 0..i {
                    let planned = cpu.deps[i * words + j / 64] >> (j % 64) & 1 == 1;
                    let rule = j + window > i && blocks(&ops[j], op, model.matrix());
                    assert_eq!(
                        planned, rule,
                        "op {i} after op {j}, window {window}: {ops:?}"
                    );
                }
            }
        }
    }
}
