//! The lock-step machine: cores + shared memory + global clock.

use crate::timeline::{CycleRecord, Timeline};
use crate::{CoreProgram, Cpu, CpuState, SharedMemory};
use memmodel::fence::FenceKind;
use memmodel::MemoryModel;
use progmodel::Location;
use rand::Rng;
use std::fmt;

/// Machine-level simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// The memory model every core runs under.
    pub model: MemoryModel,
    /// Per-cycle store-buffer drain probability (TSO/PSO). The default
    /// `1/2` mirrors the settling probability `s`.
    pub drain_prob: f64,
    /// Out-of-order window size (WO and custom models).
    pub window: usize,
    /// Whether cores start with i.i.d. geometric delays (the shift process's
    /// `η_k`); `false` starts every core at cycle 0.
    pub stagger: bool,
}

impl SimParams {
    /// Canonical parameters for a model: drain `1/2`, window 8, staggered.
    #[must_use]
    pub fn for_model(model: MemoryModel) -> SimParams {
        SimParams {
            model,
            drain_prob: 0.5,
            window: 8,
            stagger: true,
        }
    }

    /// Disables start staggering (builder style).
    #[must_use]
    pub fn without_stagger(mut self) -> SimParams {
        self.stagger = false;
        self
    }
}

/// Error returned when a run exceeds its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunError {
    /// The exhausted budget.
    pub max_cycles: u64,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine did not quiesce within {} cycles", self.max_cycles)
    }
}

impl std::error::Error for RunError {}

/// The result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    shared_value: i64,
    cycles: u64,
    n_cores: usize,
}

impl Outcome {
    /// Final value of the shared location `X`.
    #[must_use]
    pub fn shared_value(&self) -> i64 {
        self.shared_value
    }

    /// Cycles until quiescence.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether the canonical-increment bug manifested: with `n` cores each
    /// adding 1, any final value below `n` means at least one increment was
    /// lost to the race.
    #[must_use]
    pub fn bug_manifested(&self) -> bool {
        self.shared_value < self.n_cores as i64
    }
}

/// A lock-step multiprocessor.
#[derive(Debug, Clone)]
pub struct Machine {
    cpus: Vec<Cpu>,
    memory: SharedMemory,
    max_cycles: u64,
    /// The per-cycle core service order (reused buffer).
    service: Vec<usize>,
}

/// A core's start delay under `params`: geometric from `rng` when
/// staggering is on (the shift process's `η`), otherwise 0.
fn start_delay<R: Rng + ?Sized>(params: SimParams, rng: &mut R) -> u64 {
    let mut k = 0;
    if params.stagger {
        while !rng.gen_bool(0.5) {
            k += 1;
        }
    }
    k
}

impl Machine {
    /// Builds a machine running one program per core under `params`,
    /// sampling geometric start delays from `rng` when staggering is on.
    pub fn new<R: Rng + ?Sized>(
        programs: Vec<CoreProgram>,
        params: SimParams,
        rng: &mut R,
    ) -> Machine {
        Machine::with_cpus(
            programs
                .into_iter()
                .map(|p| {
                    let delay = start_delay(params, rng);
                    Cpu::new(p, params.model, delay, params.window, params.drain_prob)
                })
                .collect(),
        )
    }

    /// A machine over `cpus` with fresh memory and the default cycle budget.
    fn with_cpus(cpus: Vec<Cpu>) -> Machine {
        Machine {
            service: Vec::with_capacity(cpus.len()),
            cpus,
            memory: SharedMemory::new(),
            max_cycles: 1_000_000,
        }
    }

    /// Overrides the cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Machine {
        self.max_cycles = max_cycles;
        self
    }

    /// The cores (for inspection).
    #[must_use]
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// Runs to quiescence: every core [`CpuState::Done`] and all staged
    /// writes committed.
    ///
    /// Each cycle, cores are serviced in a freshly shuffled order (so
    /// same-cycle races tie-break uniformly), then all staged writes commit.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the machine fails to quiesce within the cycle
    /// budget.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Outcome, RunError> {
        self.run_inner(rng, None)
    }

    /// As [`Machine::run`], additionally recording every cycle's per-core
    /// events into a [`Timeline`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the machine fails to quiesce within the cycle
    /// budget.
    pub fn run_traced<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Timeline, RunError> {
        let mut cycles = Vec::new();
        let outcome = self.run_inner(rng, Some(&mut cycles))?;
        Ok(Timeline { outcome, cycles })
    }

    fn run_inner<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        mut trace: Option<&mut Vec<CycleRecord>>,
    ) -> Result<Outcome, RunError> {
        let n = self.cpus.len();
        let service = &mut self.service;
        service.clear();
        service.extend(0..n);
        for cycle in 0..self.max_cycles {
            if self.cpus.iter().all(|c| c.state() == CpuState::Done) {
                return Ok(Outcome {
                    shared_value: self.memory.read(Location::SHARED),
                    cycles: cycle,
                    n_cores: n,
                });
            }
            // Fisher-Yates shuffle of the service order.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                service.swap(i, j);
            }
            let mut record = trace
                .as_ref()
                .map(|_| CycleRecord {
                    events: vec![crate::cpu::StepEvent::default(); n],
                });
            for &i in service.iter() {
                let event = self.cpus[i].step(&mut self.memory, rng);
                if let Some(rec) = record.as_mut() {
                    rec.events[i] = event;
                }
            }
            if let (Some(t), Some(rec)) = (trace.as_deref_mut(), record) {
                t.push(rec);
            }
            self.memory.commit_cycle();
        }
        Err(RunError {
            max_cycles: self.max_cycles,
        })
    }
}

/// A reusable machine for the canonical increment workload
/// ([`increment_workload`](crate::increment_workload), or
/// [`increment_workload_fenced`](crate::increment_workload_fenced)): each
/// [`run`](IncrementMachine::run) is one fresh trial.
///
/// A trial rewrites the filler types of the cores' programs, the store
/// buffers, registers and memory in place, and derives the out-of-order
/// issue dependencies once, shared by every core (their programs differ
/// only in private filler locations). So steady-state trials allocate
/// nothing, and each is draw for draw the trial of building the workload
/// and a [`Machine::new`] afresh from the same RNG state: same outcome,
/// same cycle count, same RNG end state.
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
    machine: Machine,
    params: SimParams,
    /// The filler store pattern of the current trial.
    pattern: Vec<bool>,
}

impl IncrementMachine {
    /// A machine running [`increment_workload`](crate::increment_workload)`(n, filler, ·)`
    /// under `params`.
    #[must_use]
    pub fn new(n: usize, filler: usize, params: SimParams) -> IncrementMachine {
        IncrementMachine::build(n, filler, None, params)
    }

    /// A machine running
    /// [`increment_workload_fenced`](crate::increment_workload_fenced)`(n, filler, fence, ·)`
    /// under `params`.
    #[must_use]
    pub fn fenced(n: usize, filler: usize, fence: FenceKind, params: SimParams) -> IncrementMachine {
        IncrementMachine::build(n, filler, Some(fence), params)
    }

    fn build(n: usize, filler: usize, fence: Option<FenceKind>, params: SimParams) -> IncrementMachine {
        let pattern = vec![false; filler];
        let cpus = crate::workload::build_workload(n, &pattern, fence)
            .into_iter()
            .map(|p| Cpu::new(p, params.model, 0, params.window, params.drain_prob))
            .collect();
        IncrementMachine {
            machine: Machine::with_cpus(cpus),
            params,
            pattern,
        }
    }

    /// Runs one trial: draws the filler types and the start delays, then
    /// runs to quiescence (see [`Machine::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the machine fails to quiesce within the cycle
    /// budget.
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Outcome, RunError> {
        crate::workload::draw_pattern(&mut self.pattern, rng);
        let machine = &mut self.machine;
        if let Some((first, rest)) = machine.cpus.split_first_mut() {
            crate::workload::retype(first.ops_mut(), &self.pattern);
            first.plan();
            for cpu in rest {
                crate::workload::retype(cpu.ops_mut(), &self.pattern);
                cpu.copy_plan(first);
            }
        }
        for cpu in &mut machine.cpus {
            cpu.restart(start_delay(self.params, rng));
        }
        machine.memory.clear();
        machine.run(rng)
    }
}

/// Convenience: runs the canonical increment workload once and reports
/// whether the bug manifested. Repeated trials should reuse an
/// [`IncrementMachine`] instead; this builds one per call.
pub fn run_increment_trial<R: Rng + ?Sized>(
    n_threads: usize,
    filler: usize,
    params: SimParams,
    rng: &mut R,
) -> bool {
    IncrementMachine::new(n_threads, filler, params)
        .run(rng)
        .expect("increment workload quiesces well within budget")
        .bug_manifested()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::increment_workload;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn empty_machine_quiesces_immediately() {
        let mut m = Machine::new(vec![], SimParams::for_model(MemoryModel::Sc), &mut rng(0));
        let out = m.run(&mut rng(1)).unwrap();
        assert_eq!(out.cycles(), 0);
        assert_eq!(out.shared_value(), 0);
        assert!(!out.bug_manifested());
    }

    #[test]
    fn single_core_never_races() {
        for model in MemoryModel::NAMED {
            let mut r = rng(7);
            let programs = increment_workload(1, 8, &mut r);
            let mut m = Machine::new(programs, SimParams::for_model(model), &mut r);
            let out = m.run(&mut r).unwrap();
            assert_eq!(out.shared_value(), 1, "{model}");
            assert!(!out.bug_manifested());
        }
    }

    #[test]
    fn simultaneous_sc_increments_always_race() {
        // Two unstaggered SC cores with identical programs read x in the
        // same cycle, so one increment is always lost (the §2.2 example's
        // deterministic worst case).
        let mut r = rng(8);
        let programs = increment_workload(2, 0, &mut r);
        let params = SimParams::for_model(MemoryModel::Sc).without_stagger();
        let mut m = Machine::new(programs, params, &mut r);
        let out = m.run(&mut r).unwrap();
        assert_eq!(out.shared_value(), 1);
        assert!(out.bug_manifested());
    }

    #[test]
    fn widely_staggered_cores_never_race() {
        // Force huge, distinct delays by constructing cpus through programs
        // with a long filler prefix and no stagger, serialising them.
        // (Serialisation via stagger is probabilistic; instead run them one
        // after another by checking the n=1 composition twice.)
        let mut r = rng(9);
        let programs = increment_workload(1, 4, &mut r);
        let params = SimParams::for_model(MemoryModel::Wo).without_stagger();
        let mut m = Machine::new(programs.clone(), params, &mut r);
        let first = m.run(&mut r).unwrap();
        assert_eq!(first.shared_value(), 1);
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let mk = || {
            let mut r = rng(10);
            let programs = increment_workload(3, 6, &mut r);
            let mut m = Machine::new(programs, SimParams::for_model(MemoryModel::Tso), &mut r);
            m.run(&mut r).unwrap()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn timeout_is_reported() {
        // Drain probability 0 under TSO: the buffered store never commits.
        let mut r = rng(11);
        let programs = increment_workload(1, 0, &mut r);
        let params = SimParams {
            model: MemoryModel::Tso,
            drain_prob: 0.0,
            window: 8,
            stagger: false,
        };
        let mut m = Machine::new(programs, params, &mut r).with_max_cycles(500);
        let err = m.run(&mut r).unwrap_err();
        assert_eq!(err.max_cycles, 500);
        assert!(err.to_string().contains("500"));
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
                                    Some(kind) => increment_workload_fenced(n, filler, kind, &mut fresh_rng),
                                };
                                let fresh = Machine::new(programs, params, &mut fresh_rng).run(&mut fresh_rng);
                                let reused = machine.run(&mut reused_rng);
                                assert_eq!(reused, fresh, "{params:?} n {n} filler {filler} fence {fence:?}");
                                assert_eq!(reused_rng, fresh_rng, "RNG end states differ: {params:?} n {n}");
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
    fn machine_streams_are_pinned() {
        // Per model, a checksum of 4,000 fresh trials' outcomes (cycles and
        // final value) over windows {1, 3, 8, 80}, 1–4 cores, 0–70 fillers,
        // stagger on and off and fenced workloads, plus the RNG's next
        // output. Recorded with the pairwise issue check that the
        // dependency bitsets replaced, so any change to the machine's
        // results or draws shows here.
        use crate::increment_workload_fenced;
        use memmodel::ReorderMatrix;
        let pinned = [
            (MemoryModel::Sc, 0x2f91_a384_cd82_e2d7, 0x3003_cdb4_62bd_b751),
            (MemoryModel::Tso, 0xfefc_0837_8e8a_e4de, 0xd9e1_89e2_5b85_fc82),
            (MemoryModel::Pso, 0x373c_5f2d_162f_375b, 0x1a28_c7db_3e24_d1c1),
            (MemoryModel::Wo, 0x6982_2732_de48_b36b, 0xbaa6_c53a_afe1_e2a8),
            (
                MemoryModel::Custom(ReorderMatrix::new(true, false, false, true)),
                0x1580_a95c_1d29_50fc,
                0xbaa6_c53a_afe1_e2a8,
            ),
            (
                MemoryModel::Custom(ReorderMatrix::new(false, false, true, false)),
                0xd806_3f3c_caf3_e78a,
                0xbaa6_c53a_afe1_e2a8,
            ),
        ];
        for (model, checksum, next) in pinned {
            let mut r = rng(0x0b5e);
            let mut sum = 0u64;
            for t in 0..4_000u64 {
                let mut params = SimParams::for_model(model);
                params.window = [1, 3, 8, 80][(t % 4) as usize];
                params.stagger = t % 3 != 0;
                let n = 1 + (t % 4) as usize;
                let filler = [0, 8, 16, 70][((t / 4) % 4) as usize];
                let programs = if t % 5 == 0 {
                    increment_workload_fenced(n, filler, FenceKind::ALL[(t % 3) as usize], &mut r)
                } else {
                    increment_workload(n, filler, &mut r)
                };
                let out = Machine::new(programs, params, &mut r).run(&mut r).unwrap();
                sum = sum
                    .wrapping_mul(1_000_003)
                    .wrapping_add(out.cycles() * 64 + out.shared_value() as u64);
            }
            assert_eq!((sum, r.gen::<u64>()), (checksum, next), "{model:?}");
        }
    }

    #[test]
    fn final_value_bounded_by_thread_count() {
        for model in MemoryModel::NAMED {
            for seed in 0..30 {
                let mut r = rng(1000 + seed);
                let programs = increment_workload(4, 6, &mut r);
                let mut m = Machine::new(programs, SimParams::for_model(model), &mut r);
                let out = m.run(&mut r).unwrap();
                assert!(
                    (1..=4).contains(&out.shared_value()),
                    "{model}: x = {}",
                    out.shared_value()
                );
            }
        }
    }
}
