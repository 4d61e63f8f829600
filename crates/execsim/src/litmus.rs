//! Classic two-thread litmus tests, used to validate that the operational
//! cores implement exactly their model's relaxations.
//!
//! | test | relaxed outcome | SC | TSO | PSO | WO |
//! |---|---|---|---|---|---|
//! | SB (store buffering) | both loads read 0 | ✗ | ✓ | ✓ | ✓ |
//! | MP (message passing) | flag seen, data stale | ✗ | ✗ | ✓ | ✓ |
//! | LB (load buffering)  | both loads read 1 | ✗ | ✗ | ✗ | ✓ |
//!
//! SB needs the ST→LD relaxation (a store buffer), MP additionally needs
//! ST→ST (PSO's out-of-order drain) or LD→LD, and LB needs LD→ST — only
//! Weak Ordering's full out-of-order window provides it.

use crate::{CoreProgram, Machine, Op, Reg, SimParams};
use progmodel::Location;
use rand::Rng;

/// A named litmus test with its relaxed-outcome predicate.
pub struct LitmusTest {
    /// Conventional name (`SB`, `MP`, `LB`, `CoRR`, `IRIW`).
    pub name: &'static str,
    programs: Vec<CoreProgram>,
    /// Returns `true` when the relaxed (non-SC) outcome was observed;
    /// the argument holds each core's final register file, by core id.
    check: fn(&[[i64; Reg::COUNT]]) -> bool,
}

const ONE: Reg = Reg(1);
const OBS_A: Reg = Reg(2);
const OBS_B: Reg = Reg(3);

fn x() -> Location {
    Location::filler(100)
}
fn y() -> Location {
    Location::filler(101)
}

/// Store buffering: `T0: x=1; r=y` ∥ `T1: y=1; r=x`; relaxed outcome both
/// `r = 0`.
#[must_use]
pub fn sb() -> LitmusTest {
    let t0 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store { reg: ONE, loc: x() },
        Op::Load {
            reg: OBS_A,
            loc: y(),
        },
    ]);
    let t1 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store { reg: ONE, loc: y() },
        Op::Load {
            reg: OBS_A,
            loc: x(),
        },
    ]);
    LitmusTest {
        name: "SB",
        programs: vec![t0, t1],
        check: |r| r[0][OBS_A.index()] == 0 && r[1][OBS_A.index()] == 0,
    }
}

/// Message passing: `T0: data=1; flag=1` ∥ `T1: r2=flag; r3=data`; relaxed
/// outcome `r2 = 1 ∧ r3 = 0`.
#[must_use]
pub fn mp() -> LitmusTest {
    let data = x();
    let flag = y();
    let t0 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store {
            reg: ONE,
            loc: data,
        },
        Op::Store {
            reg: ONE,
            loc: flag,
        },
    ]);
    // Pad the reader so its loads overlap the writer's buffer-drain window
    // (otherwise it finishes before any store becomes visible and the
    // interesting outcome is timing-impossible under every model).
    let mut t1_ops = vec![Op::AddImm { reg: ONE, imm: 0 }; 4];
    t1_ops.push(Op::Load {
        reg: OBS_A,
        loc: flag,
    });
    t1_ops.push(Op::Load {
        reg: OBS_B,
        loc: data,
    });
    let t1 = CoreProgram::from_ops(t1_ops);
    LitmusTest {
        name: "MP",
        programs: vec![t0, t1],
        check: |r| r[1][OBS_A.index()] == 1 && r[1][OBS_B.index()] == 0,
    }
}

/// Load buffering: `T0: r=x; y=1` ∥ `T1: r=y; x=1`; relaxed outcome both
/// `r = 1`.
#[must_use]
pub fn lb() -> LitmusTest {
    let t0 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Load {
            reg: OBS_A,
            loc: x(),
        },
        Op::Store { reg: ONE, loc: y() },
    ]);
    let t1 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Load {
            reg: OBS_A,
            loc: y(),
        },
        Op::Store { reg: ONE, loc: x() },
    ]);
    LitmusTest {
        name: "LB",
        programs: vec![t0, t1],
        check: |r| r[0][OBS_A.index()] == 1 && r[1][OBS_A.index()] == 1,
    }
}

/// Coherence of read-read (CoRR): `T0: x=1` ∥ `T1: r2=x; r3=x`; the relaxed
/// outcome `r2 = 1 ∧ r3 = 0` (new then old value of the *same* location)
/// must be forbidden under **every** model — same-location operations never
/// reorder, the one constraint even Weak Ordering keeps.
#[must_use]
pub fn corr() -> LitmusTest {
    let t0 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store { reg: ONE, loc: x() },
    ]);
    // Pad the reader so the loads straddle the writer's store becoming
    // visible — otherwise the interesting interleaving never arises.
    let mut t1_ops = vec![Op::AddImm { reg: ONE, imm: 0 }; 2];
    t1_ops.push(Op::Load {
        reg: OBS_A,
        loc: x(),
    });
    t1_ops.push(Op::Load {
        reg: OBS_B,
        loc: x(),
    });
    let t1 = CoreProgram::from_ops(t1_ops);
    LitmusTest {
        name: "CoRR",
        programs: vec![t0, t1],
        check: |r| r[1][OBS_A.index()] == 1 && r[1][OBS_B.index()] == 0,
    }
}

/// Independent reads of independent writes (IRIW): two writers to distinct
/// locations, two readers observing them in opposite orders.
///
/// The relaxed outcome needs either non-atomic stores or LD→LD reordering.
/// The paper ignores store (non-)atomicity (§2.1: "tangential to our present
/// analysis") and this machine's single shared memory is multi-copy atomic,
/// so the outcome must be *forbidden* wherever LD→LD order is kept (SC, TSO,
/// PSO) and is reachable only through WO's load reordering.
#[must_use]
pub fn iriw() -> LitmusTest {
    let pad = || Op::AddImm { reg: ONE, imm: 0 };
    let t0 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store { reg: ONE, loc: x() },
    ]);
    let t1 = CoreProgram::from_ops(vec![
        Op::AddImm { reg: ONE, imm: 1 },
        Op::Store { reg: ONE, loc: y() },
    ]);
    let t2 = CoreProgram::from_ops(vec![
        pad(),
        pad(),
        Op::Load {
            reg: OBS_A,
            loc: x(),
        },
        Op::Load {
            reg: OBS_B,
            loc: y(),
        },
    ]);
    let t3 = CoreProgram::from_ops(vec![
        pad(),
        pad(),
        Op::Load {
            reg: OBS_A,
            loc: y(),
        },
        Op::Load {
            reg: OBS_B,
            loc: x(),
        },
    ]);
    LitmusTest {
        name: "IRIW",
        programs: vec![t0, t1, t2, t3],
        check: |r| {
            r[2][OBS_A.index()] == 1
                && r[2][OBS_B.index()] == 0
                && r[3][OBS_A.index()] == 1
                && r[3][OBS_B.index()] == 0
        },
    }
}

/// All three model-distinguishing tests (SB, MP, LB). [`corr`] is separate:
/// it distinguishes nothing — it must fail everywhere.
#[must_use]
pub fn all() -> Vec<LitmusTest> {
    vec![sb(), mp(), lb()]
}

impl LitmusTest {
    /// Runs the test once; `true` if the relaxed outcome was observed.
    pub fn run_once<R: Rng + ?Sized>(&self, params: SimParams, rng: &mut R) -> bool {
        self.relaxed_outcome_count(params, 1, rng) == 1
    }

    /// Runs `trials` times; returns how often the relaxed outcome appeared.
    /// The runs share one machine, restarted in place before each: each
    /// draws and observes exactly what a fresh machine would.
    pub fn relaxed_outcome_count<R: Rng + ?Sized>(
        &self,
        params: SimParams,
        trials: u64,
        rng: &mut R,
    ) -> u64 {
        let mut machine = Machine::reusable(self.programs.clone(), params);
        let mut regs = Vec::with_capacity(self.programs.len());
        (0..trials)
            .filter(|_| {
                machine.restart(params, rng);
                machine.run(rng).expect("litmus tests quiesce");
                regs.clear();
                regs.extend(machine.cpus().iter().map(|c| *c.regs()));
                (self.check)(&regs)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memmodel::MemoryModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const TRIALS: u64 = 4_000;

    fn count(test: &LitmusTest, model: MemoryModel, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        // No stagger: maximum interleaving pressure, deterministic shape.
        let params = SimParams::for_model(model).without_stagger();
        test.relaxed_outcome_count(params, TRIALS, &mut rng)
    }

    #[test]
    fn reused_litmus_machine_is_a_fresh_machine_per_run() {
        // Every litmus test under the four named models and an
        // everything-relaxed custom one, staggered and not: 300 runs on one
        // restarted machine give each run's register files and RNG end
        // state of building a fresh machine from the same state.
        use memmodel::ReorderMatrix;
        let models = MemoryModel::NAMED
            .into_iter()
            .chain([MemoryModel::Custom(ReorderMatrix::all())]);
        for model in models {
            for test in [sb(), mp(), lb(), corr(), iriw()] {
                for stagger in [false, true] {
                    let mut params = SimParams::for_model(model);
                    params.stagger = stagger;
                    let mut fresh_rng = SmallRng::seed_from_u64(0x117);
                    let mut reused_rng = fresh_rng.clone();
                    let mut machine = Machine::reusable(test.programs.clone(), params);
                    for _ in 0..300 {
                        let mut fresh = Machine::new(test.programs.clone(), params, &mut fresh_rng);
                        let fresh_out = fresh.run(&mut fresh_rng);
                        machine.restart(params, &mut reused_rng);
                        assert_eq!(
                            machine.run(&mut reused_rng),
                            fresh_out,
                            "{} under {model}",
                            test.name
                        );
                        let regs =
                            |m: &Machine| m.cpus().iter().map(|c| *c.regs()).collect::<Vec<_>>();
                        assert_eq!(regs(&machine), regs(&fresh), "{} under {model}", test.name);
                        assert_eq!(reused_rng, fresh_rng, "{} under {model}", test.name);
                    }
                }
            }
        }
    }

    #[test]
    fn sb_matrix() {
        assert_eq!(count(&sb(), MemoryModel::Sc, 1), 0, "SC must forbid SB");
        assert!(count(&sb(), MemoryModel::Tso, 2) > 0, "TSO must allow SB");
        assert!(count(&sb(), MemoryModel::Pso, 3) > 0, "PSO must allow SB");
        assert!(count(&sb(), MemoryModel::Wo, 4) > 0, "WO must allow SB");
    }

    #[test]
    fn mp_matrix() {
        assert_eq!(count(&mp(), MemoryModel::Sc, 5), 0, "SC must forbid MP");
        assert_eq!(count(&mp(), MemoryModel::Tso, 6), 0, "TSO must forbid MP");
        assert!(count(&mp(), MemoryModel::Pso, 7) > 0, "PSO must allow MP");
        assert!(count(&mp(), MemoryModel::Wo, 8) > 0, "WO must allow MP");
    }

    #[test]
    fn lb_matrix() {
        assert_eq!(count(&lb(), MemoryModel::Sc, 9), 0, "SC must forbid LB");
        assert_eq!(count(&lb(), MemoryModel::Tso, 10), 0, "TSO must forbid LB");
        assert_eq!(count(&lb(), MemoryModel::Pso, 11), 0, "PSO must forbid LB");
        assert!(count(&lb(), MemoryModel::Wo, 12) > 0, "WO must allow LB");
    }

    #[test]
    fn relaxed_outcomes_are_minority_events() {
        // Even where allowed, the relaxed outcome should not dominate —
        // sanity that the machinery isn't trivially broken.
        for (test, model) in [
            (sb(), MemoryModel::Tso),
            (mp(), MemoryModel::Pso),
            (lb(), MemoryModel::Wo),
        ] {
            let c = count(&test, model, 13);
            assert!(
                c > 0 && c < TRIALS,
                "{} under {model}: {c}/{TRIALS}",
                test.name
            );
        }
    }

    #[test]
    fn all_returns_three_tests() {
        let names: Vec<&str> = all().iter().map(|t| t.name).collect();
        assert_eq!(names, ["SB", "MP", "LB"]);
    }

    #[test]
    fn iriw_reflects_store_atomicity() {
        // Multi-copy-atomic memory: the IRIW outcome is reachable only via
        // WO's load reordering, never via the stores themselves.
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            assert_eq!(
                count(&iriw(), model, 16),
                0,
                "{model}: IRIW observed despite atomic stores and ordered loads"
            );
        }
        assert!(
            count(&iriw(), MemoryModel::Wo, 17) > 0,
            "WO: IRIW should be reachable via load reordering"
        );
    }

    #[test]
    fn corr_is_forbidden_under_every_model() {
        for model in MemoryModel::NAMED {
            assert_eq!(
                count(&corr(), model, 14),
                0,
                "{model} violated read-read coherence"
            );
        }
        // And under an everything-relaxed custom model too: same-location
        // ordering is a data dependency, not a model choice.
        let mut rng = SmallRng::seed_from_u64(15);
        let params = SimParams::for_model(MemoryModel::Custom(memmodel::ReorderMatrix::all()))
            .without_stagger();
        assert_eq!(corr().relaxed_outcome_count(params, TRIALS, &mut rng), 0);
    }
}
