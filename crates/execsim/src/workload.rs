//! The canonical-increment workload (§2.2) for the operational simulator.

use crate::{CoreProgram, Op, Reg};
use memmodel::fence::FenceKind;
use progmodel::Location;
use rand::Rng;

/// Register used by the increment sequence (the `loc` variable of §2.2).
const ACC: Reg = Reg(0);
/// Register used by filler accesses.
const SCRATCH: Reg = Reg(1);

/// Default filler length used by the EXP-OPSIM experiment.
pub const CANONICAL_FILLER: usize = 8;

/// Builds `n` identical-shaped core programs: `filler` private memory
/// accesses (LD/ST with probability 1/2 each, mirroring §3.1.1's `p`),
/// followed by the canonical increment of the shared location:
/// `LD x → r0; ADD r0, 1; ST r0 → x`.
///
/// Mirroring the joined model, the filler *type pattern* is drawn once and
/// shared by all cores ("identical copies of a single program"); each core's
/// filler accesses its own private locations so only the critical pair
/// races.
pub fn increment_workload<R: Rng + ?Sized>(
    n: usize,
    filler: usize,
    rng: &mut R,
) -> Vec<CoreProgram> {
    let mut pattern = vec![false; filler];
    draw_pattern(&mut pattern, rng);
    build_workload(n, &pattern, None)
}

/// As [`increment_workload`], with a fence of the given kind immediately
/// before the critical load — the §7 mitigation.
pub fn increment_workload_fenced<R: Rng + ?Sized>(
    n: usize,
    filler: usize,
    fence: FenceKind,
    rng: &mut R,
) -> Vec<CoreProgram> {
    let mut pattern = vec![false; filler];
    draw_pattern(&mut pattern, rng);
    build_workload(n, &pattern, Some(fence))
}

/// Draws a filler store pattern: each slot a store with probability 1/2.
pub(crate) fn draw_pattern<R: Rng + ?Sized>(pattern: &mut [bool], rng: &mut R) {
    for is_store in pattern {
        *is_store = rng.gen_bool(0.5);
    }
}

/// Rewrites the first `fillers` ops of a workload program, its filler
/// accesses, to the store bits of `pattern` (filler `j` is a store iff bit
/// `j % 64` of word `j / 64` is set), keeping their registers and
/// locations.
pub(crate) fn retype(ops: &mut [Op], fillers: usize, pattern: &[u64]) {
    for (j, op) in ops[..fillers].iter_mut().enumerate() {
        let loc = op.loc().expect("filler ops access memory");
        *op = filler_op(pattern[j / 64] >> (j % 64) & 1 == 1, loc);
    }
}

fn filler_op(is_store: bool, loc: Location) -> Op {
    if is_store {
        Op::Store { reg: SCRATCH, loc }
    } else {
        Op::Load { reg: SCRATCH, loc }
    }
}

pub(crate) fn build_workload(
    n: usize,
    store_pattern: &[bool],
    fence: Option<FenceKind>,
) -> Vec<CoreProgram> {
    (0..n)
        .map(|core| {
            let mut ops = Vec::with_capacity(store_pattern.len() + 4);
            for (slot, &is_store) in store_pattern.iter().enumerate() {
                // Private per-(core, slot) location: never shared.
                let loc = Location::filler(1 + core * (store_pattern.len() + 1) + slot);
                ops.push(filler_op(is_store, loc));
            }
            if let Some(kind) = fence {
                ops.push(Op::Fence(kind));
            }
            ops.push(Op::Load {
                reg: ACC,
                loc: Location::SHARED,
            });
            ops.push(Op::AddImm { reg: ACC, imm: 1 });
            ops.push(Op::Store {
                reg: ACC,
                loc: Location::SHARED,
            });
            CoreProgram::from_ops(ops)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn shapes_are_identical_across_cores() {
        let programs = increment_workload(3, 6, &mut rng(0));
        assert_eq!(programs.len(), 3);
        for p in &programs {
            assert_eq!(p.len(), 9);
        }
        // Same op *kinds* per slot across cores.
        for slot in 0..9 {
            let kinds: Vec<_> = programs
                .iter()
                .map(|p| std::mem::discriminant(&p.ops()[slot]))
                .collect();
            assert!(kinds.windows(2).all(|w| w[0] == w[1]), "slot {slot}");
        }
    }

    #[test]
    fn filler_locations_are_private() {
        let programs = increment_workload(4, 8, &mut rng(1));
        let mut seen = std::collections::HashSet::new();
        for p in &programs {
            for op in &p.ops()[..8] {
                let loc = op.loc().expect("filler ops access memory");
                assert!(!loc.is_shared());
                assert!(seen.insert(loc), "location {loc} reused across cores");
            }
        }
    }

    #[test]
    fn trailer_is_the_canonical_increment() {
        let programs = increment_workload(1, 2, &mut rng(2));
        let ops = programs[0].ops();
        let n = ops.len();
        assert!(matches!(ops[n - 3], Op::Load { loc, .. } if loc.is_shared()));
        assert!(matches!(ops[n - 2], Op::AddImm { imm: 1, .. }));
        assert!(matches!(ops[n - 1], Op::Store { loc, .. } if loc.is_shared()));
    }

    #[test]
    fn fenced_variant_inserts_fence_before_critical_load() {
        let programs = increment_workload_fenced(2, 3, FenceKind::Full, &mut rng(3));
        for p in &programs {
            let ops = p.ops();
            assert!(matches!(ops[ops.len() - 4], Op::Fence(FenceKind::Full)));
        }
    }

    #[test]
    fn zero_filler_is_just_the_increment() {
        let programs = increment_workload(2, 0, &mut rng(4));
        assert_eq!(programs[0].len(), 3);
    }
}
