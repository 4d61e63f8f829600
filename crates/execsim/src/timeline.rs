//! Cycle-by-cycle execution timelines — the operational analogue of the
//! paper's Figure 2 interleaving picture.

use crate::cpu::StepEvent;
use crate::{Op, Outcome};
use std::fmt::Write as _;

/// One cycle's events across all cores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CycleRecord {
    /// Per-core events, indexed by core id.
    pub events: Vec<StepEvent>,
}

/// A complete traced run: the outcome plus every cycle's per-core events.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Final outcome.
    pub outcome: Outcome,
    /// One record per cycle, in order.
    pub cycles: Vec<CycleRecord>,
}

impl Timeline {
    /// Renders per-core lanes, one glyph per cycle:
    ///
    /// * `R` / `W` — load from / buffered-or-staged store to the **shared**
    ///   location (the critical accesses);
    /// * `w` — a store to the shared location becoming *visible* (drain);
    /// * `l` / `s` — private load / store;
    /// * `a` — arithmetic, `F` — fence, `.` — idle/stalled/waiting.
    ///
    /// The span between a core's `R` and its shared store's visibility is
    /// exactly the operational critical window.
    #[must_use]
    pub fn render(&self) -> String {
        let n = self
            .cycles
            .first()
            .map(|c| c.events.len())
            .unwrap_or_default();
        let mut out = String::new();
        for core in 0..n {
            let _ = write!(out, "core {core}: ");
            for cycle in &self.cycles {
                let e = &cycle.events[core];
                let mut glyph = match e.executed {
                    Some(Op::Load { loc, .. }) if loc.is_shared() => 'R',
                    Some(Op::Store { loc, .. }) if loc.is_shared() => 'W',
                    Some(Op::Load { .. }) => 'l',
                    Some(Op::Store { .. }) => 's',
                    Some(Op::AddImm { .. }) => 'a',
                    Some(Op::Fence(_)) => 'F',
                    None => '.',
                };
                if let Some((loc, _)) = e.drained {
                    if loc.is_shared() {
                        // Shared-store visibility dominates the display.
                        glyph = 'w';
                    }
                }
                out.push(glyph);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "final x = {} after {} cycles{}",
            self.outcome.shared_value(),
            self.outcome.cycles(),
            if self.outcome.bug_manifested() {
                "  (bug manifested: an increment was lost)"
            } else {
                ""
            }
        );
        out
    }

    /// The cycle at which core `core`'s load of the shared location
    /// executed, if any.
    #[must_use]
    pub fn shared_load_cycle(&self, core: usize) -> Option<u64> {
        self.cycles
            .iter()
            .enumerate()
            .find_map(|(c, rec)| match rec.events.get(core)?.executed {
                Some(Op::Load { loc, .. }) if loc.is_shared() => Some(c as u64),
                _ => None,
            })
    }

    /// The cycle at which core `core`'s store to the shared location became
    /// visible (committed to memory), if any.
    #[must_use]
    pub fn shared_store_visible_cycle(&self, core: usize) -> Option<u64> {
        self.cycles.iter().enumerate().find_map(|(c, rec)| {
            let e = rec.events.get(core)?;
            match (e.executed, e.drained) {
                // SC/WO stage directly: visibility is the execute cycle.
                (Some(Op::Store { loc, .. }), _) if loc.is_shared() && e.drained.is_none() => {
                    match self.buffered_models(core) {
                        true => None, // buffered: wait for the drain event
                        false => Some(c as u64),
                    }
                }
                (_, Some((loc, _))) if loc.is_shared() => Some(c as u64),
                _ => None,
            }
        })
    }

    /// Whether this core's model buffers stores (the drain event carries
    /// visibility); inferred from whether any drain event ever occurred.
    fn buffered_models(&self, core: usize) -> bool {
        self.cycles
            .iter()
            .any(|rec| rec.events.get(core).is_some_and(|e| e.drained.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{increment_workload, Machine, SimParams};
    use memmodel::MemoryModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn traced_run_matches_untraced() {
        for model in MemoryModel::NAMED {
            let mut r1 = rng(50);
            let programs = increment_workload(2, 4, &mut r1);
            let params = SimParams::for_model(model);
            let mut m = Machine::new(programs.clone(), params, &mut r1);
            let plain = m.run(&mut r1).unwrap();

            let mut r2 = rng(50);
            let programs2 = increment_workload(2, 4, &mut r2);
            let traced = Machine::new(programs2, params, &mut r2)
                .run_traced(&mut r2)
                .unwrap();
            assert_eq!(traced.outcome, plain, "{model}");
            assert_eq!(traced.cycles.len() as u64, plain.cycles());
        }
    }

    #[test]
    fn every_core_loads_and_publishes_the_shared_location() {
        let mut r = rng(51);
        let programs = increment_workload(3, 4, &mut r);
        let t = Machine::new(programs, SimParams::for_model(MemoryModel::Tso), &mut r)
            .run_traced(&mut r)
            .unwrap();
        for core in 0..3 {
            let load = t.shared_load_cycle(core).expect("critical load traced");
            let visible = t
                .shared_store_visible_cycle(core)
                .expect("critical store visibility traced");
            assert!(visible > load, "core {core}: store visible before load");
        }
    }

    #[test]
    fn render_shows_lanes_and_outcome() {
        let mut r = rng(52);
        let programs = increment_workload(2, 2, &mut r);
        let t = Machine::new(programs, SimParams::for_model(MemoryModel::Sc), &mut r)
            .run_traced(&mut r)
            .unwrap();
        let s = t.render();
        assert!(s.contains("core 0:"));
        assert!(s.contains("core 1:"));
        assert!(s.contains("final x ="));
        assert!(s.contains('R'), "no shared load glyph in\n{s}");
    }

    #[test]
    fn lost_increment_shows_overlapping_windows() {
        // Unstaggered SC cores always race; their windows overlap.
        let mut r = rng(53);
        let programs = increment_workload(2, 0, &mut r);
        let params = SimParams::for_model(MemoryModel::Sc).without_stagger();
        let t = Machine::new(programs, params, &mut r)
            .run_traced(&mut r)
            .unwrap();
        assert!(t.outcome.bug_manifested());
        let l0 = t.shared_load_cycle(0).unwrap();
        let v0 = t.shared_store_visible_cycle(0).unwrap();
        let l1 = t.shared_load_cycle(1).unwrap();
        let v1 = t.shared_store_visible_cycle(1).unwrap();
        // Overlap: one core's load falls inside the other's load→visible span.
        assert!(
            (l0 <= v1 && l1 <= v0),
            "windows [{l0},{v0}] and [{l1},{v1}] do not overlap"
        );
    }
}
