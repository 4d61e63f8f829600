//! Telemetry is out-of-band for the survival kernel: the seeded estimate of
//! [`ReliabilityModel::simulate_survival_with`] is bit-identical with metric
//! recording on or off and with flight recording on or off, for every named
//! model at one and two workers.
//!
//! The runner-level version of this invariant lives in `montecarlo`'s
//! tests; this one covers the kernel that also emits `core`'s per-model
//! counters. Both switches are process-global, so this binary holds a
//! single test.

use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use montecarlo::CHUNK_WIDTH;

/// Several chunks with a ragged tail, so merge order is exercised.
const TRIALS: u64 = 2 * CHUNK_WIDTH + 321;
const SEED: u64 = 0x7E1E_0B5E;

fn model_trials(model: MemoryModel) -> u64 {
    obs::snapshot()
        .counter(&format!("mmr.model.{}.trials", model.short_name()))
        .unwrap_or(0)
}

#[test]
fn survival_is_identical_with_recording_and_flight_on_or_off() {
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, 2);
        for workers in [1usize, 2] {
            let run = || rm.simulate_survival_with(TRIALS, SEED, workers);

            let before = model_trials(model);
            let recorded = run();
            assert_eq!(recorded.trials(), TRIALS);
            assert_eq!(
                model_trials(model) - before,
                TRIALS,
                "{model}: recording was on"
            );

            obs::set_recording(false);
            let before = model_trials(model);
            let unrecorded = run();
            let counted = model_trials(model) - before;
            obs::set_recording(true);
            assert_eq!(counted, 0, "{model}: recording was off");
            assert_eq!(
                recorded, unrecorded,
                "{model} at {workers} workers: recording on vs off"
            );

            obs::flight::set_flight_recording(false);
            let unflown = run();
            obs::flight::set_flight_recording(true);
            assert_eq!(
                recorded, unflown,
                "{model} at {workers} workers: flight on vs off"
            );
        }
    }
}
