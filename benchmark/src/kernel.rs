//! `rb16` and `direct2`: the two Monte-Carlo routes behind the paper's
//! headline numbers, each run for the four named models.
//!
//! * `rb16` — the Rao-Blackwellised estimate of Theorem 6.1 at n = 16, the
//!   route Theorem 6.3's `e^{-n²}` scaling is measured on. Settling is
//!   nearly all of its work.
//! * `direct2` — direct simulation of the event A at n = 2, the Theorem 6.2
//!   table. Its trials are the shortest, so regeneration, the shift, the
//!   runner and telemetry take their largest share here.
//!
//! The timed region calls only the public `*_with` entry points. The
//! traced run replays the same trial loop single-threaded in the
//! benchmark, with a span around each call into a layer kernel.

use crate::trace::{Counting, Probe, Recorder, Untraced};
use crate::{scaled, timed, Layers, Tally, Workload, WORKERS};
use memmodel::{MemoryModel, OpType};
use mmr_core::{RbSurvival, ReliabilityModel, DEFAULT_M};
use montecarlo::{BernoulliEstimate, Welford, CHUNK_WIDTH};
use progmodel::{Program, ProgramGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use settle::{SettleScratch, Settler};
use shiftproc::{exchangeable, ShiftProcess, ShiftScratch};

/// Confidence of the Wilson interval checked against the Theorem 6.2
/// bounds. At 99.9% a campaign of a few hundred seeded runs would see a
/// false alarm; at 1 − 1e-6 (about 4.9 standard errors) it would not.
const CHECK_CONFIDENCE: f64 = 1.0 - 1e-6;

/// Replay and end-to-end estimates must agree within this many combined
/// standard errors.
const AGREE_SE: f64 = 5.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Rb,
    Direct,
}

impl Route {
    /// The model's thread count n (not the runner's workers).
    fn n(self) -> usize {
        match self {
            Route::Rb => 16,
            Route::Direct => 2,
        }
    }

    /// Trials per model per timed repetition at scale 1.
    fn trials(self) -> u64 {
        match self {
            Route::Rb => 125_000,
            Route::Direct => 1_000_000,
        }
    }

    /// Trials per model in each arm of the traced run at scale 1.
    fn trace_trials(self) -> u64 {
        match self {
            Route::Rb => 100_000,
            Route::Direct => 250_000,
        }
    }

    /// One call through the public entry point.
    fn estimate(self, model: &ReliabilityModel, trials: u64, seed: u64, workers: usize) -> Outcome {
        match self {
            Route::Rb => Outcome::Rb(model.estimate_survival_rb_with(trials, seed, workers)),
            Route::Direct => Outcome::Direct(model.simulate_survival_with(trials, seed, workers)),
        }
    }
}

/// One end-to-end estimate.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Rb(RbSurvival),
    Direct(BernoulliEstimate),
}

impl Outcome {
    /// The sampled mean and its standard error, comparable with a replay.
    fn mean_sem(&self) -> (f64, f64) {
        match self {
            Outcome::Rb(r) => (r.mean_factor, r.factor_sem),
            Outcome::Direct(e) => (e.point(), e.sem()),
        }
    }

    /// Whether the estimate is consistent with the paper's bounds.
    fn within_bounds(&self, model: &ReliabilityModel) -> bool {
        let (lo, hi) = model
            .log2_survival_bounds()
            .expect("named models have bounds");
        match self {
            Outcome::Rb(r) if model.memory_model() == MemoryModel::Sc => {
                (r.log2_survival - lo).abs() <= 1e-9
            }
            Outcome::Rb(r) => (lo..=hi).contains(&r.log2_survival),
            Outcome::Direct(e) => {
                let (ci_lo, ci_hi) = e.wilson_ci(CHECK_CONFIDENCE);
                ci_hi >= lo.exp2() && ci_lo <= hi.exp2()
            }
        }
    }
}

/// The timed state of `rb16` or `direct2`.
pub struct Kernel {
    route: Route,
    trials: u64,
    models: Vec<(ReliabilityModel, u64)>,
    /// Each model's first-repetition outcome; later repetitions must
    /// match it bit for bit.
    first: Vec<Option<Outcome>>,
}

/// The four named models with a per-model seed drawn from `seed`.
fn models(route: Route, seed: u64) -> Vec<(ReliabilityModel, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    MemoryModel::NAMED
        .into_iter()
        .map(|m| (ReliabilityModel::new(m, route.n()), rng.gen()))
        .collect()
}

impl Kernel {
    /// Builds the models and warms each up with one chunk.
    pub fn setup(route: Route, seed: u64, scale: f64) -> Kernel {
        let models = models(route, seed);
        for (model, model_seed) in &models {
            let _ = route.estimate(model, CHUNK_WIDTH, !model_seed, WORKERS);
        }
        Kernel {
            route,
            trials: scaled(route.trials(), scale),
            first: vec![None; models.len()],
            models,
        }
    }
}

impl Workload for Kernel {
    fn rep(&mut self, tally: &mut Tally) {
        for ((model, seed), first) in self.models.iter().zip(&mut self.first) {
            let out = self.route.estimate(model, self.trials, *seed, WORKERS);
            tally.check(out.within_bounds(model), || {
                format!("{model}: estimate outside the paper's bounds")
            });
            match first {
                None => *first = Some(out),
                Some(f) => tally.check(*f == out, || format!("{model}: repetitions differ")),
            }
        }
    }
}

/// The trial loop of both routes, one layer call per span:
/// regenerate → settle ×n → shift (direct) or exact factor (RB).
fn replay<P: Probe>(
    probe: &mut P,
    rng: &mut P::Rng,
    route: Route,
    model: MemoryModel,
    trials: u64,
) -> Welford {
    let n = route.n();
    let generator = ProgramGenerator::new(DEFAULT_M);
    let mut program =
        Program::from_filler_types(&[OpType::Ld; DEFAULT_M]).expect("canonical program shape");
    let settler = Settler::for_model(model);
    let settle_span = settle_span(model);
    let shift = ShiftProcess::canonical();
    let mut settle_scratch = SettleScratch::with_capacity(program.len());
    let mut shift_scratch = ShiftScratch::with_capacity(n);
    let mut windows = vec![0u64; n];
    let mut acc = Welford::new();
    let mut done = 0;
    while done < trials {
        let len = CHUNK_WIDTH.min(trials - done);
        probe.span("chunk", rng, |probe, rng| {
            for _ in 0..len {
                probe.span("progmodel.regenerate", rng, |_, rng| {
                    generator.regenerate(&mut program, rng);
                });
                probe.span(settle_span, rng, |_, rng| {
                    settler.sample_gammas_scratch(&program, &mut windows, &mut settle_scratch, rng);
                });
                for w in &mut windows {
                    *w += 2;
                }
                let x = match route {
                    Route::Rb => probe.span("shiftproc.sample_factor", rng, |_, _| {
                        exchangeable::sample_factor(&windows, 2)
                    }),
                    Route::Direct => {
                        let survived = probe.span("shiftproc.simulate_disjoint", rng, |_, rng| {
                            shift.simulate_disjoint_into(&windows, &mut shift_scratch, rng)
                        });
                        f64::from(u8::from(survived))
                    }
                };
                acc.record(x);
            }
        });
        probe.chunk_done();
        done += len;
    }
    acc
}

fn settle_span(model: MemoryModel) -> &'static str {
    match model {
        MemoryModel::Sc => "settle.sc",
        MemoryModel::Tso => "settle.tso",
        MemoryModel::Pso => "settle.pso",
        MemoryModel::Wo => "settle.wo",
        MemoryModel::Custom(_) => unreachable!("only named models are benchmarked"),
    }
}

/// The traced run: the instrumented replay, the same replay untraced
/// (K₁), the entry point at one worker (W₁) and two (W₂), and W₂ again
/// with telemetry and the flight recorder off. Returns the per-layer
/// metrics and the Chrome trace of the first chunk.
pub fn traced(route: Route, seed: u64, scale: f64, tally: &mut Tally) -> (Layers, String) {
    let trials = scaled(route.trace_trials(), scale);
    let (mut traced_s, mut k1, mut w1, mut w2, mut w2_quiet) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut rec = Recorder::new();
    for (i, (model, model_seed)) in models(route, seed).into_iter().enumerate() {
        let mm = model.memory_model();
        let replay_seed = !model_seed;
        rec.keep = i == 0;
        let mut counted = Counting::new(SmallRng::seed_from_u64(replay_seed));
        let (t, with_spans) = timed(|| replay(&mut rec, &mut counted, route, mm, trials));
        traced_s += t;
        let mut plain_rng = SmallRng::seed_from_u64(replay_seed);
        let (t, plain) = timed(|| replay(&mut Untraced, &mut plain_rng, route, mm, trials));
        k1 += t;
        tally.check(with_spans == plain, || {
            format!("{model}: traced and untraced replays differ")
        });

        let (t, one) = timed(|| route.estimate(&model, trials, model_seed, 1));
        w1 += t;
        let (t, two) = timed(|| route.estimate(&model, trials, model_seed, WORKERS));
        w2 += t;
        tally.check(one == two, || {
            format!("{model}: estimate depends on the worker count")
        });
        tally.check(two.within_bounds(&model), || {
            format!("{model}: estimate outside the paper's bounds")
        });
        let (mean, sem) = two.mean_sem();
        let gap = (plain.mean() - mean).abs();
        tally.check(gap <= AGREE_SE * plain.sem().hypot(sem), || {
            format!("{model}: replay mean {} vs end-to-end {mean}", plain.mean())
        });

        obs::set_recording(false);
        obs::flight::set_flight_recording(false);
        let (t, _) = timed(|| route.estimate(&model, trials, model_seed, WORKERS));
        w2_quiet += t;
        obs::set_recording(true);
        obs::flight::set_flight_recording(true);
    }

    let traced_ns = traced_s * 1e9;
    let share = |prefix: &str| rec.self_ns(prefix) as f64 / traced_ns;
    let per_call = |name: &str, per: f64| {
        let a = rec.agg(name);
        let calls = a.count as f64 * per;
        if calls == 0.0 {
            (0.0, 0.0)
        } else {
            (a.self_ns as f64 / calls, a.draws as f64 / calls)
        }
    };
    let n = route.n() as f64;
    let mut layers = Layers::new();
    for model in MemoryModel::NAMED {
        let short = model.short_name().to_lowercase();
        let (ns, draws) = per_call(settle_span(model), n);
        layers.push((format!("settle.ns_per_settle.{short}"), ns));
        layers.push((format!("settle.draws_per_settle.{short}"), draws));
    }
    let (regen_ns, regen_draws) = per_call("progmodel.regenerate", 1.0);
    let (disjoint_ns, disjoint_draws) = per_call("shiftproc.simulate_disjoint", 1.0);
    let (factor_ns, _) = per_call("shiftproc.sample_factor", 1.0);
    let shares = [share("settle."), share("progmodel."), share("shiftproc.")];
    let named = [
        ("settle.share", shares[0]),
        ("progmodel.share", shares[1]),
        ("shiftproc.share", shares[2]),
        ("progmodel.regenerate_ns", regen_ns),
        ("progmodel.draws_per_regenerate", regen_draws),
        ("shiftproc.disjoint_ns", disjoint_ns),
        ("shiftproc.draws_per_trial", disjoint_draws),
        ("shiftproc.factor_ns", factor_ns),
        ("montecarlo.overhead_share", (w1 - k1) / w1),
        ("montecarlo.scaling_eff", w1 / (2.0 * w2)),
        ("obs.overhead_ratio", w2 / w2_quiet),
        ("trace.overhead_ratio", traced_s / k1),
        ("trace.unexplained_share", 1.0 - shares.iter().sum::<f64>()),
    ];
    layers.extend(named.map(|(k, v)| (k.to_owned(), v)));
    (layers, rec.chrome_trace())
}
