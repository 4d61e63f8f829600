//! Throughput measurement of the trial kernels — the benchmark trajectory
//! behind `BENCH_e2e.json` (`experiments bench`).
//!
//! Most pipelines are single-threaded closed loops over one kernel, timed
//! wall-clock, so the numbers isolate per-trial cost from runner scheduling.
//! The `joined_mt` pipelines run the same end-to-end trial through the
//! pool-dispatched runner at the report's `threads` setting, measuring what
//! the chunk-claiming executor adds on top of the raw kernel — the
//! multi-thread scaling number is only meaningful when `host_cores` is at
//! least the thread count. The `joined_lanes` pipelines run the same
//! trial volume through the batch-lane kernels (lockstep SoA settle/shift,
//! counter-seeded per-trial streams) at the report's `lanes` width, so the
//! lane speedup over `joined_mt` is measured in the same binary. The
//! `joined_cached_*` pair prices the content-addressed result cache: the
//! full 16-point survival sweep run cold through a fresh store (compute +
//! insert on every point) versus warm against the populated store (sixteen
//! pure lookups, asserted bit-identical to the cold fold).

use crate::sweep;
use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use shiftproc::{ShiftProcess, ShiftScratch};
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Serializes every measurement that installs (or must observe the absence
/// of) the process-global result-store handle — [`run`] and any test that
/// calls [`store::install`]. Without this, two concurrent bench runs in one
/// test binary would cross-serve cached results and corrupt each other's
/// timings.
static STORE_LOCK: Mutex<()> = Mutex::new(());

pub(crate) fn store_guard() -> MutexGuard<'static, ()> {
    STORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread count of the joined pipelines.
const N: usize = 2;
/// Filler length of the joined pipelines.
const M: usize = 64;
/// Segment lengths of the shift pipelines.
const SHIFT_LENGTHS: [u64; 4] = [4, 3, 2, 5];

/// Throughput of one measured pipeline.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PipelineResult {
    /// Pipeline id: `settle`, `shift`, `geom`, `geom_fast`, `joined`,
    /// `joined_mt`, `joined_lanes`, `joined_cached_cold`,
    /// `joined_cached_warm` (reports before the legacy kernel's removal
    /// also carry `joined_legacy`).
    pub name: String,
    /// Memory model short name, or `-` for model-independent kernels.
    pub model: String,
    /// Trials executed.
    pub trials: u64,
    /// Measured throughput.
    pub trials_per_sec: f64,
    /// Kernel-dependent fold of all outcomes (hit count, γ sum, shift sum):
    /// keeps the loop honest and makes runs comparable.
    pub checksum: u64,
}

/// Telemetry cost of the pool-dispatched pipeline for one model:
/// `joined_mt` with metric recording on vs. off in the same binary.
/// Values near 1.0 mean the instrumentation is free at chunk granularity
/// (the compile-time-disabled build removes even the remaining loads).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TelemetryOverhead {
    /// Memory model short name.
    pub model: String,
    /// `joined_mt` (recording on) throughput divided by `joined_mt_notel`
    /// (recording off) throughput.
    pub throughput_ratio: f64,
}

/// One pipeline's throughput in a [`TrajectoryEntry`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TrajectoryPoint {
    /// Pipeline id.
    pub name: String,
    /// Memory model short name, or `-`.
    pub model: String,
    /// Measured throughput at that revision.
    pub trials_per_sec: f64,
}

/// A compact record of one bench run, kept in the report's `history` so
/// `BENCH_e2e.json` accumulates a performance trajectory across revisions
/// (the regression gate appends one entry per `--baseline` run).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TrajectoryEntry {
    /// Source revision that produced the run (`git rev-parse --short`,
    /// `"unknown"` outside a checkout).
    pub git_rev: String,
    /// Worker threads of the `joined_mt` pipelines.
    pub threads: usize,
    /// Trials per pipeline.
    pub trials: u64,
    /// Logical cores of the producing machine.
    pub host_cores: usize,
    /// Per-pipeline throughput at this revision.
    pub points: Vec<TrajectoryPoint>,
    /// Runner trials completed during this bench run alone (diagnostics
    /// from a [`obs::Snapshot::diff`] over the run).
    pub runner_trials: u64,
    /// Runner chunks claimed during this bench run alone.
    pub runner_chunks: u64,
}

/// The full machine-readable benchmark report (`BENCH_e2e.json`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Trials per pipeline.
    pub trials: u64,
    /// RNG seed.
    pub seed: u64,
    /// Source revision that produced the report (`"unknown"` outside a
    /// git checkout).
    pub git_rev: String,
    /// Worker threads used by the `joined_mt` pipelines.
    pub threads: usize,
    /// Lane width of the `joined_lanes` pipelines; `None` in reports that
    /// predate the lane kernels (the field deserializes as absent there).
    pub lanes: Option<usize>,
    /// The runner's fixed chunk width (trials per pool task).
    pub chunk_width: u64,
    /// Logical cores of the machine that produced this report — the context
    /// needed to read the `joined_mt` numbers (no speedup can materialise
    /// when `threads > host_cores`).
    pub host_cores: usize,
    /// All measured pipelines. Reports from before the legacy kernel's
    /// removal also carry a `joined_speedup_vs_legacy` list; it is
    /// ignored when they are read back.
    pub pipelines: Vec<PipelineResult>,
    /// `joined_cached_warm` throughput divided by `joined_cached_cold`
    /// throughput: the replay speedup of serving the full sweep from the
    /// content-addressed result cache. `None` in reports that predate the
    /// cache (the field deserializes as absent there).
    pub cache_speedup: Option<f64>,
    /// Recording-on vs. recording-off `joined_mt` throughput, per model.
    pub telemetry_overhead: Vec<TelemetryOverhead>,
    /// Flight-recorder cost of the pool-dispatched pipeline, per model:
    /// `joined_mt` (flight events on, the default) divided by the same
    /// batch with the flight switch off. `None` in reports that predate
    /// the recorder (the field deserializes as absent there).
    pub flight_overhead: Option<Vec<TelemetryOverhead>>,
    /// Live-serving cost of the pool-dispatched pipeline, per model: the
    /// `joined_mt` batch with a bound telemetry server and one attached
    /// `/events` streaming client, divided by the unserved `joined_mt`.
    /// Checksum equality between the two proves serving is out-of-band.
    /// `None` in reports that predate the server, or when the bench
    /// environment cannot bind a loopback socket.
    pub serve_overhead: Option<Vec<TelemetryOverhead>>,
    /// Telemetry snapshot taken after all pipelines ran: per-stage span
    /// timings, runner/pool counters, and per-model trial counts.
    pub telemetry: obs::Snapshot,
    /// Performance trajectory: this run's [`TrajectoryEntry`], preceded by
    /// the baseline's accumulated history when the regression gate ran.
    pub history: Vec<TrajectoryEntry>,
}

/// The working tree's short revision, `"unknown"` when git is unavailable.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Timed repetitions per pipeline; the best (least-disturbed) one is
/// reported. A shared machine stalls a closed loop arbitrarily, so the
/// minimum wall time is the robust throughput statistic.
const REPS: u32 = 5;

fn measure<F: FnMut() -> u64>(
    name: &str,
    model: &str,
    trials: u64,
    mut setup: impl FnMut() -> F,
) -> PipelineResult {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for rep in 0..REPS {
        let mut trial = setup();
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..trials {
            sum = sum.wrapping_add(black_box(trial()));
        }
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        if rep == 0 {
            checksum = sum;
        } else {
            assert_eq!(checksum, sum, "{name}/{model}: nondeterministic pipeline");
        }
    }
    PipelineResult {
        name: name.to_owned(),
        model: model.to_owned(),
        trials,
        trials_per_sec: trials as f64 / best.max(1e-9),
        checksum,
    }
}

/// One whole-batch pipeline: `batch()` runs all `trials` in one shot (e.g.
/// through the pool-dispatched runner) and returns its checksum. Timed the
/// same way as [`measure`], with the same cross-rep determinism assertion.
fn measure_batch(
    name: &str,
    model: &str,
    trials: u64,
    mut batch: impl FnMut() -> u64,
) -> PipelineResult {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for rep in 0..REPS {
        let start = Instant::now();
        let sum = black_box(batch());
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        if rep == 0 {
            checksum = sum;
        } else {
            assert_eq!(checksum, sum, "{name}/{model}: nondeterministic pipeline");
        }
    }
    PipelineResult {
        name: name.to_owned(),
        model: model.to_owned(),
        trials,
        trials_per_sec: trials as f64 / best.max(1e-9),
        checksum,
    }
}

/// Runs every pipeline at the given size and seed, with `threads` worker
/// threads for the pool-dispatched `joined_mt`/`joined_lanes` pipelines and
/// `lanes` lockstep lanes for `joined_lanes`.
///
/// The simulation entry points consult the process-global result store
/// when one is installed, so `run` takes [`store_guard`] for its whole
/// duration and uninstalls any ambient store: every pipeline except the
/// `joined_cached_*` pair (which manages its own stores) measures the
/// uncached kernels.
///
/// # Panics
///
/// Panics if `lanes` is outside `1..=`[`settle::MAX_LANES`].
#[must_use]
pub fn run(trials: u64, seed: u64, threads: usize, lanes: usize) -> BenchReport {
    let _store_lock = store_guard();
    store::clear();
    let before = obs::snapshot();
    let mut pipelines = Vec::new();

    // Raw geometric samplers: the flip loop vs the trailing_zeros trick.
    // Each stage runs under an RAII span so the emitted snapshot attributes
    // bench wall-clock per stage.
    let proc = ShiftProcess::canonical();
    {
        let _span = obs::span("bench.geom");
        pipelines.push(measure("geom", "-", trials, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            move || proc.sample_shift(&mut rng)
        }));
        pipelines.push(measure("geom_fast", "-", trials, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            move || proc.sample_shift_fast(&mut rng)
        }));
    }

    // The disjointness kernel over fixed segment lengths.
    {
        let _span = obs::span("bench.shift");
        pipelines.push(measure("shift", "-", trials, || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut shift_scratch = ShiftScratch::with_capacity(SHIFT_LENGTHS.len());
            move || {
                u64::from(proc.simulate_disjoint_into(&SHIFT_LENGTHS, &mut shift_scratch, &mut rng))
            }
        }));
    }

    // Per model: the settle kernel and the joined pipelines.
    let mut telemetry_overhead = Vec::new();
    let mut flight_overhead = Vec::new();
    let mut serve_overhead = Vec::new();
    // A live telemetry endpoint with one `/events` streaming client, held
    // across the per-model loop so `joined_mt_serve` prices the broadcast
    // bus with a real subscriber draining over TCP. A bind failure
    // (locked-down environment) skips the measurement, not the bench.
    let serve_server = obs::serve::serve("127.0.0.1:0").ok();
    let serve_client = serve_server.as_ref().and_then(|server| {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(server.addr()).ok()?;
        stream.write_all(b"GET /events HTTP/1.0\r\n\r\n").ok()?;
        Some(std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        }))
    });
    for model in MemoryModel::NAMED {
        let rm = ReliabilityModel::new(model, N).with_filler_len(M);
        let short = model.short_name();

        pipelines.push({
            let _span = obs::span("bench.settle");
            measure("settle", short, trials, || {
                let mut scratch = rm.scratch();
                let mut rng = SmallRng::seed_from_u64(seed);
                move || {
                    let w = rm.sample_windows_scratch(&mut scratch, &mut rng);
                    w.iter().sum::<u64>()
                }
            })
        });

        let joined = {
            let _span = obs::span("bench.joined");
            measure("joined", short, trials, || {
                let mut scratch = rm.scratch();
                let mut rng = SmallRng::seed_from_u64(seed);
                move || u64::from(rm.simulate_survival_once_scratch(&mut scratch, &mut rng))
            })
        };

        pipelines.push(joined);

        // The same end-to-end trial dispatched through the persistent pool
        // (fixed-width chunks, counter-derived streams). Its checksum is the
        // success count — a different RNG layout than the serial loops, but
        // identical at every thread count and on every rep.
        let mt_batch = move || {
            montecarlo::Runner::new(montecarlo::Seed(seed))
                .with_threads(threads)
                .bernoulli_scratch(
                    trials,
                    move || rm.scratch(),
                    move |scratch, rng| rm.simulate_survival_once_scratch(scratch, rng),
                )
                .successes()
        };
        let mt = {
            let _span = obs::span("bench.joined_mt");
            measure_batch("joined_mt", short, trials, mt_batch)
        };
        // The identical batch with metric recording paused: the telemetry
        // invariant in numbers. Checksum equality proves out-of-band-ness;
        // the throughput ratio prices the enabled instrumentation.
        obs::set_recording(false);
        let mt_notel = measure_batch("joined_mt_notel", short, trials, mt_batch);
        obs::set_recording(true);
        assert_eq!(
            mt.checksum, mt_notel.checksum,
            "{short}: telemetry recording changed the joined_mt outcome fold"
        );
        telemetry_overhead.push(TelemetryOverhead {
            model: short.to_owned(),
            throughput_ratio: mt.trials_per_sec / mt_notel.trials_per_sec,
        });
        // The flight recorder priced the same way: the identical batch
        // with only the flight switch off (spans and counters still
        // recording). Checksum equality proves the recorder is
        // out-of-band; the ratio prices event emission. The measurement
        // stays out of `pipelines` — the regression gate's pipeline set
        // is pinned — and lands in `flight_overhead` instead.
        obs::flight::set_flight_recording(false);
        let mt_noflight = measure_batch("joined_mt_noflight", short, trials, mt_batch);
        obs::flight::set_flight_recording(true);
        assert_eq!(
            mt.checksum, mt_noflight.checksum,
            "{short}: flight recording changed the joined_mt outcome fold"
        );
        flight_overhead.push(TelemetryOverhead {
            model: short.to_owned(),
            throughput_ratio: mt.trials_per_sec / mt_noflight.trials_per_sec,
        });
        // The same batch once more while the telemetry server streams
        // events to its live client. Checksum equality proves an attached
        // client never touches a result; the ratio is served/unserved
        // throughput. Stays out of `pipelines` like the flight pair.
        if serve_server.is_some() {
            let mt_serve = measure_batch("joined_mt_serve", short, trials, mt_batch);
            assert_eq!(
                mt.checksum, mt_serve.checksum,
                "{short}: a live telemetry client changed the joined_mt outcome fold"
            );
            serve_overhead.push(TelemetryOverhead {
                model: short.to_owned(),
                throughput_ratio: mt_serve.trials_per_sec / mt.trials_per_sec,
            });
        }
        pipelines.push(mt);
        pipelines.push(mt_notel);

        // The lane path at the same trial volume, seed, and thread count:
        // lockstep SoA kernels over counter-seeded per-trial streams. Its
        // checksum is a success count like `joined_mt`'s but from the lane
        // stream, so the two agree statistically, not bit-wise; the
        // cross-rep assertion in `measure_batch` still pins determinism.
        let lanes_batch = move || {
            rm.simulate_survival_lanes_with(trials, seed, lanes, threads)
                .successes()
        };
        pipelines.push({
            let _span = obs::span("bench.joined_lanes");
            measure_batch("joined_lanes", short, trials, lanes_batch)
        });
    }

    // Shut the endpoint down before the cached sweep: dropping the server
    // stops the accept loop and ends the client's stream, so the reader
    // thread joins promptly and the warm-replay pipeline (billions of
    // trials/sec) is not measured with a bus subscriber attached.
    let served = serve_server.is_some();
    drop(serve_server);
    if let Some(reader) = serve_client {
        let _ = reader.join();
    }

    // The content-addressed result cache priced on the full 16-point
    // survival sweep (the sweep every experiment report is built from).
    // Cold: a fresh in-memory store per rep, so every rep computes all 16
    // points and pays the insert path. Warm: one store primed outside the
    // timed region, so every rep is 16 pure lookups. The checksum equality
    // assertion below is the bit-identity contract, re-proven on every
    // bench run; both results carry the whole sweep's trial volume so the
    // throughput ratio is the replay speedup.
    let cache_speedup = {
        let _span = obs::span("bench.joined_cached");
        let points = sweep::grid(
            &[MemoryModel::Tso, MemoryModel::Wo],
            &[16, 32],
            &[2, 3],
            &[0.4, 0.6],
        );
        let sweep_trials = points.len() as u64 * trials;
        let run_sweep = {
            let points = points.clone();
            move || {
                sweep::survival_sweep(points.clone(), trials, seed, threads)
                    .iter()
                    .fold(0u64, |sum, p| sum.wrapping_add(p.estimate.successes()))
            }
        };

        let cold = {
            let run_sweep = run_sweep.clone();
            measure_batch("joined_cached_cold", "-", sweep_trials, move || {
                store::install(Arc::new(store::Store::in_memory()));
                let sum = run_sweep();
                store::clear();
                sum
            })
        };

        let warm_store = Arc::new(store::Store::in_memory());
        store::install(Arc::clone(&warm_store));
        let primed = run_sweep();
        let warm = measure_batch("joined_cached_warm", "-", sweep_trials, run_sweep);
        store::clear();
        assert_eq!(
            cold.checksum, warm.checksum,
            "warm cache replay diverged from the cold sweep"
        );
        assert_eq!(primed, warm.checksum, "priming sweep diverged");
        let stats = warm_store.stats();
        assert!(
            stats.hits >= points.len() as u64 * u64::from(REPS),
            "warm sweep reps must be pure cache hits (got {} hits)",
            stats.hits
        );

        let speedup = warm.trials_per_sec / cold.trials_per_sec;
        pipelines.push(cold);
        pipelines.push(warm);
        speedup
    };

    let telemetry = obs::snapshot();
    let delta = telemetry.diff(&before);
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let git_rev = git_rev();
    let entry = TrajectoryEntry {
        git_rev: git_rev.clone(),
        threads,
        trials,
        host_cores,
        points: pipelines
            .iter()
            .map(|p| TrajectoryPoint {
                name: p.name.clone(),
                model: p.model.clone(),
                trials_per_sec: p.trials_per_sec,
            })
            .collect(),
        runner_trials: delta.counter("mc.runner.trials_completed").unwrap_or(0),
        runner_chunks: delta.counter("mc.runner.chunks_claimed").unwrap_or(0),
    };
    BenchReport {
        trials,
        seed,
        git_rev,
        threads,
        lanes: Some(lanes),
        chunk_width: montecarlo::CHUNK_WIDTH,
        host_cores,
        pipelines,
        cache_speedup: Some(cache_speedup),
        telemetry_overhead,
        flight_overhead: Some(flight_overhead),
        serve_overhead: served.then_some(serve_overhead),
        telemetry,
        history: vec![entry],
    }
}

impl BenchReport {
    /// A short human-readable summary (stderr companion of the JSON file).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "threads {} | lanes {} | chunk width {} | host cores {}",
            self.threads,
            self.lanes.map_or_else(|| "-".to_owned(), |l| l.to_string()),
            self.chunk_width,
            self.host_cores
        );
        for p in &self.pipelines {
            let _ = writeln!(
                out,
                "{:<14} {:<4} {:>12.0} trials/sec",
                p.name, p.model, p.trials_per_sec
            );
        }
        if let Some(s) = self.cache_speedup {
            let _ = writeln!(out, "cache replay warm/cold {s:.0}x");
        }
        for t in &self.telemetry_overhead {
            let _ = writeln!(
                out,
                "telemetry on/off {:<4} {:.3}x",
                t.model, t.throughput_ratio
            );
        }
        for t in self.flight_overhead.as_deref().unwrap_or(&[]) {
            let _ = writeln!(out, "flight on/off {:<4} {:.3}x", t.model, t.throughput_ratio);
        }
        for t in self.serve_overhead.as_deref().unwrap_or(&[]) {
            let _ = writeln!(out, "serve on/off {:<4} {:.3}x", t.model, t.throughput_ratio);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_complete_and_serializable() {
        let report = run(2_000, 9, 2, 8);
        // 3 + 2 model-independent + 5 per named model.
        assert_eq!(report.pipelines.len(), 5 + 5 * MemoryModel::NAMED.len());
        assert_eq!(report.telemetry_overhead.len(), MemoryModel::NAMED.len());
        assert!(report
            .telemetry_overhead
            .iter()
            .all(|t| t.throughput_ratio > 0.0));
        let flight = report.flight_overhead.as_deref().expect("flight overhead measured");
        assert_eq!(flight.len(), MemoryModel::NAMED.len());
        assert!(flight.iter().all(|t| t.throughput_ratio > 0.0));
        assert!(report.summary().contains("flight on/off"));
        let serve = report.serve_overhead.as_deref().expect("serve overhead measured");
        assert_eq!(serve.len(), MemoryModel::NAMED.len());
        assert!(serve.iter().all(|t| t.throughput_ratio > 0.0));
        assert!(report.summary().contains("serve on/off"));
        assert!(report.pipelines.iter().all(|p| p.trials_per_sec > 0.0));
        assert_eq!(report.threads, 2);
        assert_eq!(report.lanes, Some(8));
        assert_eq!(report.chunk_width, montecarlo::CHUNK_WIDTH);
        assert!(report.host_cores >= 1);
        // The embedded snapshot carries the runner counters and the
        // per-stage spans the bench just produced.
        assert!(report.telemetry.counter("mc.runner.runs").unwrap_or(0) >= 1);
        assert!(report.telemetry.span("bench.joined_mt").is_some());
        assert!(report.telemetry.span("bench.joined_lanes").is_some());
        assert!(report.telemetry.span("bench.joined_cached").is_some());
        // The warm replay must beat the cold sweep (in practice by orders
        // of magnitude; >1 keeps the test robust on loaded machines).
        assert!(report.cache_speedup.unwrap() > 1.0);
        let cached = |name: &str| {
            report
                .pipelines
                .iter()
                .find(|p| p.name == name && p.model == "-")
                .expect("cached pipeline present")
        };
        assert_eq!(
            cached("joined_cached_cold").checksum,
            cached("joined_cached_warm").checksum
        );
        assert!(report.summary().contains("cache replay warm/cold"));
        // One trajectory entry covering this run alone, one point per
        // pipeline, with the run's own runner activity attributed to it.
        assert_eq!(report.history.len(), 1);
        let entry = &report.history[0];
        assert_eq!(entry.points.len(), report.pipelines.len());
        assert_eq!(entry.git_rev, report.git_rev);
        assert!(!entry.git_rev.is_empty());
        assert!(entry.runner_trials >= 1);
        assert!(entry.runner_chunks >= 1);
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.summary().contains("chunk width"));
        assert!(report.summary().contains("telemetry on/off"));
    }

    #[test]
    fn reports_from_before_the_legacy_removal_still_parse_and_gate() {
        // Older BENCH_e2e.json baselines carry a `joined_legacy` pipeline
        // per model and a `joined_speedup_vs_legacy` list. They must still
        // load as baselines, and the gate skips the pipeline that no
        // longer runs.
        let report = run(500, 7, 1, 4);
        let json = serde_json::to_string(&report).unwrap();
        let old = json.replacen(
            "\"pipelines\":[",
            "\"joined_speedup_vs_legacy\":[{\"model\":\"WO\",\"speedup\":3.5}],\
             \"pipelines\":[{\"name\":\"joined_legacy\",\"model\":\"WO\",\"trials\":500,\
             \"trials_per_sec\":1.0,\"checksum\":0},",
            1,
        );
        assert_ne!(old, json, "the old fields were spliced in");
        let baseline: BenchReport = serde_json::from_str(&old).unwrap();
        assert_eq!(baseline.pipelines.len(), report.pipelines.len() + 1);
        assert!(report.pipelines.iter().all(|p| p.name != "joined_legacy"));
        let outcome = crate::gate::compare(&baseline, &report);
        assert_eq!(outcome.rows.len(), report.pipelines.len());
        assert!(outcome.rows.iter().all(|r| r.name != "joined_legacy"));
        // The checked-in baseline predates the removal. It was taken at
        // 200k trials, so it gates a run of its own size and skips every
        // pipeline of this 500-trial one.
        let checked_in: BenchReport =
            serde_json::from_str(include_str!("../../../BENCH_e2e.json")).unwrap();
        assert!(!crate::gate::compare(&checked_in, &checked_in).rows.is_empty());
        let against = crate::gate::compare(&checked_in, &report);
        assert!(against.rows.is_empty());
        assert_eq!(against.skipped.len(), report.pipelines.len());
    }

    #[test]
    fn telemetry_recording_does_not_change_joined_mt_checksums() {
        // run() asserts joined_mt == joined_mt_notel internally; pin the
        // pairing explicitly as a regression guard.
        let report = run(1_000, 4, 2, 8);
        for model in MemoryModel::NAMED {
            let at = |name: &str| {
                report
                    .pipelines
                    .iter()
                    .find(|p| p.name == name && p.model == model.short_name())
                    .expect("pipeline present")
                    .checksum
            };
            assert_eq!(at("joined_mt"), at("joined_mt_notel"), "{model}");
        }
    }

    #[test]
    fn joined_mt_checksum_is_thread_count_invariant() {
        // The pool-dispatched pipeline derives every chunk's RNG from the
        // chunk index, so its outcome fold is identical at any threads.
        let a = run(1_000, 4, 1, 8);
        let b = run(1_000, 4, 4, 8);
        let mt = |r: &BenchReport, model: MemoryModel| {
            r.pipelines
                .iter()
                .find(|p| p.name == "joined_mt" && p.model == model.short_name())
                .expect("pipeline present")
                .checksum
        };
        for model in MemoryModel::NAMED {
            assert_eq!(mt(&a, model), mt(&b, model), "{model}");
        }
    }
}
