//! Flight-recorder integration: the recorder's out-of-band contract in
//! numbers.
//!
//! * Results are **bit-identical** with the recorder on (the default),
//!   off, or mirrored to disk, at every thread count — event emission
//!   never touches RNG streams, chunk tiling, or merge order.
//! * A chaos run that exhausts its retries writes a **crash dossier**
//!   whose event ring ends at the fault site (`chunk_failed`), so the
//!   failure is reconstructible from artifacts alone.
//! * A mirrored event log with a **torn tail** (kill -9 mid-append)
//!   recovers exactly its valid prefix.

use montecarlo::fault::{self, FaultPlan, Profile};
use montecarlo::{RunReport, Runner, Seed, CHUNK_WIDTH};
use rand::Rng;
use std::path::PathBuf;
use std::time::Duration;

/// Enough trials to span several chunks, with a ragged final chunk.
const TRIALS: u64 = 3 * CHUNK_WIDTH + 1234;
/// Chunk indices covering `TRIALS`.
const CHUNKS: u64 = 4;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The flight ring, mirror, and dossier directory are process-global, so
/// these tests serialize on one lock.
fn flight_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Clears the fault plan even when an assertion panics.
struct PlanGuard;

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// Restores every piece of global recorder state a test may have touched.
struct FlightGuard;

impl Drop for FlightGuard {
    fn drop(&mut self) {
        obs::flight::unmirror();
        obs::flight::clear_dossier_dir();
        obs::flight::set_flight_recording(true);
        obs::flight::clear();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmr-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An order-sensitive polynomial hash over every raw u64 the trial kernel
/// draws: any lost, duplicated, or reordered trial changes the value.
fn checksum_run(threads: usize) -> RunReport<u64> {
    Runner::new(Seed(2011))
        .with_threads(threads)
        .with_retry_backoff(Duration::ZERO)
        .try_fold(
            TRIALS,
            || 0u64,
            |rng| rng.gen::<u64>(),
            |acc, x| *acc = acc.wrapping_mul(0x100_0003).wrapping_add(x),
            |a, b| *a = a.wrapping_mul(0x9E37_79B9).wrapping_add(b),
        )
        .expect("fault-free runs never fail")
}

#[test]
fn results_are_bit_identical_with_recorder_on_off_and_mirrored() {
    let _lock = flight_lock();
    let _flight = FlightGuard;
    fault::clear();
    let dir = tmp_dir("onoff");
    let mirror = dir.join("events.flight");

    let baseline = checksum_run(1);
    for threads in THREADS {
        let on = checksum_run(threads);
        assert_eq!(on, baseline, "recorder on drifted at threads={threads}");

        obs::flight::set_flight_recording(false);
        let off = checksum_run(threads);
        obs::flight::set_flight_recording(true);
        assert_eq!(off, baseline, "recorder off drifted at threads={threads}");

        obs::flight::mirror_to(&mirror).unwrap();
        let mirrored = checksum_run(threads);
        obs::flight::unmirror();
        assert_eq!(
            mirrored, baseline,
            "mirrored recorder drifted at threads={threads}"
        );
    }

    // The mirror really captured framed events: one run_start per
    // mirrored run, CRC-checked by the parser, no torn tail.
    let text = std::fs::read_to_string(&mirror).unwrap();
    let parsed = obs::flight::parse_log(&text);
    assert!(!parsed.torn, "a clean mirror has no torn tail");
    assert_eq!(parsed.skipped, 0);
    let starts = parsed
        .events
        .iter()
        .filter(|e| e.kind == "run_start")
        .count();
    assert_eq!(starts, THREADS.len(), "one run_start per mirrored run");
    let claims = parsed
        .events
        .iter()
        .filter(|e| e.kind == "chunk_claimed")
        .count();
    assert_eq!(claims as u64, CHUNKS * THREADS.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_retries_write_a_dossier_ending_at_the_fault_site() {
    let _lock = flight_lock();
    let _flight = FlightGuard;
    let dir = tmp_dir("dossier");
    obs::flight::set_dossier_dir(&dir).unwrap();
    obs::flight::clear();

    // A seed whose panic plan provably fires on some chunk's first
    // attempt; with zero retries allowed that firing is fatal.
    let seed = (0..100_000u64)
        .find(|&s| {
            let p = FaultPlan::new(s, Profile::Panics);
            (0..CHUNKS).any(|c| p.chunk_panics(c, 1))
        })
        .expect("a firing seed exists in the search range");
    let _plan = PlanGuard;
    fault::install(FaultPlan::new(seed, Profile::Panics));
    let err = Runner::new(Seed(2011))
        .with_threads(2)
        .with_max_chunk_retries(0)
        .with_retry_backoff(Duration::ZERO)
        .try_fold(
            TRIALS,
            || 0u64,
            |rng| rng.gen::<u64>(),
            |acc, x| *acc = acc.wrapping_mul(0x100_0003).wrapping_add(x),
            |a, b| *a = a.wrapping_mul(0x9E37_79B9).wrapping_add(b),
        )
        .expect_err("zero retries plus a firing panic plan must fail the run");
    drop(_plan);
    let montecarlo::Error::WorkerPanicked {
        chunk: failed_chunk,
        ..
    } = err
    else {
        panic!("expected WorkerPanicked, got {err}");
    };

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("dossier-") && n.ends_with(".json"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        1,
        "exactly one dossier for the failed run: {names:?}"
    );
    let text = std::fs::read_to_string(dir.join(&names[0])).unwrap();
    let dossier: obs::flight::Dossier =
        serde_json::from_str(&text).expect("the dossier round-trips through JSON");

    assert_eq!(dossier.reason, "worker_panicked");
    assert!(!dossier.events.is_empty());
    // Sequence numbers are strictly increasing: the ring preserved
    // emission order.
    for pair in dossier.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "event order corrupted");
    }
    let last = dossier.events.last().unwrap();
    assert_eq!(
        last.kind, "chunk_failed",
        "the fault site is the final event"
    );
    assert_eq!(last.chunk, Some(failed_chunk));
    // The fault ledger delta attributes the crash to injected panics.
    let rendered = obs::flight::render_dossier(&dossier);
    assert!(rendered.contains("injected_panics="), "{rendered}");
    assert!(
        rendered.contains("crash dossier: worker_panicked"),
        "{rendered}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mirrored_log_recovers_its_valid_prefix_after_a_torn_tail() {
    let _lock = flight_lock();
    let _flight = FlightGuard;
    fault::clear();
    let dir = tmp_dir("torn");
    let mirror = dir.join("events.flight");

    obs::flight::mirror_to(&mirror).unwrap();
    let _ = checksum_run(2);
    obs::flight::unmirror();

    let intact = std::fs::read_to_string(&mirror).unwrap();
    let full = obs::flight::parse_log(&intact);
    assert!(!full.torn);
    assert!(!full.events.is_empty());

    // Kill -9 mid-append: a partial frame after the valid prefix.
    let first_line = intact.find('\n').unwrap() + 1;
    let mut torn = intact.clone();
    torn.push_str(&intact[..first_line / 2]);
    let parsed = obs::flight::parse_log(&torn);
    assert!(parsed.torn, "the partial frame is detected");
    assert_eq!(
        parsed.events, full.events,
        "the valid prefix survives intact"
    );

    // A flipped bit inside an earlier frame truncates from that frame on.
    let mut corrupt = intact.clone().into_bytes();
    let mid = first_line + (intact.len() - first_line) / 2;
    // Flip inside the second half, on a line boundary-safe byte.
    corrupt[mid] ^= 0x01;
    let parsed = obs::flight::parse_log(&String::from_utf8_lossy(&corrupt));
    assert!(parsed.torn, "CRC catches in-frame corruption");
    assert!(parsed.events.len() < full.events.len());
    std::fs::remove_dir_all(&dir).unwrap();
}
