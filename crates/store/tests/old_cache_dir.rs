//! A cache directory written while the store rolled segments still loads.
//!
//! `fixtures/parent-cache/` was written by the build before the store
//! kept one segment file: its `Store::open_with(dir, 1024)` (a 1 KiB roll
//! threshold) took the four inserts below, so the directory holds two
//! full segments, the empty segment the second roll left current, and an
//! `index.mmri` listing all three. The survival request of seed 1 was
//! inserted twice, once in each full segment, with different successes,
//! so the later record is the one that must win.

use std::path::{Path, PathBuf};
use store::{
    AccState, BernoulliState, CachedPrefix, CachedReport, Entry, KeySpec, Lookup, MeanState,
    RequestKey, Store,
};

const CW: u64 = 4096;

/// The spec the fixture's requests were keyed by. The kernel tag is the
/// literal one the fixture holds, so a later kernel bump does not turn
/// this format test into a miss.
fn spec(kind: &str, seed: u64) -> KeySpec {
    KeySpec {
        kernel: format!("mmr-kernels-v3/{kind}"),
        matrix: ".X..".into(),
        threads_n: 2,
        filler_m: 64,
        p_bits: 0.5f64.to_bits(),
        settle_bits: [0.5f64.to_bits(); 4],
        fence_pass_bits: 1.0f64.to_bits(),
        acquire_fence: false,
        seed,
        chunk_width: CW,
    }
}

fn bernoulli(successes: u64, chunks: u64) -> AccState {
    AccState::Bernoulli(BernoulliState {
        successes,
        trials: chunks * CW,
    })
}

fn mean(chunks: u64) -> AccState {
    AccState::Mean(MeanState {
        count: chunks * CW,
        mean_bits: 0.25f64.to_bits(),
        m2_bits: 1.5f64.to_bits(),
    })
}

fn prefix(chunks: u64, value: AccState) -> CachedPrefix {
    CachedPrefix {
        chunks,
        trials: chunks * CW,
        value,
    }
}

/// One fixture insert: the request and the entry the parent stored.
fn insert(
    kind: &str,
    seed: u64,
    value: AccState,
    prefixes: Vec<CachedPrefix>,
) -> (RequestKey, Entry) {
    let trials = prefixes.last().map_or(0, |p| p.trials);
    let key = spec(kind, seed).request(trials);
    let entry = Entry {
        canon: key.canon(),
        family: key.family.clone(),
        report: CachedReport {
            value,
            trials_requested: trials,
            trials_completed: trials,
        },
        prefixes,
    };
    (key, entry)
}

/// The fixture's inserts, in the order the parent made them.
fn inserts() -> Vec<(RequestKey, Entry)> {
    vec![
        insert(
            "survival",
            1,
            bernoulli(100, 8),
            vec![prefix(4, bernoulli(50, 4)), prefix(8, bernoulli(100, 8))],
        ),
        insert("rb", 2, mean(4), vec![prefix(4, mean(4))]),
        insert(
            "survival",
            3,
            bernoulli(300, 16),
            vec![
                prefix(4, bernoulli(70, 4)),
                prefix(8, bernoulli(150, 8)),
                prefix(16, bernoulli(300, 16)),
            ],
        ),
        insert(
            "survival",
            1,
            bernoulli(101, 8),
            vec![prefix(4, bernoulli(51, 4)), prefix(8, bernoulli(101, 8))],
        ),
    ]
}

/// A private copy of the fixture (opening a store may write to it).
fn fixture_copy() -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent-cache");
    let dir = std::env::temp_dir().join(format!("mmr-store-parent-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in std::fs::read_dir(&src).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dir.join(file.file_name())).unwrap();
    }
    dir
}

#[test]
fn a_rolled_directory_with_an_index_loads_whole() {
    let dir = fixture_copy();
    let segments: Vec<String> = [
        "seg-00000000.mmrs",
        "seg-00000001.mmrs",
        "seg-00000002.mmrs",
    ]
    .map(String::from)
    .to_vec();
    let index = std::fs::read_to_string(dir.join("index.mmri")).unwrap();
    assert!(
        segments.iter().all(|s| index.contains(s.as_str())),
        "the fixture is the rolled layout: {index}"
    );

    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().errors, 0);
    assert_eq!(store.stats().torn_tails, 0);
    assert_eq!(store.len(), 3, "three distinct requests");

    // Every key hits with the entry the parent stored last for it: the
    // twice-inserted request with its second record.
    let inserts = inserts();
    for (key, entry) in &inserts[1..] {
        assert_eq!(
            store.lookup(key),
            Lookup::Hit(entry.clone()),
            "{}",
            key.canon()
        );
    }
    assert_eq!(inserts[0].0, inserts[3].0);
    assert_ne!(inserts[0].1, inserts[3].1);

    // A larger request extends from the cached prefixes.
    let grown = spec("survival", 3).request(32 * CW);
    match store.lookup(&grown) {
        Lookup::Extend(prefixes) => assert_eq!(prefixes, inserts[2].1.prefixes),
        other => panic!("expected an extension, got {other:?}"),
    }
    let grown = spec("survival", 1).request(12 * CW);
    match store.lookup(&grown) {
        Lookup::Extend(prefixes) => assert_eq!(prefixes, inserts[3].1.prefixes),
        other => panic!("expected an extension, got {other:?}"),
    }
    assert_eq!(
        (
            store.stats().hits,
            store.stats().extends,
            store.stats().misses
        ),
        (3, 2, 0)
    );

    // New records go to the newest segment; the index is left as it was.
    let key = spec("survival", 4).request(4 * CW);
    store.insert(&key, inserts[0].1.report.clone(), vec![]);
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert!(matches!(store.lookup(&key), Lookup::Hit(_)));
    assert_eq!(store.len(), 4);
    assert!(
        std::fs::metadata(dir.join("seg-00000002.mmrs"))
            .unwrap()
            .len()
            > 0
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("index.mmri")).unwrap(),
        index
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("seg-"))
        .collect();
    names.sort();
    assert_eq!(names, segments, "no segment is added or removed");

    // The index is not read: a corrupt one is no fault.
    std::fs::write(dir.join("index.mmri"), "not json at all").unwrap();
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().errors, 0);
    assert_eq!(store.len(), 4);
    assert_eq!(
        std::fs::read_to_string(dir.join("index.mmri")).unwrap(),
        "not json at all"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
