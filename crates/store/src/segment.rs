//! The on-disk cache file: one append-only CRC-framed segment.
//!
//! Segments are CRC-framed, one record per line, in the workspace's one
//! framed-log codec ([`obs::frame::SEGMENT`], which the flight log's
//! `MMRE` lines share):
//!
//! ```text
//! MMRS <version> <kind> <crc32-8hex> <compact-json>\n
//! ```
//!
//! with the CRC-32 covering `"<version> <kind> <compact-json>"`. Each
//! `put` record carries a [`crate::Entry`] wrapped with its 32-hex
//! content address; later records for the same key win.
//!
//! A store appends to one file, the newest `seg-*.mmrs` in its directory.
//! Directories written while the store rolled segments hold several;
//! [`SegmentFile::open`] reads them all in generation (name) order. The
//! segment list those builds kept beside them is neither read nor
//! deleted.
//!
//! Cache data is *disposable*. A torn tail is truncated (normal crash recovery,
//! not an error); a file that is not a segment at all is skipped whole
//! with `mc.cache.errors` counted; and a CRC-valid record whose JSON fails
//! to parse is *skipped* and counted, not fatal — losing a cache record
//! costs a recompute, never correctness.

use crate::acc::Entry;
use obs::frame::SEGMENT;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Segment format version written by this build.
pub const VERSION: u32 = 1;

/// The frame head of a `put` record of this [`VERSION`].
const PUT_HEAD: &str = "1 put";

/// One framed cache record: the content address plus the entry it names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PutRecord {
    /// 32-hex content address ([`crate::KeyHash::hex`]).
    key: String,
    /// The cached entry.
    entry: Entry,
}

/// What scanning one segment file recovered.
struct SegScan {
    /// Byte length of the valid prefix (everything past it is torn).
    good_len: u64,
    /// True when bytes past `good_len` had to be discarded.
    torn: bool,
    /// CRC-valid current-version records whose JSON would not parse.
    bad_records: u64,
    records: Vec<(String, Entry)>,
}

/// Scans segment bytes, keeping the longest framed prefix
/// ([`obs::frame::Format::scan`]). CRC-valid records of unknown version
/// or kind are skipped silently; CRC-valid `put` records with unparseable
/// JSON are skipped and counted.
fn scan(bytes: &[u8]) -> SegScan {
    let scan = SEGMENT.scan(bytes);
    let mut records = Vec::new();
    let mut bad_records = 0;
    for frame in scan.frames {
        let current_put = frame
            .head
            .split_once(' ')
            .is_some_and(|(version, kind)| version.parse::<u32>() == Ok(VERSION) && kind == "put");
        if !current_put {
            continue;
        }
        match serde_json::from_str::<PutRecord>(frame.json) {
            Ok(rec) => records.push((rec.key, rec.entry)),
            // The frame vouched for the bytes but the schema moved on
            // (or a bug wrote nonsense). Cache records are disposable:
            // drop this one, keep the rest.
            Err(_) => bad_records += 1,
        }
    }
    SegScan {
        good_len: scan.valid_len as u64,
        torn: scan.torn,
        bad_records,
        records,
    }
}

/// Counters a [`SegmentFile::open`] accumulated while recovering.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OpenFaults {
    /// Survivable faults: garbage files skipped, bad records dropped,
    /// unreadable segments.
    pub errors: u64,
    /// Torn tails truncated back to their valid prefix.
    pub torn_tails: u64,
}

/// What [`SegmentFile::open`] recovers from a cache directory.
pub(crate) struct Opened {
    /// The file later records are appended to.
    pub file: SegmentFile,
    /// Every valid `(key, entry)` record, in the order it was written;
    /// a later record of a key supersedes an earlier one.
    pub records: Vec<(String, Entry)>,
    /// The fault counts recovery accumulated.
    pub faults: OpenFaults,
}

/// The one append-only segment file a disk-backed store writes.
pub(crate) struct SegmentFile {
    path: PathBuf,
    file: File,
    /// Records scanned at open plus records appended since (the chaos
    /// seam's record numbering).
    records: u64,
}

impl SegmentFile {
    /// Opens (or creates) the segment file in `dir`, recovering every
    /// valid record previous processes left behind in any `seg-*.mmrs`.
    ///
    /// # Errors
    ///
    /// Any I/O error that prevents the directory from being read or the
    /// segment from being opened for appending — an unusable directory
    /// degrades the whole store to miss-through at the call site.
    pub fn open(dir: &Path) -> std::io::Result<Opened> {
        std::fs::create_dir_all(dir)?;
        let mut faults = OpenFaults::default();
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("seg-") && n.ends_with(".mmrs"))
            .collect();
        names.sort();

        let mut records = Vec::new();
        let mut newest: Option<&String> = None;
        for name in &names {
            let path = dir.join(name);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(_) => {
                    faults.errors += 1;
                    obs::info!("cache {}: unreadable segment, skipping", path.display());
                    continue;
                }
            };
            if !bytes.is_empty() && !bytes.starts_with(SEGMENT.tag.as_bytes()) {
                // Not a segment at all — someone else's file. Skip it
                // whole; never delete what we did not write.
                faults.errors += 1;
                obs::info!(
                    "cache {}: not an {} segment, skipping the file",
                    path.display(),
                    SEGMENT.tag
                );
                continue;
            }
            let scan = scan(&bytes);
            if scan.torn {
                faults.torn_tails += 1;
                obs::info!(
                    "cache {}: truncated torn tail ({} of {} bytes kept)",
                    path.display(),
                    scan.good_len,
                    bytes.len()
                );
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.good_len)?;
            }
            faults.errors += scan.bad_records;
            records.extend(scan.records);
            newest = Some(name);
        }

        // Append to the newest segment, or start one under a name no
        // skipped file holds. Opening it is also the writability probe
        // that makes an unwritable directory fail open() instead of
        // failing mid-run.
        let name = newest.cloned().unwrap_or_else(|| {
            (0u64..)
                .map(|gen| format!("seg-{gen:08}.mmrs"))
                .find(|n| !names.contains(n))
                .expect("some generation is free")
        });
        let path = dir.join(name);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let file = SegmentFile {
            path,
            file,
            records: records.len() as u64,
        };
        Ok(Opened {
            file,
            records,
            faults,
        })
    }

    /// Durably appends one record. Returns how many torn tails were
    /// truncated on the way (0 or 1).
    ///
    /// Under an installed chaos plan this record's write may be torn: a
    /// partial frame is flushed first, then the real recovery path
    /// (rescan, truncate) runs before the full record lands.
    ///
    /// # Errors
    ///
    /// I/O failure on the append path; previously-written records are
    /// unaffected, and the caller degrades to memory-only.
    pub fn append(&mut self, key_hex: &str, entry: &Entry) -> std::io::Result<u64> {
        let json = serde_json::to_string(&PutRecord {
            key: key_hex.to_string(),
            entry: entry.clone(),
        })
        .expect("Entry serialization is infallible");
        let line = SEGMENT.encode(PUT_HEAD, &json);
        let record_no = self.records;
        let mut torn_tails = 0u64;
        if let Some(plan) = montecarlo::fault::active() {
            if plan.torn_write(record_no) {
                montecarlo::fault::ledger().note_injected_torn_write();
                let partial = &line.as_bytes()[..line.len() * 2 / 3];
                self.file.write_all(partial)?;
                let _ = self.file.sync_data();
                torn_tails += self.recover_torn_tail()?;
            }
        }
        self.file.write_all(line.as_bytes())?;
        let _ = self.file.sync_data();
        self.records = record_no + 1;
        Ok(torn_tails)
    }

    /// Re-scans the segment and truncates any invalid tail — the
    /// recovery [`open`](SegmentFile::open) performs, run in-process after
    /// an injected torn write. Returns how many tails were truncated (0/1).
    fn recover_torn_tail(&mut self) -> std::io::Result<u64> {
        let bytes = std::fs::read(&self.path)?;
        let scan = scan(&bytes);
        if scan.torn {
            self.file.set_len(scan.good_len)?;
            obs::info!(
                "cache {}: truncated torn tail ({} of {} bytes kept)",
                self.path.display(),
                scan.good_len,
                bytes.len()
            );
            return Ok(1);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::{AccState, BernoulliState, CachedReport};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmr-store-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(tag: u64) -> Entry {
        Entry {
            canon: format!("mmrk1|test|trials={tag}|rse=-"),
            family: "mmrk1|test".into(),
            report: CachedReport {
                value: AccState::Bernoulli(BernoulliState {
                    successes: tag,
                    trials: tag * 2,
                }),
                trials_requested: tag * 2,
                trials_completed: tag * 2,
            },
            prefixes: Vec::new(),
        }
    }

    fn record(key: &str, tag: u64) -> (String, Entry) {
        (key.to_string(), entry(tag))
    }

    #[test]
    fn put_get_roundtrips_across_reopens() {
        let dir = tmp_dir("roundtrip");
        {
            let opened = SegmentFile::open(&dir).unwrap();
            assert!(opened.records.is_empty());
            assert_eq!(opened.faults.errors, 0);
            let mut file = opened.file;
            file.append("k1", &entry(1)).unwrap();
            file.append("k2", &entry(2)).unwrap();
        }
        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.errors, 0);
        assert_eq!(opened.records, vec![record("k1", 1), record("k2", 2)]);
        assert_eq!(opened.file.records, 2, "the chaos numbering resumes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = tmp_dir("torn");
        let (seg_path, intact) = {
            let mut file = SegmentFile::open(&dir).unwrap().file;
            file.append("k1", &entry(1)).unwrap();
            let path = dir.join("seg-00000000.mmrs");
            (path.clone(), std::fs::read(&path).unwrap())
        };
        let mut bytes = intact.clone();
        bytes.extend_from_slice(&b"MMRS 1 put 00000000 {\"key\":\"half"[..]);
        std::fs::write(&seg_path, &bytes).unwrap();

        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.torn_tails, 1);
        assert_eq!(
            opened.faults.errors, 0,
            "a torn tail is recovery, not an error"
        );
        assert_eq!(opened.records, vec![record("k1", 1)]);
        assert_eq!(std::fs::read(&seg_path).unwrap(), intact);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_segment_is_skipped_not_fatal() {
        let dir = tmp_dir("garbage");
        {
            let mut file = SegmentFile::open(&dir).unwrap().file;
            file.append("k1", &entry(1)).unwrap();
        }
        // A file the next open scans (it sorts after seg-00000000) that is
        // not a segment at all.
        let garbage = dir.join("seg-00000007.mmrs");
        std::fs::write(&garbage, "definitely not a segment\n").unwrap();

        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.errors, 1, "the garbage file is counted");
        assert_eq!(
            opened.records,
            vec![record("k1", 1)],
            "the real segment still serves"
        );
        let mut file = opened.file;
        file.append("k2", &entry(2)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&garbage).unwrap(),
            "definitely not a segment\n",
            "files we did not write are never touched"
        );
        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.records, vec![record("k1", 1), record("k2", 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_of_garbage_gets_a_fresh_segment() {
        let dir = tmp_dir("garbage-only");
        let garbage = dir.join("seg-00000000.mmrs");
        std::fs::write(&garbage, "definitely not a segment\n").unwrap();
        {
            let opened = SegmentFile::open(&dir).unwrap();
            assert_eq!(opened.faults.errors, 1);
            assert!(opened.records.is_empty());
            let mut file = opened.file;
            file.append("k1", &entry(1)).unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&garbage).unwrap(),
            "definitely not a segment\n",
            "the record went to a new file"
        );
        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.errors, 1);
        assert_eq!(opened.records, vec![record("k1", 1)]);
        assert!(dir.join("seg-00000001.mmrs").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_json_in_a_valid_frame_is_skipped_and_counted() {
        let dir = tmp_dir("badjson");
        {
            let mut file = SegmentFile::open(&dir).unwrap().file;
            file.append("k1", &entry(1)).unwrap();
        }
        let path = dir.join("seg-00000000.mmrs");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(
            SEGMENT
                .encode(PUT_HEAD, "{\"not\":\"a put record\"}")
                .as_bytes(),
        );
        std::fs::write(&path, &bytes).unwrap();

        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.errors, 1);
        assert_eq!(opened.faults.torn_tails, 0);
        assert_eq!(opened.records, vec![record("k1", 1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_and_kind_are_tolerated_silently() {
        let dir = tmp_dir("mixed");
        {
            let mut file = SegmentFile::open(&dir).unwrap().file;
            file.append("k1", &entry(1)).unwrap();
        }
        let path = dir.join("seg-00000000.mmrs");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(SEGMENT.encode("99 put", "{\"whatever\":true}").as_bytes());
        bytes.extend_from_slice(SEGMENT.encode("1 note", "{\"free\":\"form\"}").as_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let opened = SegmentFile::open(&dir).unwrap();
        assert_eq!(opened.faults.errors, 0);
        assert_eq!(opened.faults.torn_tails, 0);
        assert_eq!(opened.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
