//! The on-disk cache tier: append-only CRC-framed segments plus an
//! atomically-rewritten index.
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
//! content address; later records for the same key win. The index file
//! (`index.mmri`) lists the live segments in order and is only ever
//! replaced atomically (tmp + rename), so a crash mid-compaction leaves
//! either the old or the new view, never a mix.
//!
//! Cache data is *disposable*. A torn tail is truncated (normal crash recovery,
//! not an error); a file that is not a segment at all is skipped whole
//! with `mc.cache.errors` counted; and a CRC-valid record whose JSON fails
//! to parse is *skipped* and counted, not fatal — losing a cache record
//! costs a recompute, never correctness.

use crate::acc::Entry;
use obs::frame::SEGMENT;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Segment format version written by this build.
pub const VERSION: u32 = 1;

/// The frame head of a `put` record of this [`VERSION`].
const PUT_HEAD: &str = "1 put";

/// Default byte length at which the current segment is rolled.
pub(crate) const DEFAULT_ROLL_BYTES: u64 = 4 << 20;

/// One framed cache record: the content address plus the entry it names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PutRecord {
    /// 32-hex content address ([`crate::KeyHash::hex`]).
    key: String,
    /// The cached entry.
    entry: Entry,
}

/// Where a live record lives on disk.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg: usize,
    offset: u64,
    len: u64,
}

/// One record recovered by a segment scan.
struct ScannedRecord {
    key: String,
    offset: u64,
    len: u64,
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
    records: Vec<ScannedRecord>,
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
            Ok(rec) => records.push(ScannedRecord {
                key: rec.key,
                offset: frame.offset as u64,
                len: frame.len as u64,
                entry: rec.entry,
            }),
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

/// Parses one framed line back into its record. `None` on any mismatch —
/// the caller treats that as a (counted) cache fault and recomputes.
fn parse_record(bytes: &[u8]) -> Option<(String, Entry)> {
    let scan = scan(bytes);
    let rec = scan.records.into_iter().next()?;
    Some((rec.key, rec.entry))
}

/// The segment index file content (`index.mmri`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct IndexFile {
    version: u32,
    segments: Vec<String>,
}

/// Atomically replaces `path` with `contents` (tmp + rename in the same
/// directory, so the swap is a single metadata operation).
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Counters a [`DiskTier::open`] accumulated while recovering.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OpenFaults {
    /// Survivable faults: garbage files skipped, bad records dropped,
    /// unreadable segments.
    pub errors: u64,
    /// Torn tails truncated back to their valid prefix.
    pub torn_tails: u64,
}

/// What [`DiskTier::open`] recovers from a cache directory: the tier
/// itself, the live `(key, entry)` records in last-write-wins order, and
/// the fault counters accumulated while recovering.
pub(crate) type Opened = (DiskTier, Vec<(String, Entry)>, OpenFaults);

/// The append-only on-disk tier.
pub(crate) struct DiskTier {
    dir: PathBuf,
    /// Live segment file names, index order; the last one is current.
    segments: Vec<String>,
    current: File,
    current_len: u64,
    roll_bytes: u64,
    next_gen: u64,
    index: HashMap<String, RecordLoc>,
    /// All records in live segments, including superseded ones.
    total_records: u64,
    /// Records appended through this handle (chaos record numbering).
    records_written: u64,
}

impl DiskTier {
    /// Segment file name for a generation number.
    fn seg_name(gen: u64) -> String {
        format!("seg-{gen:08}.mmrs")
    }

    /// Opens (or creates) the tier at `dir`, recovering every valid
    /// record previous processes left behind.
    ///
    /// Returns the tier, the *live* entries (later records win) for the
    /// caller's in-memory indexes, and the fault counts recovery
    /// accumulated. Compacts in place when superseded records outnumber
    /// live ones.
    ///
    /// # Errors
    ///
    /// Any I/O error that prevents the tier from being writable — an
    /// unwritable or uncreatable directory degrades the whole store to
    /// miss-through at the call site.
    pub fn open(dir: &Path, roll_bytes: u64) -> std::io::Result<Opened> {
        std::fs::create_dir_all(dir)?;
        let mut faults = OpenFaults::default();

        // Segment list: the index file when it parses, else whatever
        // segment files are actually present (sorted, so generation
        // order), with a parse failure counted as a survivable fault.
        let index_path = dir.join("index.mmri");
        let listed: Option<Vec<String>> = match std::fs::read_to_string(&index_path) {
            Ok(text) => match serde_json::from_str::<IndexFile>(&text) {
                Ok(idx) if idx.version == VERSION => Some(idx.segments),
                _ => {
                    faults.errors += 1;
                    obs::info!(
                        "cache {}: unreadable index.mmri, falling back to directory scan",
                        dir.display()
                    );
                    None
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(_) => {
                faults.errors += 1;
                None
            }
        };
        let mut segments = listed.unwrap_or_else(|| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .map(|rd| {
                    rd.filter_map(Result::ok)
                        .filter_map(|e| e.file_name().into_string().ok())
                        .filter(|n| n.starts_with("seg-") && n.ends_with(".mmrs"))
                        .collect()
                })
                .unwrap_or_default();
            names.sort();
            names
        });

        // Scan every listed segment, building the later-wins record map.
        let mut index: HashMap<String, RecordLoc> = HashMap::new();
        let mut entries: HashMap<String, Entry> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut total_records = 0u64;
        let mut live_names: Vec<String> = Vec::new();
        for name in &segments {
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
            let seg_idx = live_names.len();
            for rec in scan.records {
                total_records += 1;
                if entries.insert(rec.key.clone(), rec.entry).is_none() {
                    order.push(rec.key.clone());
                }
                index.insert(
                    rec.key,
                    RecordLoc {
                        seg: seg_idx,
                        offset: rec.offset,
                        len: rec.len,
                    },
                );
            }
            live_names.push(name.clone());
        }
        segments = live_names;

        let next_gen = segments
            .iter()
            .filter_map(|n| n[4..12].parse::<u64>().ok())
            .max()
            .map_or(0, |g| g + 1);

        // Ensure there is a writable current segment; this is also the
        // writability probe that makes an unreadable/unwritable directory
        // fail open() instead of failing mid-run.
        let (current_name, created) = match segments.last() {
            Some(name) => (name.clone(), false),
            None => (Self::seg_name(0), true),
        };
        let current_path = dir.join(&current_name);
        let current = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&current_path)?;
        let current_len = current.metadata()?.len();
        if created {
            segments.push(current_name);
        }

        let mut tier = DiskTier {
            dir: dir.to_path_buf(),
            segments,
            current,
            current_len,
            roll_bytes,
            next_gen: next_gen.max(1),
            index,
            total_records,
            records_written: total_records,
        };
        tier.write_index()?;

        let live: Vec<(String, Entry)> = order
            .into_iter()
            .map(|k| {
                let e = entries.remove(&k).expect("order tracks entries");
                (k, e)
            })
            .collect();

        // Compact when most of the bytes are superseded history.
        let live_count = live.len() as u64;
        if tier.total_records >= 8 && tier.total_records > 2 * live_count {
            tier.compact(&live)?;
        }
        Ok((tier, live, faults))
    }

    /// Rewrites the index file atomically to the current segment list.
    fn write_index(&self) -> std::io::Result<()> {
        let idx = IndexFile {
            version: VERSION,
            segments: self.segments.clone(),
        };
        let json = serde_json::to_string(&idx).expect("IndexFile serialization is infallible");
        write_atomic(&self.dir.join("index.mmri"), &json)
    }

    /// Reads one live record back. `None` (never an error) on any
    /// mismatch — a cache fault costs a recompute, not a failure.
    pub fn get(&self, key_hex: &str) -> Option<Entry> {
        let loc = self.index.get(key_hex)?;
        let path = self.dir.join(self.segments.get(loc.seg)?);
        let bytes = std::fs::read(path).ok()?;
        let end = usize::try_from(loc.offset + loc.len).ok()?;
        let start = usize::try_from(loc.offset).ok()?;
        let (key, entry) = parse_record(bytes.get(start..end)?)?;
        (key == key_hex).then_some(entry)
    }

    /// Durably appends one record, rolling the segment when it outgrows
    /// the roll threshold.
    ///
    /// Under an installed chaos plan this record's write may be torn: a
    /// partial frame is flushed first, then the real recovery path
    /// (rescan, truncate) runs before the full record lands.
    ///
    /// # Errors
    ///
    /// I/O failure on the append path; previously-written records are
    /// unaffected, and the caller degrades to memory-only.
    pub fn put(&mut self, key_hex: &str, entry: &Entry) -> std::io::Result<u64> {
        let json = serde_json::to_string(&PutRecord {
            key: key_hex.to_string(),
            entry: entry.clone(),
        })
        .expect("Entry serialization is infallible");
        let line = SEGMENT.encode(PUT_HEAD, &json);
        let record_no = self.records_written;
        let mut torn_tails = 0u64;
        if let Some(plan) = montecarlo::fault::active() {
            if plan.torn_write(record_no) {
                montecarlo::fault::ledger().note_injected_torn_write();
                let partial = &line.as_bytes()[..line.len() * 2 / 3];
                self.current.write_all(partial)?;
                let _ = self.current.sync_data();
                torn_tails += self.recover_torn_tail()?;
            }
        }
        let offset = self.current_len;
        self.current.write_all(line.as_bytes())?;
        let _ = self.current.sync_data();
        self.current_len += line.len() as u64;
        self.index.insert(
            key_hex.to_string(),
            RecordLoc {
                seg: self.segments.len() - 1,
                offset,
                len: line.len() as u64,
            },
        );
        self.total_records += 1;
        self.records_written = record_no + 1;
        if self.current_len >= self.roll_bytes {
            self.roll()?;
        }
        Ok(torn_tails)
    }

    /// Re-scans the current segment and truncates any invalid tail — the
    /// recovery [`open`](DiskTier::open) performs, run in-process after an
    /// injected torn write. Returns how many tails were truncated (0/1).
    fn recover_torn_tail(&mut self) -> std::io::Result<u64> {
        let path = self
            .dir
            .join(self.segments.last().expect("a current segment exists"));
        let bytes = std::fs::read(&path)?;
        let scan = scan(&bytes);
        if scan.torn {
            self.current.set_len(scan.good_len)?;
            self.current_len = scan.good_len;
            obs::info!(
                "cache {}: truncated torn tail ({} of {} bytes kept)",
                path.display(),
                scan.good_len,
                bytes.len()
            );
            return Ok(1);
        }
        Ok(0)
    }

    /// Starts a fresh current segment and rewrites the index.
    fn roll(&mut self) -> std::io::Result<()> {
        let name = Self::seg_name(self.next_gen);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(&name))?;
        self.next_gen += 1;
        self.segments.push(name);
        self.current = file;
        self.current_len = 0;
        self.write_index()
    }

    /// Rewrites the given live records into one fresh segment, swaps the
    /// index atomically, then best-effort deletes the superseded files.
    /// A crash at any point leaves a readable view: old index + old
    /// segments, or new index + new segment.
    pub fn compact(&mut self, live: &[(String, Entry)]) -> std::io::Result<()> {
        let name = Self::seg_name(self.next_gen);
        let path = self.dir.join(&name);
        let mut content = String::new();
        let mut index = HashMap::new();
        for (key, entry) in live {
            let json = serde_json::to_string(&PutRecord {
                key: key.clone(),
                entry: entry.clone(),
            })
            .expect("Entry serialization is infallible");
            let line = SEGMENT.encode(PUT_HEAD, &json);
            index.insert(
                key.clone(),
                RecordLoc {
                    seg: 0,
                    offset: content.len() as u64,
                    len: line.len() as u64,
                },
            );
            content.push_str(&line);
        }
        write_atomic(&path, &content)?;
        let old: Vec<String> = std::mem::replace(&mut self.segments, vec![name]);
        self.next_gen += 1;
        self.current_len = content.len() as u64;
        self.current = OpenOptions::new().append(true).open(&path)?;
        self.index = index;
        self.total_records = live.len() as u64;
        self.write_index()?;
        for name in old {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        Ok(())
    }

    /// Live record count (distinct keys).
    pub fn live_records(&self) -> u64 {
        self.index.len() as u64
    }

    /// All records ever appended to the live segments, including
    /// superseded ones — the compaction trigger's numerator.
    #[cfg(test)]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The live entries, read back from disk (for explicit compaction).
    pub fn read_live(&self) -> Vec<(String, Entry)> {
        let mut out = Vec::with_capacity(self.index.len());
        let mut keys: Vec<&String> = self.index.keys().collect();
        keys.sort();
        for key in keys {
            if let Some(entry) = self.get(key) {
                out.push((key.clone(), entry));
            }
        }
        out
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

    #[test]
    fn put_get_roundtrips_across_reopens() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            assert!(live.is_empty());
            assert_eq!(faults.errors, 0);
            t.put("k1", &entry(1)).unwrap();
            t.put("k2", &entry(2)).unwrap();
            assert_eq!(t.get("k1"), Some(entry(1)));
        }
        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 0);
        assert_eq!(live.len(), 2);
        assert_eq!(t.get("k2"), Some(entry(2)));
        assert_eq!(t.get("nope"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_records_win_and_compaction_keeps_them() {
        let dir = tmp_dir("laterwins");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            for v in 1..=9 {
                t.put("k", &entry(v)).unwrap();
            }
            assert_eq!(t.total_records(), 9);
            assert_eq!(t.live_records(), 1);
        }
        // 9 records, 1 live: the open-time compactor fires.
        let (t, live, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(live, vec![("k".to_string(), entry(9))]);
        assert_eq!(t.total_records(), 1, "compacted away the history");
        assert_eq!(t.get("k"), Some(entry(9)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = tmp_dir("torn");
        let (seg_path, intact) = {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
            let path = dir.join("seg-00000000.mmrs");
            (path.clone(), std::fs::read(&path).unwrap())
        };
        let mut bytes = intact.clone();
        bytes.extend_from_slice(&b"MMRS 1 put 00000000 {\"key\":\"half"[..]);
        std::fs::write(&seg_path, &bytes).unwrap();

        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.torn_tails, 1);
        assert_eq!(faults.errors, 0, "a torn tail is recovery, not an error");
        assert_eq!(live.len(), 1);
        assert_eq!(t.get("k1"), Some(entry(1)));
        assert_eq!(std::fs::read(&seg_path).unwrap(), intact);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_segment_is_skipped_not_fatal() {
        let dir = tmp_dir("garbage");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
        }
        // A file the index will list next open (sorts after seg-00000000)
        // that is not a segment at all.
        std::fs::write(dir.join("seg-00000007.mmrs"), "definitely not a segment\n").unwrap();
        let idx = IndexFile {
            version: VERSION,
            segments: vec!["seg-00000000.mmrs".into(), "seg-00000007.mmrs".into()],
        };
        write_atomic(
            &dir.join("index.mmri"),
            &serde_json::to_string(&idx).unwrap(),
        )
        .unwrap();

        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 1, "the garbage file is counted");
        assert_eq!(live.len(), 1, "the real segment still serves");
        assert_eq!(t.get("k1"), Some(entry(1)));
        assert!(
            dir.join("seg-00000007.mmrs").exists(),
            "files we did not write are never deleted"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_json_in_a_valid_frame_is_skipped_and_counted() {
        let dir = tmp_dir("badjson");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
        }
        let path = dir.join("seg-00000000.mmrs");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(
            SEGMENT
                .encode(PUT_HEAD, "{\"not\":\"a put record\"}")
                .as_bytes(),
        );
        std::fs::write(&path, &bytes).unwrap();

        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 1);
        assert_eq!(faults.torn_tails, 0);
        assert_eq!(live.len(), 1);
        assert_eq!(t.get("k1"), Some(entry(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_and_kind_are_tolerated_silently() {
        let dir = tmp_dir("mixed");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
        }
        let path = dir.join("seg-00000000.mmrs");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(SEGMENT.encode("99 put", "{\"whatever\":true}").as_bytes());
        bytes.extend_from_slice(SEGMENT.encode("1 note", "{\"free\":\"form\"}").as_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let (_, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 0);
        assert_eq!(faults.torn_tails, 0);
        assert_eq!(live.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_threshold_and_reopen_sees_all() {
        let dir = tmp_dir("roll");
        {
            // A tiny roll threshold forces a new segment per record.
            let (mut t, _, _) = DiskTier::open(&dir, 64).unwrap();
            for v in 1..=4 {
                t.put(&format!("k{v}"), &entry(v)).unwrap();
            }
            assert!(t.segments.len() >= 4, "rolled into multiple segments");
        }
        let (t, live, faults) = DiskTier::open(&dir, 64).unwrap();
        assert_eq!(faults.errors, 0);
        assert_eq!(live.len(), 4);
        for v in 1..=4u64 {
            assert_eq!(t.get(&format!("k{v}")), Some(entry(v)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_index_falls_back_to_directory_scan() {
        let dir = tmp_dir("noindex");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
        }
        std::fs::remove_file(dir.join("index.mmri")).unwrap();
        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 0, "a missing index is not a fault");
        assert_eq!(live.len(), 1);
        assert_eq!(t.get("k1"), Some(entry(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_index_counts_an_error_but_still_recovers() {
        let dir = tmp_dir("badindex");
        {
            let (mut t, _, _) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
            t.put("k1", &entry(1)).unwrap();
        }
        std::fs::write(dir.join("index.mmri"), "not json at all").unwrap();
        let (t, live, faults) = DiskTier::open(&dir, DEFAULT_ROLL_BYTES).unwrap();
        assert_eq!(faults.errors, 1);
        assert_eq!(live.len(), 1);
        assert_eq!(t.get("k1"), Some(entry(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
