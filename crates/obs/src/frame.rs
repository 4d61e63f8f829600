//! The one CRC-framed line codec: the flight recorder's `MMRE` mirror and
//! the result cache's `MMRS` segments are both written by
//! [`Format::encode`] and read by [`Format::scan`].
//!
//! A frame is one line,
//!
//! ```text
//! TAG <head> <crc:08x> <json>\n
//! ```
//!
//! whose CRC-32 ([`crc32`]) covers `"<head> <json>"`. The head is the
//! frame version plus whatever else a format keys frames by: `1` in a
//! flight log ([`FLIGHT`]), `1 put` in a cache segment ([`SEGMENT`]).
//! The scanner keeps the longest prefix of CRC-valid frames; what a valid
//! frame with an unknown head or unparseable JSON means is the reader's
//! policy (a flight log skips the one and truncates at the other, a
//! segment skips both and counts the second).

/// One framed-log format: the tag that opens each line and how many
/// space-separated fields its head has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The tag opening every line.
    pub tag: &'static str,
    /// Space-separated fields in the head (version, then any key).
    pub head_fields: usize,
}

/// The flight-event log (`MMRE <version> <crc> <json>`).
pub const FLIGHT: Format = Format {
    tag: "MMRE",
    head_fields: 1,
};

/// A result-cache segment (`MMRS <version> <kind> <crc> <json>`).
pub const SEGMENT: Format = Format {
    tag: "MMRS",
    head_fields: 2,
};

/// One CRC-valid frame of a scanned log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Byte offset of the line in the log.
    pub offset: usize,
    /// Byte length of the line, newline included.
    pub len: usize,
    /// The head, as written (`1`, `1 put`).
    pub head: &'a str,
    /// The JSON payload.
    pub json: &'a str,
}

/// What [`Format::scan`] recovered from a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan<'a> {
    /// The frames of the longest valid prefix, in log order.
    pub frames: Vec<Frame<'a>>,
    /// Byte length of that prefix.
    pub valid_len: usize,
    /// Whether bytes past it were left unread: an unterminated,
    /// non-UTF-8, unframed or CRC-failing line ends the scan.
    pub torn: bool,
}

impl Format {
    /// Frames one JSON payload as a line (with its trailing newline).
    #[must_use]
    pub fn encode(self, head: &str, json: &str) -> String {
        let crc = crc32(format!("{head} {json}").as_bytes());
        format!("{} {head} {crc:08x} {json}\n", self.tag)
    }

    /// Scans a log for its longest prefix of CRC-valid frames.
    #[must_use]
    pub fn scan(self, bytes: &[u8]) -> Scan<'_> {
        let mut frames = Vec::new();
        let mut offset = 0;
        while let Some(frame) = self.frame_at(bytes, offset) {
            offset += frame.len;
            frames.push(frame);
        }
        Scan {
            frames,
            valid_len: offset,
            torn: offset < bytes.len(),
        }
    }

    /// The frame on the line starting at `offset`, if it is one.
    fn frame_at(self, bytes: &[u8], offset: usize) -> Option<Frame<'_>> {
        let rest = bytes.get(offset..).filter(|r| !r.is_empty())?;
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&rest[..nl]).ok()?;
        let fields = line.strip_prefix(self.tag)?.strip_prefix(' ')?;
        let mut head_len = 0;
        for _ in 0..self.head_fields {
            head_len += fields[head_len..].find(' ')? + 1;
        }
        let head = &fields[..head_len - 1];
        let (crc_hex, json) = fields[head_len..].split_once(' ')?;
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        (crc == crc32(format!("{head} {json}").as_bytes())).then_some(Frame {
            offset,
            len: nl + 1,
            head,
            json,
        })
    }
}

/// CRC-32 (zlib polynomial, reflected, init/xorout `0xFFFFFFFF`), so any
/// standard tool can check either log.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encodings_are_the_two_line_layouts() {
        let json = "{\"a\":1}";
        let crc = crc32(b"1 {\"a\":1}");
        assert_eq!(
            FLIGHT.encode("1", json),
            format!("MMRE 1 {crc:08x} {json}\n")
        );
        let crc = crc32(b"1 put {\"a\":1}");
        assert_eq!(
            SEGMENT.encode("1 put", json),
            format!("MMRS 1 put {crc:08x} {json}\n")
        );
        // A foreign tag never frames, nor does a head short of fields.
        assert!(SEGMENT.scan(FLIGHT.encode("1", json).as_bytes()).torn);
        assert!(FLIGHT.scan(SEGMENT.encode("1 put", json).as_bytes()).torn);
        assert!(SEGMENT.scan(SEGMENT.encode("1", json).as_bytes()).torn);
    }

    /// splitmix64: a seeded stream for the torn-tail sweep.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn every_prefix_keeps_its_complete_frames_and_a_flip_truncates() {
        for (format, head) in [(FLIGHT, "1"), (SEGMENT, "1 put")] {
            let mut state = 0x5EED_u64 + format.head_fields as u64;
            let mut log = Vec::new();
            let mut ends = Vec::new();
            for i in 0..12 {
                let word = next(&mut state);
                let json = format!(
                    "{{\"i\":{i},\"w\":{word},\"s\":\"{}\"}}",
                    "x y ".repeat((word % 7) as usize)
                );
                log.extend_from_slice(format.encode(head, &json).as_bytes());
                ends.push(log.len());
            }
            let whole = format.scan(&log);
            assert!(!whole.torn);
            assert_eq!(whole.frames.len(), ends.len());
            assert!(whole.frames.iter().all(|f| f.head == head));
            // Every prefix keeps exactly the frames that end inside it.
            for cut in 0..=log.len() {
                let scan = format.scan(&log[..cut]);
                let complete = ends.iter().filter(|&&end| end <= cut).count();
                assert_eq!(scan.frames.len(), complete, "{} cut {cut}", format.tag);
                let valid = if complete == 0 { 0 } else { ends[complete - 1] };
                assert_eq!(scan.valid_len, valid);
                assert_eq!(scan.torn, cut != valid);
                assert_eq!(&scan.frames[..], &whole.frames[..complete]);
            }
            // A flipped byte truncates at or before the frame holding it.
            // (No 0x20 mask: it would only change a hex digit's case.)
            const MASKS: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x40, 0x80];
            for _ in 0..400 {
                let at = (next(&mut state) % log.len() as u64) as usize;
                let mask = MASKS[(next(&mut state) % MASKS.len() as u64) as usize];
                let mut flipped = log.clone();
                flipped[at] ^= mask;
                let holder = ends.iter().position(|&end| at < end).unwrap();
                let scan = format.scan(&flipped);
                assert!(scan.torn, "{} byte {at} ^ {mask:#x}", format.tag);
                assert!(scan.frames.len() <= holder);
            }
        }
    }
}
