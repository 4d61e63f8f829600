//! The interoperable export of a [`Snapshot`](crate::Snapshot): Chrome
//! trace-event JSON ([`chrome_trace`]) for Perfetto / `chrome://tracing`
//! (`--trace FILE`). The metrics themselves are exported as the
//! snapshot's own JSON (`--metrics FILE`).
//!
//! The exporter is a pure function of snapshot data — no sockets, no
//! background threads, no new dependencies.

mod chrome;

pub use chrome::chrome_trace;

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain.name"), "plain.name");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }
}
