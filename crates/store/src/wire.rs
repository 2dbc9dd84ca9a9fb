//! The shared frame grammar for every chipletqc wire protocol.
//!
//! One frame is a version line (`chipletqc/1 <verb>`), `key = value`
//! header lines, a blank separator line, then any length-prefixed
//! payload bytes the headers announced. The engine's batch-submission
//! protocol (`chipletqc_engine::protocol`) and this crate's store peer
//! protocol ([`remote`](crate::remote)) both speak it; keeping the
//! reader here — under the crate both depend on — means there is
//! exactly one implementation of the grammar, its byte caps, and its
//! error behavior.
//!
//! Everything is `std`-only and defensive: a corrupt or hostile peer
//! can produce errors, never panics or unbounded allocation
//! (`MAX_PAYLOAD`, `MAX_HEAD_LINE`, `MAX_HEADERS`).

// Daemon path: a panic here takes down the warm hub and every queued
// client. (`unwrap_used` comes from the workspace lints.)
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::io::{self, BufRead, Read};

/// The protocol version line prefix; bump on breaking frame changes.
pub const VERSION: &str = "chipletqc/1";

/// Refuse absurd payload sizes before allocating (a corrupt or hostile
/// header must not OOM the daemon). Reports of realistic batches are
/// far below this.
pub const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// Cap on one frame-head line. Header lines are tiny (`only` lists are
/// the longest realistic ones); a peer streaming bytes with no newline
/// must hit this cap, not the daemon's memory.
pub const MAX_HEAD_LINE: usize = 64 * 1024;

/// Cap on the number of frame-head header lines, for the same reason.
pub const MAX_HEADERS: usize = 64;

/// Reads the version line and the `key = value` headers up to the
/// blank separator line, returning the verb and the headers. Payload
/// bytes (if any) remain unread.
pub fn read_frame_head(r: &mut impl BufRead) -> io::Result<(String, Vec<(String, String)>)> {
    let line = read_head_line(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame"))?;
    let mut parts = line.splitn(2, ' ');
    let version = parts.next().unwrap_or("");
    if version != VERSION {
        return Err(bad(format!("unsupported protocol `{version}` (want {VERSION})")));
    }
    let verb = parts.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    loop {
        let line = read_head_line(r)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "frame head truncated")
        })?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} header lines")));
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| bad(format!("expected `key = value`, got `{line}`")))?;
        headers.push((key, value));
    }
    Ok((verb, headers))
}

/// The first value under `key` in a frame head, if any.
pub fn header<'a>(headers: &'a [(String, String)], key: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Reads one newline-terminated frame-head line, capped at
/// [`MAX_HEAD_LINE`] bytes so a peer streaming garbage with no newline
/// cannot grow daemon memory without bound. `None` means EOF before
/// any byte of the line.
pub fn read_head_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut bytes = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if bytes.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "line truncated"));
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(at) => (&buf[..at], true),
            None => (buf, false),
        };
        if bytes.len() + chunk.len() > MAX_HEAD_LINE {
            return Err(bad(format!("frame-head line exceeds the {MAX_HEAD_LINE}-byte cap")));
        }
        bytes.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(done);
        r.consume(consumed);
        if done {
            let line =
                String::from_utf8(bytes).map_err(|_| bad("frame head is not UTF-8".into()))?;
            return Ok(Some(line));
        }
    }
}

/// Reads exactly `len` payload bytes (pre-validated by
/// [`parse_len`], so the allocation is bounded).
pub fn read_bytes(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Reads exactly `len` payload bytes as UTF-8; `what` labels the
/// error.
pub fn read_utf8(r: &mut impl Read, len: usize, what: &str) -> io::Result<String> {
    String::from_utf8(read_bytes(r, len)?).map_err(|_| bad(format!("{what} is not UTF-8")))
}

/// Parses a `*-bytes` header value, refusing anything over
/// [`MAX_PAYLOAD`].
pub fn parse_len(value: &str) -> io::Result<usize> {
    let len: usize = value.parse().map_err(|_| bad(format!("bad byte length {value}")))?;
    if len > MAX_PAYLOAD {
        return Err(bad(format!("payload of {len} bytes exceeds the {MAX_PAYLOAD} cap")));
    }
    Ok(len)
}

/// An `InvalidData` error — the uniform "your frame is malformed"
/// failure every reader returns.
pub fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_heads_parse_verbs_and_headers() {
        let frame = format!("{VERSION} verb-x\na = 1\nb = two words\n\npayload");
        let mut r = io::BufReader::new(frame.as_bytes());
        let (verb, headers) = read_frame_head(&mut r).unwrap();
        assert_eq!(verb, "verb-x");
        assert_eq!(header(&headers, "a"), Some("1"));
        assert_eq!(header(&headers, "b"), Some("two words"));
        assert_eq!(header(&headers, "c"), None);
        assert_eq!(read_utf8(&mut r, 7, "payload").unwrap(), "payload");
    }

    #[test]
    fn caps_protect_the_reader() {
        let no_newline = format!("{VERSION} x\n{}", "y".repeat(MAX_HEAD_LINE + 1));
        let err = read_frame_head(&mut io::BufReader::new(no_newline.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert!(parse_len("18446744073709551615").is_err());
        assert!(parse_len(&(MAX_PAYLOAD + 1).to_string()).is_err());
        assert_eq!(parse_len("0").unwrap(), 0);
    }

    #[test]
    fn foreign_versions_and_truncations_are_clean_errors() {
        for frame in ["chipletqc/0 x\n\n", "http/1.1 GET\n\n", "", "chipletqc/1 x\na = 1"] {
            assert!(read_frame_head(&mut io::BufReader::new(frame.as_bytes())).is_err());
        }
    }
}
