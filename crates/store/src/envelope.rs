//! The on-disk entry envelope.
//!
//! Every store entry is one file: a fixed header followed by the
//! payload. The header carries a magic number, a format version, the
//! payload encoding ([`Encoding::Binary`] for the product codec, or
//! [`Encoding::Json`]), the entry's full logical key (so a hash collision or a stale file can
//! never serve the wrong product), and an FNV-1a checksum of the
//! payload. [`open`] validates all of it; any failure is reported as
//! an [`EnvelopeError`], which the store layer above translates into a
//! cache miss — a corrupt or stale entry costs a recomputation, never
//! a wrong result.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      4 bytes  b"CQST"
//! version    u32      FORMAT_VERSION
//! checksum   u64      FNV-1a 64 over every byte that follows
//! encoding   u8       0 = binary codec, 1 = JSON
//! kind       str      length-prefixed UTF-8 (product kind)
//! key        str      length-prefixed UTF-8 (full logical key)
//! payload    bytes    length-prefixed raw bytes
//! ```
//!
//! The checksum covers the encoding tag, both strings, and the
//! payload, so a bit flip anywhere past the version field is detected
//! — including one that would silently relabel an entry's kind or key.

use chipletqc_math::codec::{ByteReader, ByteWriter, CodecError};

/// The envelope magic number.
pub const MAGIC: [u8; 4] = *b"CQST";

/// The envelope format version. Bump on any layout change; entries
/// written by other versions are treated as misses, never migrated in
/// place.
pub const FORMAT_VERSION: u32 = 1;

/// How an entry's payload bytes are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// The `chipletqc_math::codec` binary product codec.
    Binary,
    /// UTF-8 JSON. No product writes it; it stays because the store
    /// peer protocol carries an entry's encoding on the wire and
    /// `chipletbench` passes encodings through `Store::put`.
    Json,
}

impl Encoding {
    /// The canonical lowercase spelling (the wire-protocol header
    /// value).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Binary => "binary",
            Encoding::Json => "json",
        }
    }

    /// Parses the canonical spelling.
    pub fn parse(s: &str) -> Option<Encoding> {
        match s {
            "binary" => Some(Encoding::Binary),
            "json" => Some(Encoding::Json),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Encoding::Binary => 0,
            Encoding::Json => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Encoding, EnvelopeError> {
        match tag {
            0 => Ok(Encoding::Binary),
            1 => Ok(Encoding::Json),
            other => Err(EnvelopeError::BadEncoding(other)),
        }
    }
}

/// A validated, opened entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The product kind (e.g. `kgd-bin`).
    pub kind: String,
    /// The full logical key the entry was written under.
    pub key: String,
    /// The payload encoding.
    pub encoding: Encoding,
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

/// Why an entry failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion(u32),
    /// The encoding tag is unknown.
    BadEncoding(u8),
    /// The payload bytes do not match the stored checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
    /// The header or payload is truncated or malformed.
    Malformed(CodecError),
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "not a chipletqc-store entry (bad magic)"),
            EnvelopeError::UnsupportedVersion(v) => {
                write!(f, "format version {v} (this build reads {FORMAT_VERSION})")
            }
            EnvelopeError::BadEncoding(tag) => write!(f, "unknown encoding tag {tag}"),
            EnvelopeError::ChecksumMismatch { stored, actual } => {
                write!(f, "checksum mismatch: header {stored:#018x}, payload {actual:#018x}")
            }
            EnvelopeError::Malformed(e) => write!(f, "malformed envelope: {e}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<CodecError> for EnvelopeError {
    fn from(e: CodecError) -> EnvelopeError {
        EnvelopeError::Malformed(e)
    }
}

/// FNV-1a 64-bit over `bytes`, starting from `basis`.
pub(crate) fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The FNV-1a 64 offset basis (the checksum's starting state).
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Seals `payload` into envelope bytes ready for an atomic write.
pub fn seal(kind: &str, key: &str, encoding: Encoding, payload: &[u8]) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.put_u8(encoding.tag());
    body.put_str(kind);
    body.put_str(key);
    body.put_usize(payload.len());
    body.put_bytes(payload);
    let body = body.into_bytes();
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(fnv1a64(&body, FNV_OFFSET_BASIS));
    w.put_bytes(&body);
    w.into_bytes()
}

/// Reads just the kind and full logical key from (a prefix of) entry
/// bytes — magic and version are checked, the checksum and payload
/// are deliberately NOT: this is the cheap path behind key listing,
/// where reading and checksumming every payload would make a `list`
/// cost the whole store in disk I/O. A peeked key is therefore *not*
/// a validity guarantee; [`open`] (via any `get`) still validates
/// fully before a payload is served.
pub fn peek_key(bytes: &[u8]) -> Option<(String, String)> {
    let mut r = ByteReader::new(bytes);
    if r.get_bytes(MAGIC.len()).ok()? != MAGIC {
        return None;
    }
    if r.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    r.get_u64().ok()?; // checksum — deliberately unverified here
    r.get_u8().ok()?; // encoding tag
    let kind = r.get_str().ok()?;
    let key = r.get_str().ok()?;
    Some((kind, key))
}

/// Opens and fully validates envelope bytes.
pub fn open(bytes: &[u8]) -> Result<Envelope, EnvelopeError> {
    let mut r = ByteReader::new(bytes);
    if r.get_bytes(MAGIC.len())? != MAGIC {
        return Err(EnvelopeError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(EnvelopeError::UnsupportedVersion(version));
    }
    let stored = r.get_u64()?;
    let body = r.get_bytes(r.remaining())?;
    let actual = fnv1a64(body, FNV_OFFSET_BASIS);
    if actual != stored {
        return Err(EnvelopeError::ChecksumMismatch { stored, actual });
    }
    let mut r = ByteReader::new(body);
    let encoding = Encoding::from_tag(r.get_u8()?)?;
    let kind = r.get_str()?;
    let key = r.get_str()?;
    let len = r.get_len(1)?;
    let payload = r.get_bytes(len)?.to_vec();
    if !r.is_exhausted() {
        return Err(EnvelopeError::Malformed(CodecError::Invalid(format!(
            "{} trailing bytes",
            r.remaining()
        ))));
    }
    Ok(Envelope { kind, key, encoding, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_round_trips() {
        let bytes = seal("kgd-bin", "b400|s2022", Encoding::Binary, b"payload bytes");
        let envelope = open(&bytes).unwrap();
        assert_eq!(envelope.kind, "kgd-bin");
        assert_eq!(envelope.key, "b400|s2022");
        assert_eq!(envelope.encoding, Encoding::Binary);
        assert_eq!(envelope.payload, b"payload bytes");
    }

    #[test]
    fn peek_key_reads_headers_without_payloads() {
        let bytes = seal("kgd-bin", "b400|s2022\u{1f}10q", Encoding::Binary, &[0u8; 4096]);
        // The whole key is recoverable from a payload-free prefix…
        let prefix = &bytes[..64];
        assert_eq!(peek_key(prefix), Some(("kgd-bin".into(), "b400|s2022\u{1f}10q".into())));
        // …and survives payload corruption (peeking is optimistic by
        // design; `open` is where validity is decided)…
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(peek_key(&corrupt).is_some());
        assert!(open(&corrupt).is_err());
        // …but not bad magic, foreign versions, or a cut mid-key.
        assert_eq!(peek_key(b"NOPE"), None);
        assert_eq!(peek_key(&prefix[..20]), None);
        let mut foreign = bytes;
        foreign[4] = 99;
        assert_eq!(peek_key(&foreign), None);
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = seal("mono-pop", "k", Encoding::Json, br#"{"survivors":3,"batch":10}"#);
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut]).is_err(), "cut at {cut} opened");
        }
        assert!(open(&bytes).is_ok());
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = seal("kgd-bin", "key", Encoding::Binary, b"sensitive");
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x01;
            assert!(open(&copy).is_err(), "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn foreign_versions_and_encodings_are_rejected() {
        let mut bytes = seal("k", "key", Encoding::Binary, b"p");
        bytes[4] = 99; // version field
        assert_eq!(open(&bytes).unwrap_err(), EnvelopeError::UnsupportedVersion(99));
        // An unknown encoding tag (re-sealed so the checksum matches).
        let mut body = chipletqc_math::codec::ByteWriter::new();
        body.put_u8(7);
        body.put_str("k");
        body.put_str("key");
        body.put_usize(1);
        body.put_bytes(b"p");
        let body = body.into_bytes();
        let mut w = chipletqc_math::codec::ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(fnv1a64(&body, FNV_OFFSET_BASIS));
        w.put_bytes(&body);
        assert_eq!(open(&w.into_bytes()).unwrap_err(), EnvelopeError::BadEncoding(7));
        assert_eq!(open(b"NOPE").unwrap_err(), EnvelopeError::BadMagic);
        assert!(open(b"CQ").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Appended bytes extend the checksummed body, so they surface
        // as a checksum mismatch.
        let mut bytes = seal("k", "key", Encoding::Binary, b"p");
        bytes.push(0);
        assert!(matches!(open(&bytes).unwrap_err(), EnvelopeError::ChecksumMismatch { .. }));
    }

    #[test]
    fn errors_display() {
        for e in [
            EnvelopeError::BadMagic,
            EnvelopeError::UnsupportedVersion(2),
            EnvelopeError::BadEncoding(9),
            EnvelopeError::ChecksumMismatch { stored: 1, actual: 2 },
            EnvelopeError::Malformed(CodecError::Invalid("x".into())),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
