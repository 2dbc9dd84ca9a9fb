//! A minimal, deterministic binary codec for persisted products.
//!
//! The result store (`chipletqc-store`) persists fabrication and
//! characterization products across processes. Rust's ecosystem answer
//! would be `serde` + `bincode`, but this workspace builds without
//! crates.io access, so this module pins the exact subset the store
//! needs: little-endian fixed-width scalars, length-prefixed
//! sequences, and a [`Codec`] trait the product types implement in
//! their owning crates.
//!
//! Two properties matter more than generality:
//!
//! * **Bit-exactness** — `f64` values round-trip through
//!   [`f64::to_le_bytes`], so a decoded product is bit-identical to
//!   the encoded one. This is what lets a warm store reproduce the
//!   byte-identical run reports the engine's determinism tests pin.
//! * **Hostile-input safety** — decoding validates every length
//!   against the remaining input before allocating, and every value
//!   against its domain, so a truncated or corrupted store entry
//!   surfaces as a [`CodecError`] (which the store treats as a cache
//!   miss), never as a panic or an absurd allocation.

/// Errors surfaced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// The bytes decoded but violate the type's invariants.
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, {available} available")
            }
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer with fixed-width little-endian writers.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk format is
    /// pointer-width independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` by its exact little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for v in values {
            self.put_f64(*v);
        }
    }

    /// Writes a length-prefixed sequence of encodable values.
    pub fn put_seq<T: Codec>(&mut self, values: &[T]) {
        self.put_usize(values.len());
        for v in values {
            v.encode(self);
        }
    }
}

/// A cursor over encoded bytes with bounds-checked readers.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, available: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit the platform.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| CodecError::Invalid("length exceeds usize".into()))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a sequence length written by one of the `put_*` sequence
    /// writers and checks that `len * min_elem_bytes` more input
    /// actually exists — a corrupted length can therefore never drive
    /// an absurd allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_usize()?;
        let needed = len.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::Truncated { needed, available: self.remaining() });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed sequence of decodable values.
    pub fn get_seq<T: Codec>(&mut self) -> Result<Vec<T>, CodecError> {
        let len = self.get_len(1)?;
        (0..len).map(|_| T::decode(self)).collect()
    }
}

/// A type with a deterministic binary encoding.
///
/// Implementations live in the crate that owns the type (so they can
/// reach private fields and re-establish invariants on decode); the
/// store composes them into envelope payloads.
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);

    /// Decodes one value, validating the type's invariants.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value to a fresh byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from `bytes`, requiring every byte to be consumed
/// (trailing garbage is corruption, not padding).
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid(format!("{} trailing bytes", r.remaining())));
    }
    Ok(value)
}

impl Codec for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_usize()
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_f64()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_seq(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_f64(0.1 + 0.2);
        w.put_str("chipletqc");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_f64().unwrap(), 0.1 + 0.2);
        assert_eq!(r.get_str().unwrap(), "chipletqc");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_to_vec(&vec![1.0f64, 2.0, 3.0]);
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<Vec<f64>>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CodecError::Truncated { .. }), "cut {cut}: {err}");
        }
        assert_eq!(decode_from_slice::<Vec<f64>>(&bytes).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert!(matches!(
            decode_from_slice::<u64>(&bytes).unwrap_err(),
            CodecError::Invalid(_)
        ));
    }

    #[test]
    fn corrupt_length_cannot_drive_allocation() {
        // A sequence claiming u64::MAX elements with 8 bytes of body.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        let err = decode_from_slice::<Vec<f64>>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. } | CodecError::Invalid(_)));
    }

    #[test]
    fn composite_values_round_trip() {
        let value: Vec<(u64, f64)> = vec![(1, 0.5), (2, -1.25)];
        let bytes = encode_to_vec(&value);
        assert_eq!(decode_from_slice::<Vec<(u64, f64)>>(&bytes).unwrap(), value);
        let pair = (3usize, 4u64);
        assert_eq!(decode_from_slice::<(usize, u64)>(&encode_to_vec(&pair)).unwrap(), pair);
    }

    #[test]
    fn errors_display() {
        assert!(CodecError::Truncated { needed: 8, available: 3 }
            .to_string()
            .contains("needed 8"));
        assert!(CodecError::Invalid("bad".into()).to_string().contains("bad"));
    }
}
