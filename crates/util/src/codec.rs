//! A minimal hand-rolled binary codec.
//!
//! The build environment is offline (no serde), so the stage-artifact
//! persistence of `mbqc-service` uses this fixed-width little-endian
//! format instead: each crate encodes its own types with [`Encoder`] and
//! decodes them with [`Decoder`]. The format is deliberately boring —
//! no varints, no compression — because the artifacts it carries must
//! round-trip *bit-identically* (cache-restored compilations are
//! property-tested equal to fresh ones) and a simple format is easy to
//! audit for that property.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::codec::{Decoder, Encoder};
//!
//! let mut e = Encoder::new();
//! e.usize(3);
//! e.f64(0.25);
//! e.bytes(b"abc");
//! let buf = e.into_bytes();
//!
//! let mut d = Decoder::new(&buf);
//! assert_eq!(d.usize().unwrap(), 3);
//! assert_eq!(d.f64().unwrap(), 0.25);
//! assert_eq!(d.bytes().unwrap(), b"abc");
//! assert!(d.finish().is_ok());
//! ```

use std::fmt;

/// Decoding failure: the buffer does not hold what the caller expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the requested value.
    UnexpectedEof,
    /// A decoded value violates an invariant of the target type.
    Invalid(&'static str),
    /// [`Decoder::finish`] found unread bytes.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary writer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder whose buffer is pre-allocated for `capacity`
    /// bytes. Encoders for large artifacts (patterns, schedules, wire
    /// frames) know their encoded size up front — reserving it skips
    /// the doubling-growth copies, which are measurable on the network
    /// submit path.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern (exact round trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// Writes a length-prefixed byte string in place: the prefix `len`,
    /// then whatever `encode` appends, which must be exactly `len` bytes
    /// (debug-asserted). It reads back with [`Decoder::bytes`] like a
    /// blob written by [`Encoder::bytes`], but the nested value is
    /// never encoded into a buffer of its own first.
    pub fn nested(&mut self, len: usize, encode: impl FnOnce(&mut Encoder)) {
        self.usize(len);
        let start = self.buf.len();
        encode(self);
        debug_assert_eq!(self.buf.len() - start, len, "nested blob length");
    }

    /// Writes bytes as they are, with no length prefix (the inverse of
    /// [`Decoder::raw`]).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    /// Writes an `Option<usize>` as a presence byte plus the value.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.usize(x);
            }
            None => self.bool(false),
        }
    }
}

/// Sequential binary reader over a borrowed buffer.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `n` raw bytes with no length prefix — for fixed-
    /// stride batch decoding, where the caller walks the returned slice
    /// in `chunks_exact` instead of paying per-field decoder calls.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `usize` (encoded as `u64`; errors if it does not fit).
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let len = self.len_hint()?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.usize()?);
        }
        Ok(v)
    }

    /// Reads an `Option<usize>` written by [`Encoder::opt_usize`].
    pub fn opt_usize(&mut self) -> Result<Option<usize>, CodecError> {
        if self.bool()? {
            Ok(Some(self.usize()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a collection length, bounded by the bytes actually left so
    /// a corrupt length cannot trigger a huge allocation.
    pub fn len_hint(&mut self) -> Result<usize, CodecError> {
        let len = self.usize()?;
        // Every element of every collection costs at least one byte.
        if len > self.buf.len().saturating_sub(self.pos) {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(len)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u64(u64::MAX);
        e.usize(123_456);
        e.i64(-42);
        e.f64(-0.0);
        e.bool(true);
        e.bytes(&[1, 2, 3]);
        e.usize_slice(&[9, 8]);
        e.opt_usize(Some(5));
        e.opt_usize(None);
        let buf = e.into_bytes();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 123_456);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.usize_vec().unwrap(), vec![9, 8]);
        assert_eq!(d.opt_usize().unwrap(), Some(5));
        assert_eq!(d.opt_usize().unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn eof_and_trailing_are_errors() {
        let mut e = Encoder::new();
        e.u64(1);
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf[..4]);
        assert_eq!(d.u64(), Err(CodecError::UnexpectedEof));
        let mut d = Decoder::new(&buf);
        d.u8().unwrap();
        assert_eq!(d.clone().finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocation() {
        let mut e = Encoder::new();
        e.usize(usize::MAX / 2);
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.len_hint(), Err(CodecError::UnexpectedEof));
        let mut d = Decoder::new(&buf);
        assert!(d.usize_vec().is_err());
    }

    #[test]
    fn bad_bool_byte_is_invalid() {
        let mut d = Decoder::new(&[3]);
        assert_eq!(d.bool(), Err(CodecError::Invalid("bool byte")));
    }
}
