//! A hand-rolled little-endian byte codec for model state.
//!
//! Time-travel checkpointing (the `codesign-replay` crate) needs every
//! simulation model to serialize its *mutable* state into a flat byte
//! string and restore from it bit-exactly. The vendored `serde` is a
//! no-op stand-in, so the codec is explicit: a [`StateWriter`] appends
//! fixed-width little-endian fields and length-prefixed sequences, and
//! a [`StateReader`] consumes them in the same order, failing with a
//! typed [`RtlError::State`] on truncation or shape mismatch rather
//! than panicking.
//!
//! Conventions, shared by every `save_state`/`restore_state` pair in
//! the workspace:
//!
//! * integers are little-endian and fixed-width (`u64` for lengths);
//! * sequences are a `u64` length followed by the elements;
//! * nested/opaque blobs are length-prefixed byte strings, so
//!   containers can skip or delegate without knowing inner layouts. A
//!   container writes each section in place with
//!   [`StateWriter::nested`] — an 8-byte length patched after the
//!   section's fields — which yields the bytes [`StateWriter::bytes`]
//!   would over a separately built blob, without building one; readers
//!   take the section back with [`StateReader::bytes`];
//! * maps are written in sorted key order, so identical logical state
//!   always produces identical bytes (checkpoint dedup and divergence
//!   comparison both hash the bytes);
//! * *static structure* (programs, netlists, mappings, configs) is
//!   never serialized — a checkpoint restores into a freshly rebuilt
//!   model of identical structure, and restore methods verify shape
//!   (element counts) where cheap.

use crate::error::RtlError;

/// Appends state fields to a growing byte vector.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// An empty writer whose buffer already holds `capacity` bytes, for
    /// callers that know roughly how large the state is.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        StateWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes, yielding the serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[inline]
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets what was written but keeps the buffer, so one writer can
    /// serialize state again and again without reallocating.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    // The field methods below are `#[inline]`: every engine's
    // `save_state` calls them across crates, and without LTO a call per
    // field costs more than the field.

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed section written by `section` in place:
    /// an 8-byte length placeholder, the section's fields, then the
    /// length patched in. The bytes equal [`StateWriter::bytes`] over the
    /// same fields written into a writer of their own.
    pub fn nested(&mut self, section: impl FnOnce(&mut StateWriter)) {
        let at = self.buf.len();
        self.u64(0);
        section(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a sequence length (callers then write the elements).
    #[inline]
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Consumes state fields from a byte slice, in writer order.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`RtlError::State`] unless every byte was consumed —
    /// a trailing-garbage check for top-level restores.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] if bytes remain.
    pub fn finish(&self) -> Result<(), RtlError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(RtlError::State {
                reason: format!("{} trailing bytes after restore", self.remaining()),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RtlError> {
        if self.remaining() < n {
            return Err(RtlError::State {
                reason: format!("truncated state: need {n} bytes, have {}", self.remaining()),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn u8(&mut self) -> Result<u8, RtlError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (one byte; anything nonzero is `true`).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn bool(&mut self) -> Result<bool, RtlError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn u32(&mut self) -> Result<u32, RtlError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn u64(&mut self) -> Result<u64, RtlError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn i64(&mut self) -> Result<i64, RtlError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` (stored as `u64`); fails if it cannot fit.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or overflow.
    pub fn usize(&mut self) -> Result<usize, RtlError> {
        usize::try_from(self.u64()?).map_err(|_| RtlError::State {
            reason: "length does not fit in usize".into(),
        })
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], RtlError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, RtlError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| RtlError::State {
            reason: "string field is not UTF-8".into(),
        })
    }

    /// Reads a sequence length, verifying it against `expect` when the
    /// restoring model knows its structural size (shape check).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or length mismatch.
    pub fn seq(&mut self, expect: Option<usize>) -> Result<usize, RtlError> {
        let n = self.usize()?;
        if let Some(e) = expect {
            if n != e {
                return Err(RtlError::State {
                    reason: format!("sequence length {n} does not match structure ({e})"),
                });
            }
        }
        Ok(n)
    }
}

/// FNV-1a over a byte slice, used for checkpoint page identity and
/// divergence digests.
pub use codesign_trace::hash::fnv1a as fnv1a_bytes;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(3);
        w.bytes(b"abc");
        w.str("hello");
        w.seq(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 3);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.seq(Some(2)).unwrap(), 2);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut w = StateWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(RtlError::State { .. })));
        let mut r = StateReader::new(&bytes);
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(RtlError::State { .. })));
    }

    #[test]
    fn shape_mismatch_is_caught() {
        let mut w = StateWriter::new();
        w.seq(5);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let err = r.seq(Some(4)).unwrap_err();
        assert!(matches!(err, RtlError::State { .. }), "{err}");
    }

    /// The nested-writer form `nested` replaces: build the section in a
    /// writer of its own, then append it length-prefixed.
    fn boxed(w: &mut StateWriter, section: impl FnOnce(&mut StateWriter)) {
        let mut inner = StateWriter::new();
        section(&mut inner);
        w.bytes(&inner.into_bytes());
    }

    #[test]
    fn nested_empty_section_matches_a_separate_writer() {
        let (mut a, mut b) = (StateWriter::new(), StateWriter::new());
        a.u8(1);
        a.nested(|_| {});
        b.u8(1);
        boxed(&mut b, |_| {});
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn nested_section_inside_a_section_matches_separate_writers() {
        let (mut a, mut b) = (StateWriter::new(), StateWriter::new());
        a.nested(|w| {
            w.u32(7);
            w.nested(|w| w.str("inner"));
            w.bool(true);
        });
        boxed(&mut b, |w| {
            w.u32(7);
            boxed(w, |w| w.str("inner"));
            w.bool(true);
        });
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn fields_after_a_nested_section_match_and_read_back() {
        let (mut a, mut b) = (StateWriter::new(), StateWriter::new());
        a.nested(|w| w.i64(-3));
        a.u64(9);
        a.bytes(b"tail");
        boxed(&mut b, |w| w.i64(-3));
        b.u64(9);
        b.bytes(b"tail");
        let bytes = a.into_bytes();
        assert_eq!(bytes, b.into_bytes());
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.bytes().unwrap(), (-3i64).to_le_bytes());
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.bytes().unwrap(), b"tail");
        r.finish().unwrap();
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_bytes(b"a"), fnv1a_bytes(b"b"));
    }
}
