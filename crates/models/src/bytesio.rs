//! Minimal self-describing binary codec for model persistence.
//!
//! A deliberately tiny format (little-endian, length-prefixed) so trained
//! models can be saved and shipped without pulling a serialization
//! framework into the workspace: `u64` lengths, `f64` values, one magic
//! tag per model family, and a format-version byte for forward
//! compatibility.

use fia_linalg::Matrix;
use std::fmt;

/// Errors from decoding a model byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced content.
    UnexpectedEof,
    /// Magic tag didn't match the expected model family.
    BadMagic {
        /// Expected tag.
        expected: [u8; 4],
        /// Found tag.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// A structural invariant failed (e.g. label out of range).
    Corrupt(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt model data: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a stream with a 4-byte magic tag and a version byte.
    pub fn with_header(magic: [u8; 4], version: u8) -> Self {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&magic);
        w.buf.push(version);
        w
    }

    /// Writes a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` (LE bit pattern).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Writes a matrix as `(rows, cols, data…)`.
    pub fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &x in m.as_slice() {
            self.f64(x);
        }
    }

    /// Finishes and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a stream, checking the 4-byte magic and returning the
    /// version byte.
    pub fn with_header(buf: &'a [u8], magic: [u8; 4]) -> Result<(Self, u8), DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let found = r.bytes::<4>()?;
        if found != magic {
            return Err(DecodeError::BadMagic {
                expected: magic,
                found,
            });
        }
        let version = r.u8()?;
        Ok((r, version))
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        if self.pos + N > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes::<8>()?))
    }

    /// Reads a `usize`, rejecting values that do not fit the platform's
    /// `usize`. The value is not checked against the remaining buffer, so
    /// it must not size an allocation on its own.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Corrupt(format!("length {v} overflows")))
    }

    /// Reads the item count of a sequence whose items each take at least
    /// `min_item_bytes` of the stream. A count the remaining buffer
    /// cannot hold is [`DecodeError::UnexpectedEof`], so a corrupt count
    /// never sizes an allocation.
    pub(crate) fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n.saturating_mul(min_item_bytes) > self.buf.len() - self.pos {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.bytes::<8>()?))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes::<1>()?[0])
    }

    /// Reads a bool byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a matrix written by [`Writer::matrix`].
    pub fn matrix(&mut self) -> Result<Matrix, DecodeError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let need = rows.saturating_mul(cols).saturating_mul(8);
        if need.saturating_add(self.pos) > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(self.f64()?);
        }
        Matrix::from_vec(rows, cols, data).map_err(|e| DecodeError::Corrupt(format!("matrix: {e}")))
    }

    /// `true` when the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::with_header(*b"TEST", 1);
        w.u64(42);
        w.f64(-1.5);
        w.bool(true);
        w.f64_slice(&[1.0, 2.0]);
        w.matrix(&Matrix::identity(2));
        let bytes = w.finish();

        let (mut r, version) = Reader::with_header(&bytes, *b"TEST").unwrap();
        assert_eq!(version, 1);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.matrix().unwrap(), Matrix::identity(2));
        assert!(r.is_exhausted());
    }

    #[test]
    fn bad_magic_detected() {
        let w = Writer::with_header(*b"AAAA", 1);
        let bytes = w.finish();
        let err = Reader::with_header(&bytes, *b"BBBB").unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::with_header(*b"TEST", 1);
        w.matrix(&Matrix::filled(4, 4, 1.0));
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 3);
        let (mut r, _) = Reader::with_header(&bytes, *b"TEST").unwrap();
        assert_eq!(r.matrix().unwrap_err(), DecodeError::UnexpectedEof);
    }

    #[test]
    fn corrupt_bool_detected() {
        let mut w = Writer::with_header(*b"TEST", 1);
        w.u8(7);
        let bytes = w.finish();
        let (mut r, _) = Reader::with_header(&bytes, *b"TEST").unwrap();
        assert!(matches!(r.bool(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn huge_length_rejected_without_allocation() {
        let mut w = Writer::with_header(*b"TEST", 1);
        w.u64(u64::MAX / 2); // absurd length prefix
        let bytes = w.finish();
        let (mut r, _) = Reader::with_header(&bytes, *b"TEST").unwrap();
        assert!(r.f64_vec().is_err());
    }
}
