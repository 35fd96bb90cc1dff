//! The model persistence format's own pieces, over the workspace's byte
//! codec ([`fia_linalg::bytes`]).
//!
//! A deliberately tiny format (little-endian, length-prefixed) so trained
//! models can be saved and shipped without pulling a serialization
//! framework into the workspace: a 4-byte magic tag per model family and
//! a format-version byte, then `u64` lengths, `f64` values, one-byte
//! flags, and matrices as `(rows, cols, data…)`.

use fia_linalg::bytes::{ByteReader, ByteWriter, Truncated};
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
    /// This many bytes follow a complete model.
    TrailingBytes(usize),
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
            DecodeError::TrailingBytes(n) => write!(f, "{n} bytes after the model"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<Truncated> for DecodeError {
    fn from(_: Truncated) -> Self {
        DecodeError::UnexpectedEof
    }
}

/// Starts a stream with a 4-byte magic tag and a version byte.
pub(crate) fn put_header(out: &mut Vec<u8>, magic: [u8; 4], version: u8) {
    out.extend_from_slice(&magic);
    out.push(version);
}

/// Opens a stream written after [`put_header`], refusing another magic
/// tag or version.
pub(crate) fn open(
    bytes: &[u8],
    magic: [u8; 4],
    version: u8,
) -> Result<ByteReader<'_>, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let found: [u8; 4] = r.take(4)?.try_into().expect("4 bytes");
    if found != magic {
        return Err(DecodeError::BadMagic {
            expected: magic,
            found,
        });
    }
    match r.u8()? {
        v if v == version => Ok(r),
        v => Err(DecodeError::BadVersion(v)),
    }
}

/// Ends a stream after its model: a byte left over is
/// [`DecodeError::TrailingBytes`], so a blob decodes as exactly one model
/// or not at all.
pub(crate) fn close(r: &ByteReader<'_>) -> Result<(), DecodeError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(DecodeError::TrailingBytes(n)),
    }
}

/// Writes a `usize` as a `u64`.
pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.put_u64(v as u64);
}

/// Reads a `usize`, rejecting values that do not fit the platform's
/// `usize`. The value is not checked against the remaining buffer, so it
/// must not size an allocation on its own.
pub(crate) fn get_usize(r: &mut ByteReader<'_>) -> Result<usize, DecodeError> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| DecodeError::Corrupt(format!("length {v} overflows")))
}

/// Reads the item count of a sequence whose items each take at least
/// `min_item_bytes` of the stream. A count the remaining buffer cannot
/// hold is [`DecodeError::UnexpectedEof`], so a corrupt count never
/// sizes an allocation.
pub(crate) fn get_count(
    r: &mut ByteReader<'_>,
    min_item_bytes: usize,
) -> Result<usize, DecodeError> {
    let n = get_usize(r)?;
    if n.saturating_mul(min_item_bytes) > r.remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(n)
}

/// Reads a bool byte (must be 0 or 1).
pub(crate) fn get_bool(r: &mut ByteReader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::Corrupt(format!("bad bool byte {other}"))),
    }
}

/// Writes a length-prefixed `f64` vector.
pub(crate) fn put_vector(out: &mut Vec<u8>, v: &[f64]) {
    put_usize(out, v.len());
    out.put_f64s(v);
}

/// Reads a vector written by [`put_vector`].
pub(crate) fn get_vector(r: &mut ByteReader<'_>) -> Result<Vec<f64>, DecodeError> {
    let n = get_usize(r)?;
    Ok(r.f64s(n)?)
}

/// Writes a matrix as `(rows, cols, data…)`.
pub(crate) fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_usize(out, m.rows());
    put_usize(out, m.cols());
    out.put_f64s(m.as_slice());
}

/// Reads a matrix written by [`put_matrix`].
pub(crate) fn get_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, DecodeError> {
    let rows = get_usize(r)?;
    let cols = get_usize(r)?;
    let data = r.f64s(rows.saturating_mul(cols))?;
    Matrix::from_vec(rows, cols, data).map_err(|e| DecodeError::Corrupt(format!("matrix: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut out = Vec::new();
        put_header(&mut out, *b"TEST", 1);
        put_usize(&mut out, 42);
        out.push(1);
        put_vector(&mut out, &[1.0, 2.0]);
        put_matrix(&mut out, &Matrix::identity(2));

        let mut r = open(&out, *b"TEST", 1).unwrap();
        assert_eq!(get_usize(&mut r).unwrap(), 42);
        assert!(get_bool(&mut r).unwrap());
        assert_eq!(get_vector(&mut r).unwrap(), vec![1.0, 2.0]);
        assert_eq!(get_matrix(&mut r).unwrap(), Matrix::identity(2));
        assert_eq!(close(&r), Ok(()));
        out.extend_from_slice(&[0; 3]);
        let mut r = open(&out, *b"TEST", 1).unwrap();
        r.take(out.len() - 8).unwrap();
        assert_eq!(close(&r), Err(DecodeError::TrailingBytes(3)));
    }

    #[test]
    fn bad_magic_detected() {
        let mut out = Vec::new();
        put_header(&mut out, *b"AAAA", 1);
        assert!(matches!(
            open(&out, *b"BBBB", 1),
            Err(DecodeError::BadMagic { .. })
        ));
        assert!(matches!(
            open(&out, *b"AAAA", 2),
            Err(DecodeError::BadVersion(1))
        ));
        assert!(matches!(
            open(&out[..4], *b"AAAA", 1),
            Err(DecodeError::UnexpectedEof)
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut out = Vec::new();
        put_matrix(&mut out, &Matrix::filled(4, 4, 1.0));
        out.truncate(out.len() - 3);
        let err = get_matrix(&mut ByteReader::new(&out)).unwrap_err();
        assert_eq!(err, DecodeError::UnexpectedEof);
    }

    #[test]
    fn corrupt_bool_detected() {
        assert!(matches!(
            get_bool(&mut ByteReader::new(&[7])),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_length_rejected_without_allocation() {
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX / 2); // absurd length prefix
        assert!(get_vector(&mut ByteReader::new(&out)).is_err());
        assert_eq!(
            get_count(&mut ByteReader::new(&out), 1),
            Err(DecodeError::UnexpectedEof)
        );
        // rows × cols × 8 overflows: a typed error, not a wrapped size.
        let mut out = Vec::new();
        put_usize(&mut out, 1 << 61);
        put_usize(&mut out, 1);
        assert_eq!(
            get_matrix(&mut ByteReader::new(&out)),
            Err(DecodeError::UnexpectedEof)
        );
    }
}
