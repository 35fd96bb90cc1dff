//! The pieces the job spec and outcome formats share.
//!
//! Job specs travel over the wire (inside `JOB_SUBMIT` frames) and rest
//! on disk; outcomes rest on disk and travel back in `JOB_REPORT_BLOB`
//! frames. Both are versioned little-endian blobs read through the
//! workspace's byte codec ([`fia_core::bytes`]) plus the u16-prefixed
//! strings and the trailing-bytes check below, so a malformed byte
//! yields a typed [`BlobError`], never a panic or a silent mis-read.

use fia_core::bytes::{ByteReader, ByteWriter, Truncated};
use std::fmt;

/// A typed decode failure for campaignd blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The blob ended before the field being read.
    Truncated,
    /// The version byte names a format this build does not speak.
    UnsupportedVersion(u8),
    /// A field held a value the format forbids.
    Invalid(&'static str),
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::Truncated => write!(f, "blob is truncated"),
            BlobError::UnsupportedVersion(v) => {
                write!(f, "unsupported blob version {v}")
            }
            BlobError::Invalid(why) => write!(f, "invalid blob field: {why}"),
        }
    }
}

impl std::error::Error for BlobError {}

impl From<Truncated> for BlobError {
    fn from(_: Truncated) -> Self {
        BlobError::Truncated
    }
}

/// Appends `len ∥ bytes` with a u16 length prefix.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string field fits u16");
    out.put_u16(len);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a u16-length-prefixed UTF-8 string, capped at `max` bytes.
pub(crate) fn get_str(r: &mut ByteReader<'_>, max: usize) -> Result<String, BlobError> {
    let len = r.u16()? as usize;
    if len > max {
        return Err(BlobError::Invalid("string field too long"));
    }
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| BlobError::Invalid("string not utf-8"))
}

/// Decode must consume every byte; trailing garbage is an error.
pub(crate) fn finish(r: &ByteReader<'_>) -> Result<(), BlobError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(BlobError::Invalid("trailing bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_and_reject_abuse() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        let mut r = ByteReader::new(&out);
        assert_eq!(get_str(&mut r, 16).unwrap(), "hello");
        finish(&r).unwrap();
        let mut r = ByteReader::new(&out);
        assert_eq!(
            get_str(&mut r, 3),
            Err(BlobError::Invalid("string field too long"))
        );
        let mut r = ByteReader::new(&out[..4]);
        assert_eq!(get_str(&mut r, 16), Err(BlobError::Truncated));
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u16.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = ByteReader::new(&bad);
        assert_eq!(
            get_str(&mut r, 16),
            Err(BlobError::Invalid("string not utf-8"))
        );
        assert_eq!(
            finish(&ByteReader::new(&[0])),
            Err(BlobError::Invalid("trailing bytes"))
        );
    }
}
