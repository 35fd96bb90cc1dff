//! The workspace's one little-endian byte codec.
//!
//! Every binary format — the wire codec, the campaign checkpoint and
//! budget meter, campaignd's job specs, outcomes and write-ahead log, and
//! model persistence — reads its integers and floats through
//! [`ByteReader`] and writes them through [`ByteWriter`]. Floats travel
//! as raw IEEE-754 bits, so a value survives a round trip to the last
//! ulp. Each format keeps its own layout, caps, validation and error
//! type, converting [`Truncated`] into the error it reports.

/// The one way a [`ByteReader`] read fails: the input ended before the
/// value did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input ended mid-value")
    }
}

impl std::error::Error for Truncated {}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.rest.len() {
            return Err(Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its little-endian IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a run of `n` `f64`s. A count whose `n × 8` bytes overflow
    /// or exceed what remains is [`Truncated`] before anything is
    /// allocated, so a corrupt count never sizes a buffer.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, Truncated> {
        let bytes = self.take(n.checked_mul(8).ok_or(Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// How many bytes are left to read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

/// Little-endian put methods on a byte buffer, the writing half of
/// [`ByteReader`].
pub trait ByteWriter {
    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends an `f64` as its little-endian IEEE-754 bits.
    fn put_f64(&mut self, v: f64);
    /// Appends a run of `f64`s, each as [`ByteWriter::put_f64`] would.
    fn put_f64s(&mut self, vs: &[f64]);
}

impl ByteWriter for Vec<u8> {
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64s(&mut self, vs: &[f64]) {
        self.reserve(vs.len() * 8);
        for &v in vs {
            self.put_f64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_little_endian() {
        let mut out = vec![0xAB];
        out.put_u16(0x0102);
        out.put_u32(0x0304_0506);
        out.put_u64(0x0708_090A_0B0C_0D0E);
        out.put_f64(-0.0);
        out.put_f64s(&[1.5, f64::MIN_POSITIVE / 2.0]);
        assert_eq!(
            &out[..15],
            [0xAB, 2, 1, 6, 5, 4, 3, 14, 13, 12, 11, 10, 9, 8, 7]
        );
        assert_eq!(&out[15..23], [0, 0, 0, 0, 0, 0, 0, 0x80]);

        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.remaining(), 16);
        let run = r.f64s(2).unwrap();
        assert_eq!(run[0], 1.5);
        assert_eq!(run[1].to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.f64s(0), Ok(Vec::new()));
    }

    #[test]
    fn reads_past_the_end_are_truncated_and_consume_nothing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Truncated));
        assert_eq!(r.take(4), Err(Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(3), Ok(&[1, 2, 3][..]));
        assert_eq!(r.u8(), Err(Truncated));
    }

    #[test]
    fn f64_runs_check_their_length_before_allocating() {
        let bytes = [0u8; 16];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.f64s(3), Err(Truncated));
        // n × 8 overflows usize: rejected, not wrapped or panicked on.
        assert_eq!(r.f64s(1 << 61), Err(Truncated));
        assert_eq!(r.f64s(usize::MAX), Err(Truncated));
        assert_eq!(r.f64s(2), Ok(vec![0.0, 0.0]));
    }
}
