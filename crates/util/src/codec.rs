//! A tiny versioned, checksummed binary codec for on-disk artifacts.
//!
//! The workspace builds fully offline and has no serde, so anything that must
//! survive a round-trip through a file is written with this explicit
//! little-endian writer/reader. The format is
//! deliberately boring:
//!
//! ```text
//! [8-byte magic][u32 version][payload ...][u64 FNV-1a of everything before]
//! ```
//!
//! * The **magic** names the artifact kind (e.g. `RRIMG\0\0\0` for device
//!   images) so a wrong file is rejected before any field is parsed.
//! * The **version** is read but not judged here — each artifact decides which
//!   versions it can still decode, which is what lets a v1 file keep loading
//!   after the payload grows in v2.
//! * The trailing **checksum** covers magic, version and payload, so a
//!   truncated or bit-flipped file fails loudly instead of deserializing into
//!   a silently wrong object.
//!
//! Every read is bounds-checked and returns [`CodecError`] — decoding
//! arbitrary bytes must never panic or over-allocate (length prefixes are
//! validated against the bytes actually present before any allocation).
//!
//! # Example
//!
//! ```
//! use rr_util::codec::{Decoder, Encoder, MAGIC_LEN};
//!
//! const MAGIC: [u8; MAGIC_LEN] = *b"EXAMPLE\0";
//! let mut enc = Encoder::new(MAGIC, 1);
//! enc.put_u64(42);
//! enc.put_u32_slice(&[7, 8, 9]);
//! let bytes = enc.finish();
//!
//! let mut dec = Decoder::new(&bytes, MAGIC).expect("intact file");
//! assert_eq!(dec.version(), 1);
//! assert_eq!(dec.take_u64().unwrap(), 42);
//! assert_eq!(dec.take_u32_vec().unwrap(), vec![7, 8, 9]);
//! dec.finish().expect("no trailing bytes");
//! ```

use std::error::Error;
use std::fmt;

/// Length of the artifact-kind magic prefix, in bytes.
pub const MAGIC_LEN: usize = 8;

const CHECKSUM_LEN: usize = 8;
const HEADER_LEN: usize = MAGIC_LEN + 4;

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the field (or the framing itself) was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// The leading magic does not name the expected artifact kind.
    BadMagic {
        /// The magic the caller expected.
        expected: [u8; MAGIC_LEN],
        /// The magic actually present.
        found: [u8; MAGIC_LEN],
    },
    /// The trailing checksum does not match the bytes (corruption).
    BadChecksum {
        /// Checksum recomputed from the bytes present.
        computed: u64,
        /// Checksum stored in the file.
        stored: u64,
    },
    /// The format version is one this build cannot decode.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// A decoded value is structurally impossible (bad discriminant, a length
    /// that contradicts another field, ...).
    Invalid {
        /// Human-readable description of the contradiction.
        what: String,
    },
    /// Payload bytes remained after the artifact said it was done.
    TrailingBytes {
        /// Number of unconsumed payload bytes.
        count: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated while reading {what}"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::BadChecksum { computed, stored } => write!(
                f,
                "checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            CodecError::Invalid { what } => write!(f, "invalid field: {what}"),
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} unconsumed payload bytes after decode")
            }
        }
    }
}

impl Error for CodecError {}

impl CodecError {
    /// Builds an [`CodecError::Invalid`] from anything displayable.
    pub fn invalid(what: impl fmt::Display) -> Self {
        CodecError::Invalid {
            what: what.to_string(),
        }
    }
}

/// FNV-1a over a byte slice: tiny, dependency-free, and plenty for detecting
/// truncation and bit flips (this is an integrity check, not authentication).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds a framed artifact: header, little-endian fields, trailing checksum.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Starts an artifact of the given kind and format version.
    pub fn new(magic: [u8; MAGIC_LEN], version: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&magic);
        buf.extend_from_slice(&version.to_le_bytes());
        Self { buf }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Seals the artifact: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Reads a framed artifact produced by [`Encoder`].
///
/// Construction verifies framing (magic + checksum) up front; field reads are
/// then individually bounds-checked against the payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    payload: &'a [u8],
    pos: usize,
    version: u32,
}

impl<'a> Decoder<'a> {
    /// Verifies magic and checksum, returning a reader over the payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the bytes cannot even hold the framing,
    /// [`CodecError::BadMagic`] on an artifact-kind mismatch, and
    /// [`CodecError::BadChecksum`] on corruption.
    pub fn new(bytes: &'a [u8], magic: [u8; MAGIC_LEN]) -> Result<Self, CodecError> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(CodecError::Truncated { what: "framing" });
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split_at gave 8 bytes"));
        let computed = fnv1a64(body);
        if computed != stored {
            return Err(CodecError::BadChecksum { computed, stored });
        }
        let mut found = [0u8; MAGIC_LEN];
        found.copy_from_slice(&body[..MAGIC_LEN]);
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        let version = u32::from_le_bytes(
            body[MAGIC_LEN..HEADER_LEN]
                .try_into()
                .expect("header slice is 4 bytes"),
        );
        Ok(Self {
            payload: &body[HEADER_LEN..],
            pos: 0,
            version,
        })
    }

    /// Format version from the header.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the payload is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the payload is exhausted.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the payload is exhausted.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the payload is exhausted.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length prefix and validates it against the bytes actually
    /// present, so a corrupt length can never drive a huge allocation.
    fn take_len(&mut self, elem_size: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.take_u64()?;
        let need = (n as usize).checked_mul(elem_size);
        match need {
            Some(bytes) if bytes <= self.remaining() => Ok(n as usize),
            _ => Err(CodecError::Truncated { what }),
        }
    }

    /// Reads a length-prefixed `u32` slice.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the declared length exceeds the bytes
    /// present.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.take_len(4, "u32 slice")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` slice.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the declared length exceeds the bytes
    /// present.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.take_len(8, "u64 slice")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_u64()?);
        }
        Ok(out)
    }

    /// Asserts the whole payload was consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if payload bytes remain — except when
    /// the artifact's version is *newer* than the fields the caller knows,
    /// which the caller signals by using [`Decoder::finish_lenient`] instead.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }

    /// Like [`Decoder::finish`], but tolerates unread payload — used when an
    /// older reader decodes a newer (but still compatible) version whose
    /// appended fields it does not know about.
    pub fn finish_lenient(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; MAGIC_LEN] = *b"RRTEST\0\0";

    fn sample() -> Vec<u8> {
        let mut enc = Encoder::new(MAGIC, 3);
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 1);
        enc.put_f64(-1.5);
        enc.put_u32_slice(&[1, 2, 3]);
        enc.put_u64_slice(&[]);
        enc.finish()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let bytes = sample();
        let mut dec = Decoder::new(&bytes, MAGIC).unwrap();
        assert_eq!(dec.version(), 3);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.take_f64().unwrap(), -1.5);
        assert_eq!(dec.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.take_u64_vec().unwrap(), Vec::<u64>::new());
        dec.finish().unwrap();
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = match Decoder::new(&bytes[..cut], MAGIC) {
                Err(e) => e,
                Ok(mut dec) => loop {
                    // Framing may survive a cut only if fields then fail.
                    match dec.take_u8() {
                        Ok(_) => continue,
                        Err(e) => break e,
                    }
                },
            };
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::BadChecksum { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            let r = Decoder::new(&bad, MAGIC);
            assert!(r.is_err(), "flip in byte {byte} went unnoticed");
        }
    }

    #[test]
    fn wrong_magic_is_its_own_error() {
        let mut enc = Encoder::new(*b"OTHERFMT", 1);
        enc.put_u8(0);
        let bytes = enc.finish();
        assert!(matches!(
            Decoder::new(&bytes, MAGIC),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_does_not_allocate() {
        let mut enc = Encoder::new(MAGIC, 1);
        enc.put_u64(u64::MAX); // a slice length promising 2^64 elements
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, MAGIC).unwrap();
        assert!(matches!(
            dec.take_u32_vec(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected_strictly_but_allowed_leniently() {
        let mut enc = Encoder::new(MAGIC, 1);
        enc.put_u32(5);
        enc.put_u32(6);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes, MAGIC).unwrap();
        assert_eq!(dec.take_u32().unwrap(), 5);
        assert!(matches!(
            dec.finish(),
            Err(CodecError::TrailingBytes { count: 4 })
        ));
        let mut dec = Decoder::new(&bytes, MAGIC).unwrap();
        assert_eq!(dec.take_u32().unwrap(), 5);
        dec.finish_lenient();
    }

    #[test]
    fn errors_display_cleanly() {
        let e = CodecError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = CodecError::invalid("free list names block 99 of 16");
        assert!(e.to_string().contains("block 99"));
    }
}
