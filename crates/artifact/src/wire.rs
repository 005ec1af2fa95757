//! Little-endian wire primitives: a growable writer, a strictly
//! bounds-checked reader, and the two checksums the container uses
//! (CRC-32/IEEE per section, FNV-1a-64 over the whole file).
//!
//! The reader is the artifact crate's safety boundary: every read is
//! bounds-checked, every length prefix is validated against the bytes
//! actually remaining *before* anything is allocated, and every decoder
//! must consume its payload exactly. Nothing here panics on untrusted
//! input.

use crate::error::ArtifactError;
use std::sync::OnceLock;

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Strictly bounds-checked little-endian reader over a borrowed slice.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What this reader is decoding, for `Truncated` contexts.
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if n > self.remaining() {
            return Err(ArtifactError::Truncated {
                context: self.context,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Strict boolean: any byte other than 0 or 1 is malformed, so a
    /// bit-flipped flag can never decode silently.
    pub fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ArtifactError::malformed(format!(
                "{}: boolean byte {v} (expected 0 or 1)",
                self.context
            ))),
        }
    }

    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub fn i64(&mut self) -> Result<i64, ArtifactError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub fn f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// u64 that must fit a `usize` on this platform.
    pub fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            ArtifactError::malformed(format!("{}: value {v} exceeds usize", self.context))
        })
    }

    /// A raw byte run of exactly `n` bytes — the bulk primitive behind
    /// the structure-of-arrays codecs, where one bounds check covers a
    /// whole tag or value array instead of one check per element.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Length-prefixed UTF-8 string; the length is validated against the
    /// remaining bytes before any allocation.
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::malformed(format!("{}: string is not UTF-8", self.context)))
    }

    /// A count prefix that claims `count` items of at least
    /// `min_item_bytes` each; rejected up front when the remaining bytes
    /// cannot possibly hold them, so corrupt counts never drive huge
    /// allocations.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, ArtifactError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(ArtifactError::Truncated {
                context: self.context,
            });
        }
        Ok(count)
    }

    /// The decoder must consume its payload exactly; stray trailing bytes
    /// mean the section is not what its length claims.
    pub fn finish(&self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(ArtifactError::malformed(format!(
                "{}: {} trailing bytes",
                self.context,
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// per-section integrity check.
///
/// Slice-by-8: eight table lanes let one loop iteration absorb eight
/// bytes with independent lookups, breaking the one-lookup-per-byte
/// dependency chain of the classic table-driven form. Same polynomial,
/// same values — only the schedule differs. Cold-start loads hash every
/// section, so this is on the deploy-from-file critical path.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        for lane in 1..8 {
            for i in 0..256 {
                let prev = t[lane - 1][i];
                t[lane][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(c[..4].try_into().expect("len 4"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit, byte-wise — the hash `eb-runtime` uses for per-model
/// seed derivation, and the seed of the whole-file checksum.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Continues an FNV-1a-64 chain by absorbing 64-bit little-endian words
/// (zero-padded tail), then the byte length.
///
/// Byte-wise FNV is a strict serial recurrence — one 64-bit multiply of
/// latency per byte — which made whole-file hashing the slowest part of
/// a cold-start load. Absorbing a word per step cuts the multiply chain
/// 8×. Detection is as strong as the byte-wise form for the failure
/// mode checksums exist to catch: xor-then-multiply-by-odd is a
/// bijection on `u64`, so any corruption confined to one word — any
/// single-bit flip — always changes the digest. Absorbing the length
/// last keeps zero-padded tails from colliding with truncations.
pub(crate) fn fnv1a64_words(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("len 8"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(i64::MIN + 1);
        w.put_f32(1.5);
        w.put_f64(-0.125);
        w.put_usize(999);
        w.put_str("héllo");
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), i64::MIN + 1);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.usize().unwrap(), 999);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_errors() {
        let buf = [1u8, 2];
        let mut r = ByteReader::new(&buf, "test");
        assert!(matches!(r.u32(), Err(ArtifactError::Truncated { .. })));
        let mut r = ByteReader::new(&buf, "test");
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut r = ByteReader::new(&[2u8], "test");
        assert!(matches!(r.bool(), Err(ArtifactError::Malformed { .. })));
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        assert!(matches!(r.str(), Err(ArtifactError::Malformed { .. })));
    }

    #[test]
    fn oversized_count_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf, "test");
        assert!(matches!(r.count(8), Err(ArtifactError::Truncated { .. })));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_matches_known_vector() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
