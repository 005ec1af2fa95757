//! The `.ebm` container: magic header, format version, whole-file
//! checksum, and a typed section table.
//!
//! Byte layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "EBMF"
//! 4       2     format version (currently 1)
//! 6       2     section count
//! 8       8     FNV-1a-64 over bytes [0, 8), then [16, EOF) word-wise + length
//! 16      22·n  section table: n × { id: u16, offset: u64, len: u64, crc32: u32 }
//! ...           section payloads (pointed to by the table)
//! ```
//!
//! The file checksum covers every byte except its own storage, so any
//! single-bit corruption anywhere in the file is guaranteed to surface as
//! a typed error. Per-section CRC-32 values localize the damage (and are
//! validated even for section ids this reader does not understand).
//!
//! Versioning policy: a reader accepts exactly the major versions it
//! knows (currently 1) and rejects anything newer with
//! [`ArtifactError::UnsupportedVersion`]. *Within* a version, unknown
//! section ids are checksummed and skipped, which is the forward-compat
//! channel: future writers may add sections without breaking v1 readers.
//! The version moves only when the container or the model section
//! changes shape. A prepared-state payload whose layout changes takes a
//! new backend tag instead, so an older reader reports the unknown tag
//! as a typed error and a retired tag can decode to one that says to
//! re-export.

use crate::error::ArtifactError;
use crate::wire::{crc32, fnv1a64, fnv1a64_words};

/// The four magic bytes opening every artifact.
pub const MAGIC: [u8; 4] = *b"EBMF";

/// Newest container version this crate reads and the version it writes.
pub const FORMAT_VERSION: u16 = 1;

/// Section id of the mandatory serialized-network section.
pub const SECTION_MODEL: u16 = 1;

/// Section id of the optional prepared-backend-state section.
pub const SECTION_PREPARED: u16 = 2;

/// Upper bound on the section count a reader will accept; far above any
/// legitimate artifact, low enough that a corrupt count cannot drive a
/// large table allocation.
const MAX_SECTIONS: usize = 64;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 22;

/// One decoded section-table entry with its (CRC-verified) payload.
#[derive(Debug)]
pub(crate) struct RawSection<'a> {
    pub id: u16,
    pub offset: u64,
    pub len: u64,
    pub crc: u32,
    pub payload: &'a [u8],
}

/// Human-readable name for a section id.
pub(crate) fn section_name(id: u16) -> &'static str {
    match id {
        SECTION_MODEL => "model",
        SECTION_PREPARED => "prepared-state",
        _ => "unknown",
    }
}

/// Assembles a container from `(id, payload)` pairs, filling in the
/// section table and both checksum layers.
pub(crate) fn encode_container(sections: &[(u16, Vec<u8>)]) -> Vec<u8> {
    assert!(sections.len() <= MAX_SECTIONS, "too many sections");
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let payload_len: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut buf = Vec::with_capacity(HEADER_LEN + table_len + payload_len);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(sections.len() as u16).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
    let mut offset = (HEADER_LEN + table_len) as u64;
    for (id, payload) in sections {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&offset.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    for (_, payload) in sections {
        buf.extend_from_slice(payload);
    }
    let checksum = file_checksum(&buf);
    buf[8..16].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// The whole-file FNV-1a-64: every byte except the checksum field
/// itself. The 8-byte prefix is absorbed byte-wise, the body in 64-bit
/// words plus its length (see [`fnv1a64_words`]) — artifacts run to
/// megabytes and this digest is on the cold-start critical path.
fn file_checksum(bytes: &[u8]) -> u64 {
    fnv1a64_words(fnv1a64(&bytes[..8]), &bytes[HEADER_LEN..])
}

/// Validates the header, file checksum, section table, and every
/// section's CRC; returns `(version, file_checksum, sections)`.
pub(crate) fn decode_container(
    bytes: &[u8],
) -> Result<(u16, u64, Vec<RawSection<'_>>), ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated { context: "header" });
    }
    if bytes[..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = u16::from_le_bytes(bytes[6..8].try_into().expect("len 2")) as usize;
    if count > MAX_SECTIONS {
        return Err(ArtifactError::malformed(format!(
            "section count {count} exceeds the maximum of {MAX_SECTIONS}"
        )));
    }
    let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("len 8"));
    let computed = file_checksum(bytes);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch {
            what: "file checksum",
            expected: stored,
            got: computed,
        });
    }
    let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(ArtifactError::Truncated {
            context: "section table",
        });
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let id = u16::from_le_bytes(bytes[e..e + 2].try_into().expect("len 2"));
        let offset = u64::from_le_bytes(bytes[e + 2..e + 10].try_into().expect("len 8"));
        let len = u64::from_le_bytes(bytes[e + 10..e + 18].try_into().expect("len 8"));
        let crc = u32::from_le_bytes(bytes[e + 18..e + 22].try_into().expect("len 4"));
        let end = offset.checked_add(len).ok_or_else(|| {
            ArtifactError::malformed(format!("section {id}: offset + length overflows"))
        })?;
        if offset < table_end as u64 || end > bytes.len() as u64 {
            return Err(ArtifactError::malformed(format!(
                "section {id}: range [{offset}, {end}) escapes the file ({} bytes)",
                bytes.len()
            )));
        }
        let payload = &bytes[offset as usize..end as usize];
        let got = crc32(payload);
        if got != crc {
            return Err(ArtifactError::ChecksumMismatch {
                what: "section checksum",
                expected: u64::from(crc),
                got: u64::from(got),
            });
        }
        sections.push(RawSection {
            id,
            offset,
            len,
            crc,
            payload,
        });
    }
    Ok((version, stored, sections))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_container(&[
            (SECTION_MODEL, vec![1, 2, 3, 4, 5]),
            (SECTION_PREPARED, vec![9, 9]),
        ])
    }

    #[test]
    fn container_round_trips() {
        let buf = sample();
        let (version, checksum, sections) = decode_container(&buf).unwrap();
        assert_eq!(version, FORMAT_VERSION);
        assert_ne!(checksum, 0);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].id, SECTION_MODEL);
        assert_eq!(sections[0].payload, &[1, 2, 3, 4, 5]);
        assert_eq!(sections[1].id, SECTION_PREPARED);
        assert_eq!(sections[1].len, 2);
    }

    #[test]
    fn bad_magic_and_version() {
        let mut buf = sample();
        buf[0] = b'X';
        assert!(matches!(
            decode_container(&buf),
            Err(ArtifactError::BadMagic)
        ));
        let mut buf = sample();
        buf[4] = 99;
        assert!(matches!(
            decode_container(&buf),
            Err(ArtifactError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let golden = sample();
        for byte in 0..golden.len() {
            for bit in 0..8 {
                let mut buf = golden.clone();
                buf[byte] ^= 1 << bit;
                assert!(
                    decode_container(&buf).is_err(),
                    "flip at byte {byte} bit {bit} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let golden = sample();
        for len in 0..golden.len() {
            assert!(
                decode_container(&golden[..len]).is_err(),
                "truncation to {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn section_escaping_file_rejected() {
        // Hand-build a table entry pointing past EOF, re-sealing the file
        // checksum so only the range check can object.
        let mut buf = sample();
        let len_field = 16 + 10; // first entry's len
        buf[len_field..len_field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = file_checksum(&buf);
        buf[8..16].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_container(&buf),
            Err(ArtifactError::Malformed { .. })
        ));
    }
}
