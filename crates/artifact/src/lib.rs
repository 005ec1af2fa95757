//! # eb-artifact — versioned, checksummed on-disk model artifacts
//!
//! The `.ebm` container: a binary format carrying a complete serialized
//! [`Bnn`] and, optionally, a snapshot of *prepared* backend state so
//! serving can deploy from a file with zero training or crossbar
//! programming on the path.
//!
//! Two layers of integrity checking back every load: an FNV-1a-64
//! whole-file checksum covering every byte outside its own storage, and
//! a CRC-32 per section. Decoding is strict — truncated, corrupted,
//! version-skewed, or structurally invalid bytes produce a typed
//! [`ArtifactError`], never a panic, and length prefixes are validated
//! against the bytes actually present before anything is allocated.
//!
//! ```no_run
//! use eb_artifact::{read_model, write_model};
//! # fn net() -> eb_bitnn::Bnn { unimplemented!() }
//! let info = write_model("model.ebm", &net(), None)?;
//! let artifact = read_model("model.ebm")?;
//! assert_eq!(artifact.info.checksum, info.checksum);
//! # Ok::<(), eb_artifact::ArtifactError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod format;
mod model;
mod prepared;
mod wire;

use std::fmt;
use std::path::Path;

use eb_bitnn::{Bnn, Layer, Shape};

pub use error::ArtifactError;
pub use format::{FORMAT_VERSION, MAGIC, SECTION_MODEL, SECTION_PREPARED};
pub use prepared::{
    DesignFingerprint, Prepared, PreparedBackend, PreparedMat, PreparedMeta, PreparedState,
};

use format::{decode_container, encode_container, section_name};

/// Identity of an encoded artifact: format version plus the whole-file
/// checksum, as reported by `GET /v1/models` for file-loaded deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Container format version.
    pub version: u16,
    /// FNV-1a-64 whole-file checksum.
    pub checksum: u64,
}

impl fmt::Display for ArtifactInfo {
    /// `format v1, checksum 0x…` — matching the hex rendering of
    /// [`Summary`] and `GET /v1/models`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "format v{}, checksum {:#018x}",
            self.version, self.checksum
        )
    }
}

/// A fully decoded artifact.
#[derive(Debug)]
pub struct Artifact {
    /// The serialized network, shape-checked on load.
    pub net: Bnn,
    /// Prepared backend state, when the artifact carries a snapshot.
    pub prepared: Option<Prepared>,
    /// Version and checksum of the bytes this was decoded from.
    pub info: ArtifactInfo,
}

/// Encodes a network (and optional prepared state) into `.ebm` bytes.
///
/// # Errors
///
/// Returns [`ArtifactError::Malformed`] when the network or state
/// contains a construct format v1 cannot represent.
pub fn encode(net: &Bnn, prepared: Option<&Prepared>) -> Result<Vec<u8>, ArtifactError> {
    let mut sections = vec![(SECTION_MODEL, model::encode_model(net)?)];
    if let Some(p) = prepared {
        sections.push((SECTION_PREPARED, prepared::encode_prepared(p)?));
    }
    Ok(encode_container(&sections))
}

/// Validates the container once and decodes every known section,
/// returning the artifact alongside the section table (for
/// [`inspect_bytes`], which would otherwise re-hash the whole file).
fn decode_with_sections(bytes: &[u8]) -> Result<(Artifact, Vec<SectionSummary>), ArtifactError> {
    let (version, checksum, sections) = decode_container(bytes)?;
    let mut model = None;
    let mut prepared = None;
    for s in &sections {
        let slot = match s.id {
            SECTION_MODEL => &mut model,
            SECTION_PREPARED => &mut prepared,
            // Unknown ids are forward-compat: CRC-validated by the
            // container decode, then skipped.
            _ => continue,
        };
        if slot.replace(s.payload).is_some() {
            return Err(ArtifactError::malformed(format!(
                "duplicate {} section",
                section_name(s.id)
            )));
        }
    }
    let model = model.ok_or(ArtifactError::MissingSection { name: "model" })?;
    let summaries = sections
        .iter()
        .map(|s| SectionSummary {
            id: s.id,
            kind: section_name(s.id),
            offset: s.offset,
            len: s.len,
            crc32: s.crc,
        })
        .collect();
    let net = model::decode_model(model)?;
    let prepared = prepared.map(prepared::decode_prepared).transpose()?;
    Ok((
        Artifact {
            net,
            prepared,
            info: ArtifactInfo { version, checksum },
        },
        summaries,
    ))
}

/// Decodes `.ebm` bytes into a network and optional prepared state.
///
/// # Errors
///
/// Returns a typed [`ArtifactError`] for any invalid input: wrong magic,
/// unsupported version, checksum mismatch, truncation, or structural
/// corruption. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
    Ok(decode_with_sections(bytes)?.0)
}

/// Encodes and writes an artifact, returning its identity.
///
/// The file is written to a sibling temporary path and atomically
/// renamed into place, so readers never observe a half-written artifact.
///
/// # Errors
///
/// Returns [`ArtifactError::Io`] on filesystem failure and
/// [`ArtifactError::Malformed`] when the input cannot be encoded.
pub fn write_model(
    path: impl AsRef<Path>,
    net: &Bnn,
    prepared: Option<&Prepared>,
) -> Result<ArtifactInfo, ArtifactError> {
    let path = path.as_ref();
    let bytes = encode(net, prepared)?;
    let info = ArtifactInfo {
        version: FORMAT_VERSION,
        checksum: u64::from_le_bytes(bytes[8..16].try_into().expect("header len")),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(info)
}

/// Reads and fully decodes an artifact file.
///
/// # Errors
///
/// Returns [`ArtifactError::Io`] on filesystem failure, otherwise any
/// decode error for invalid bytes.
pub fn read_model(path: impl AsRef<Path>) -> Result<Artifact, ArtifactError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

/// One section-table row in a [`Summary`].
#[derive(Debug, Clone)]
pub struct SectionSummary {
    /// Section id.
    pub id: u16,
    /// Human-readable section kind.
    pub kind: &'static str,
    /// Byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Section CRC-32.
    pub crc32: u32,
}

/// One layer row in a [`Summary`].
#[derive(Debug, Clone)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// Layer kind (e.g. `bin-linear`).
    pub kind: &'static str,
    /// Kind-specific parameter description.
    pub detail: String,
}

/// Prepared-state description in a [`Summary`].
#[derive(Debug, Clone)]
pub struct PreparedSummary {
    /// Capturing backend name.
    pub backend: &'static str,
    /// Capture seed.
    pub seed: u64,
    /// Whether the noisy device profile was active.
    pub noisy: bool,
    /// Drift read-time ratio, if any.
    pub drift_t_ratio: Option<f64>,
    /// Whether a fault profile was active.
    pub faulted: bool,
    /// State-specific description (mapped layer count, program size...).
    pub detail: String,
}

/// Everything `eb-model inspect` prints: the result of a full strict
/// decode plus per-section metadata.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Container format version.
    pub version: u16,
    /// Whole-file FNV-1a-64 checksum.
    pub file_checksum: u64,
    /// Total file length in bytes.
    pub total_len: usize,
    /// Section table.
    pub sections: Vec<SectionSummary>,
    /// Network name.
    pub model_name: String,
    /// Network input shape.
    pub input_shape: String,
    /// Network output shape.
    pub output_shape: String,
    /// Layer table.
    pub layers: Vec<LayerSummary>,
    /// Prepared-state description, when present.
    pub prepared: Option<PreparedSummary>,
}

fn layer_summary(layer: &Layer) -> LayerSummary {
    let (kind, detail) = match layer {
        Layer::FixedLinear(l) => (
            "fixed-linear",
            format!(
                "{}×{} binary weights",
                l.weights().rows(),
                l.weights().cols()
            ),
        ),
        Layer::FixedConv(l) => (
            "fixed-conv",
            format!(
                "{} filters over {} ch, k={} s={} p={}",
                l.filters().rows(),
                l.in_channels(),
                l.kernel(),
                l.stride(),
                l.pad()
            ),
        ),
        Layer::BinLinear(l) => (
            "bin-linear",
            format!(
                "{}×{} binary weights",
                l.weights().rows(),
                l.weights().cols()
            ),
        ),
        Layer::BinConv(l) => (
            "bin-conv",
            format!(
                "{} filters over {} ch, k={} s={} p={}",
                l.filters().rows(),
                l.in_channels(),
                l.kernel(),
                l.stride(),
                l.pad()
            ),
        ),
        Layer::MaxPool2 => ("maxpool2", "2×2 OR pooling".to_string()),
        Layer::Flatten => ("flatten", "map → flat vector".to_string()),
        Layer::Output(l) => (
            "output",
            format!(
                "{} classes ← {} bits",
                l.weights().len(),
                l.weights().first().map_or(0, Vec::len)
            ),
        ),
        _ => ("unknown", "unrecognized layer kind".to_string()),
    };
    LayerSummary {
        name: layer.name().to_string(),
        kind,
        detail,
    }
}

fn prepared_summary(p: &Prepared) -> PreparedSummary {
    let detail = match &p.state {
        PreparedState::Epcm(mats) => format!("{} programmed electronic layer(s)", mats.len()),
        PreparedState::Photonic(mats) => format!("{} programmed optical layer(s)", mats.len()),
        PreparedState::Simulator { fingerprint, mats } => format!(
            "{} programmed {} layer(s); cost ledger recompiled on load",
            mats.len(),
            fingerprint.kind
        ),
    };
    PreparedSummary {
        backend: p.meta.backend.name(),
        seed: p.meta.seed,
        noisy: p.meta.noisy,
        drift_t_ratio: p.meta.drift_t_ratio,
        faulted: p.meta.fault.is_some(),
        detail,
    }
}

fn shape_string(shape: Shape) -> String {
    format!("{shape}")
}

/// Fully decodes `.ebm` bytes and summarizes the result.
///
/// This is a *strict* inspection: every checksum is verified and both
/// sections are decoded end to end, so a summary is also a proof that
/// the artifact loads.
///
/// # Errors
///
/// Any decode error for invalid bytes.
pub fn inspect_bytes(bytes: &[u8]) -> Result<Summary, ArtifactError> {
    let (artifact, sections) = decode_with_sections(bytes)?;
    Ok(Summary {
        version: artifact.info.version,
        file_checksum: artifact.info.checksum,
        total_len: bytes.len(),
        sections,
        model_name: artifact.net.name().to_string(),
        input_shape: shape_string(artifact.net.input_shape()),
        output_shape: shape_string(artifact.net.output_shape()),
        layers: artifact.net.layers().iter().map(layer_summary).collect(),
        prepared: artifact.prepared.as_ref().map(prepared_summary),
    })
}

/// Reads and summarizes an artifact file (see [`inspect_bytes`]).
///
/// # Errors
///
/// Returns [`ArtifactError::Io`] on filesystem failure, otherwise any
/// decode error.
pub fn inspect_file(path: impl AsRef<Path>) -> Result<Summary, ArtifactError> {
    let bytes = std::fs::read(path)?;
    inspect_bytes(&bytes)
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "format v{}, {} bytes, checksum {:#018x}",
            self.version, self.total_len, self.file_checksum
        )?;
        writeln!(f, "sections:")?;
        for s in &self.sections {
            writeln!(
                f,
                "  [{:>2}] {:<14} offset {:>8}  {:>10} bytes  crc32 {:08x}",
                s.id, s.kind, s.offset, s.len, s.crc32
            )?;
        }
        writeln!(
            f,
            "model `{}`: {} → {}",
            self.model_name, self.input_shape, self.output_shape
        )?;
        for (i, l) in self.layers.iter().enumerate() {
            writeln!(f, "  {:>3}  {:<12} {:<12} {}", i, l.name, l.kind, l.detail)?;
        }
        match &self.prepared {
            None => writeln!(f, "prepared state: none (backends program on load)")?,
            Some(p) => {
                writeln!(
                    f,
                    "prepared state: {} (seed {}, {} profile{}{})",
                    p.detail,
                    p.seed,
                    if p.noisy { "noisy" } else { "ideal" },
                    match p.drift_t_ratio {
                        Some(t) => format!(", drift t/t₀ = {t}"),
                        None => String::new(),
                    },
                    if p.faulted { ", fault profile" } else { "" },
                )?;
                writeln!(f, "  backend: {}", p.backend)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, OutputLinear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Bnn {
        let mut rng = StdRng::seed_from_u64(seed);
        Bnn::new(
            "mlp",
            Shape::Flat(16),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 16, 12, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 12, 12, &mut rng)),
                Layer::Output(OutputLinear::random("out", 12, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        let net = mlp(1);
        let bytes = encode(&net, None).unwrap();
        let artifact = decode(&bytes).unwrap();
        assert_eq!(artifact.net, net);
        assert!(artifact.prepared.is_none());
        assert_eq!(artifact.info.version, FORMAT_VERSION);
    }

    #[test]
    fn file_round_trip_reports_matching_info() {
        let dir = std::env::temp_dir().join("eb_artifact_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ebm");
        let net = mlp(2);
        let info = write_model(&path, &net, None).unwrap();
        let artifact = read_model(&path).unwrap();
        assert_eq!(artifact.info, info);
        assert_eq!(artifact.net, net);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_model_section_is_typed() {
        let bytes = encode_container(&[(SECTION_PREPARED, vec![1, 2, 3])]);
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::MissingSection { name: "model" })
        ));
    }

    #[test]
    fn duplicate_model_section_is_malformed() {
        let payload = model::encode_model(&mlp(3)).unwrap();
        let bytes = encode_container(&[(SECTION_MODEL, payload.clone()), (SECTION_MODEL, payload)]);
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let payload = model::encode_model(&mlp(4)).unwrap();
        let bytes = encode_container(&[(SECTION_MODEL, payload), (999, vec![0xAB; 16])]);
        let artifact = decode(&bytes).unwrap();
        assert_eq!(artifact.net.name(), "mlp");
    }

    #[test]
    fn summary_display_covers_the_artifact() {
        let net = mlp(5);
        let bytes = encode(&net, None).unwrap();
        let summary = inspect_bytes(&bytes).unwrap();
        assert_eq!(summary.model_name, "mlp");
        assert_eq!(summary.layers.len(), 3);
        assert_eq!(summary.sections.len(), 1);
        let text = summary.to_string();
        assert!(text.contains("model `mlp`"));
        assert!(text.contains("bin-linear"));
        assert!(text.contains("16"));
        assert!(text.contains("prepared state: none"));
    }
}
