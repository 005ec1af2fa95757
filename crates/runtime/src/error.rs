//! The unified runtime error type.
//!
//! Every substrate crate keeps its own precise error enum; the runtime
//! wraps them all in [`EbError`] so `Backend`/`Session` signatures return
//! one type, with [`std::error::Error::source`] chaining back to the
//! crate-local error underneath.

use eb_artifact::ArtifactError;
use eb_bitnn::BitnnError;
use eb_core::{CompileError, OpticalMapError, SimError};
use eb_mapping::MappingError;
use eb_photonics::PhotonicsError;
use eb_xbar::XbarError;
use std::error::Error;
use std::fmt;

/// Any error a runtime backend or session can produce.
///
/// # Examples
///
/// ```
/// use eb_runtime::EbError;
/// use eb_mapping::MappingError;
/// use std::error::Error;
///
/// let e = EbError::from(MappingError::EmptyWeights);
/// assert!(e.source().is_some()); // chains to the MappingError
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum EbError {
    /// Software reference (layer shape/kind) error.
    Bitnn(BitnnError),
    /// Electronic crossbar mapping error.
    Mapping(MappingError),
    /// Raw crossbar array/periphery error.
    Xbar(XbarError),
    /// Photonic component error.
    Photonics(PhotonicsError),
    /// Optical TacitMap error.
    Optical(OpticalMapError),
    /// Accelerator compiler error.
    Compile(CompileError),
    /// Instruction-level simulator error.
    Sim(SimError),
    /// Model-artifact (`.ebm`) encode/decode or I/O error: corrupt,
    /// truncated, version-skewed, or unwritable bytes on the
    /// deploy-from-file path.
    Artifact(ArtifactError),
    /// A session was configured or driven inconsistently (e.g. a network
    /// topology the substrate cannot host).
    Config(String),
    /// A submitted request's deadline passed before a replica served it.
    /// The request never occupied a micro-batch slot; its ticket
    /// completes with this error instead of stale logits.
    DeadlineExceeded,
    /// A submitted request was cancelled (via
    /// [`Ticket::cancel`](crate::Ticket::cancel)) before a replica
    /// claimed it for serving.
    Cancelled,
    /// A non-blocking submission found the pool's bounded queue at
    /// capacity, so the request was **shed** instead of queued or
    /// blocked on. This is the graceful-degradation signal of the
    /// serving edge: callers (e.g. the HTTP frontend) translate it into
    /// "503 + `Retry-After`" so that excess offered load bounces
    /// quickly while accepted requests keep their latency.
    Overloaded,
    /// A health probe measured canary agreement below its configured
    /// floor: the session still executes, but its physics (faults,
    /// drift, noise) has degraded accuracy past the acceptable limit.
    /// The serving maintenance loop treats this as the trigger to
    /// reprogram a fresh pool.
    Degraded {
        /// Measured canary agreement in `[0, 1]`.
        agreement: f64,
        /// The probe's configured floor.
        floor: f64,
    },
}

impl fmt::Display for EbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bitnn(e) => write!(f, "software reference error: {e}"),
            Self::Mapping(e) => write!(f, "crossbar mapping error: {e}"),
            Self::Xbar(e) => write!(f, "crossbar error: {e}"),
            Self::Photonics(e) => write!(f, "photonics error: {e}"),
            Self::Optical(e) => write!(f, "optical mapping error: {e}"),
            Self::Compile(e) => write!(f, "compile error: {e}"),
            Self::Sim(e) => write!(f, "simulation error: {e}"),
            Self::Artifact(e) => write!(f, "model artifact error: {e}"),
            Self::Config(msg) => write!(f, "runtime configuration error: {msg}"),
            Self::DeadlineExceeded => {
                write!(f, "request deadline passed before a replica served it")
            }
            Self::Cancelled => write!(f, "request was cancelled before serving"),
            Self::Overloaded => {
                write!(f, "serving queue at capacity; request shed (retry later)")
            }
            Self::Degraded { agreement, floor } => write!(
                f,
                "session degraded: canary agreement {:.1}% below floor {:.1}%",
                agreement * 100.0,
                floor * 100.0
            ),
        }
    }
}

impl Error for EbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Bitnn(e) => Some(e),
            Self::Mapping(e) => Some(e),
            Self::Xbar(e) => Some(e),
            Self::Photonics(e) => Some(e),
            Self::Optical(e) => Some(e),
            Self::Compile(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Artifact(e) => Some(e),
            Self::Config(_)
            | Self::DeadlineExceeded
            | Self::Cancelled
            | Self::Overloaded
            | Self::Degraded { .. } => None,
        }
    }
}

impl From<BitnnError> for EbError {
    fn from(e: BitnnError) -> Self {
        Self::Bitnn(e)
    }
}

impl From<MappingError> for EbError {
    fn from(e: MappingError) -> Self {
        Self::Mapping(e)
    }
}

impl From<XbarError> for EbError {
    fn from(e: XbarError) -> Self {
        Self::Xbar(e)
    }
}

impl From<PhotonicsError> for EbError {
    fn from(e: PhotonicsError) -> Self {
        Self::Photonics(e)
    }
}

impl From<OpticalMapError> for EbError {
    fn from(e: OpticalMapError) -> Self {
        Self::Optical(e)
    }
}

impl From<CompileError> for EbError {
    /// A network the crossbar lowering cannot host, or programmed state
    /// that does not fit it, is a configuration error (see
    /// [`EbError::Config`]); mapping failures stay compile errors.
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Unsupported(msg) => Self::Config(msg),
            e => Self::Compile(e),
        }
    }
}

impl From<SimError> for EbError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<ArtifactError> for EbError {
    fn from(e: ArtifactError) -> Self {
        Self::Artifact(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_to_crate_errors() {
        let cases: Vec<EbError> = vec![
            BitnnError::InvalidNetwork("x".into()).into(),
            MappingError::EmptyWeights.into(),
            XbarError::DimensionMismatch {
                what: "row drive",
                expected: 1,
                got: 2,
            }
            .into(),
            PhotonicsError::WdmOverCapacity {
                requested: 17,
                capacity: 16,
            }
            .into(),
            OpticalMapError::from(MappingError::EmptyWeights).into(),
            SimError::NoHalt.into(),
            ArtifactError::BadMagic.into(),
        ];
        for e in &cases {
            assert!(e.source().is_some(), "{e} should chain");
            assert!(!e.to_string().is_empty());
        }
        assert!(EbError::Config("bad".into()).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: Error + Send + Sync>() {}
        check::<EbError>();
    }
}
