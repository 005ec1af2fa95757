//! The discoverable entry point: `Runtime::builder().backend(kind)`.

use crate::analog::{EpcmBackend, PhotonicBackend};
use crate::error::EbError;
use crate::serve::{PoolConfig, ServePool};
use crate::session::{sole_session, Backend, NoiseConfig, NoiseProfile, Session, SessionOpts};
use crate::simulator::SimulatorBackend;
use crate::software::SoftwareBackend;
use eb_artifact::{Artifact, ArtifactInfo, Prepared};
use eb_bitnn::Bnn;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// The built-in substrates, selectable by configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// Software golden reference (word-level XNOR-GEMM kernels).
    Software,
    /// TacitMap on simulated 1T1R ePCM crossbars (analog VMM).
    Epcm,
    /// TacitMap on simulated oPCM crossbars with WDM MMM.
    Photonic,
    /// The compiled instruction-level accelerator simulator.
    Simulator,
}

impl BackendKind {
    /// Every built-in backend, in software → simulator order.
    pub fn all() -> [Self; 4] {
        [Self::Software, Self::Epcm, Self::Photonic, Self::Simulator]
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Software => "software",
            Self::Epcm => "epcm",
            Self::Photonic => "photonic",
            Self::Simulator => "simulator",
        }
    }

    /// Instantiates the backend with its paper-class default
    /// configuration.
    fn instantiate(&self) -> Box<dyn Backend> {
        match self {
            Self::Software => Box::new(SoftwareBackend),
            Self::Epcm => Box::<EpcmBackend>::default(),
            Self::Photonic => Box::<PhotonicBackend>::default(),
            Self::Simulator => Box::<SimulatorBackend>::default(),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = EbError;

    /// Parses a [`BackendKind::name`] (case-insensitive) — the inverse
    /// of [`fmt::Display`], for CLI flags like `eb-serve --backend epcm`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Self::all()
            .into_iter()
            .find(|kind| kind.name() == lower)
            .ok_or_else(|| {
                EbError::Config(format!(
                    "unknown backend {s:?}; expected one of: software, epcm, photonic, simulator"
                ))
            })
    }
}

/// A configured runtime: one backend plus the session options it prepares
/// with. Compile once with [`Runtime::prepare`], then serve many
/// inferences through the returned [`Session`].
///
/// # Examples
///
/// ```
/// use eb_runtime::{BackendKind, Runtime};
/// use eb_bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let net = Bnn::new(
///     "demo",
///     Shape::Flat(12),
///     vec![
///         Layer::FixedLinear(FixedLinear::random("in", 12, 8, &mut rng)),
///         Layer::BinLinear(BinLinear::random("h", 8, 8, &mut rng)),
///         Layer::Output(OutputLinear::random("out", 8, 3, &mut rng)),
///     ],
/// )?;
/// let x = Tensor::from_fn(&[12], |i| (i as f32 * 0.3).sin());
/// let want = net.forward(&x)?;
/// for kind in BackendKind::all() {
///     let mut session = Runtime::builder().backend(kind).prepare(&net)?;
///     assert_eq!(session.infer(&x)?, want, "{kind}");
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Runtime {
    backend: Box<dyn Backend>,
    opts: SessionOpts,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("backend", &self.backend.name())
            .field("opts", &self.opts)
            .finish()
    }
}

impl Runtime {
    /// Starts configuring a runtime (defaults: software backend, ideal
    /// noise, seed 0).
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Prepares a serving session for `net` on the configured backend.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] when the backend cannot host the network.
    pub fn prepare(&self, net: &Bnn) -> Result<Box<dyn Session>, EbError> {
        self.backend.prepare(net, &self.opts)
    }

    /// Builds a sharded serving pool of `net` replicas over this
    /// runtime's backend and options (see [`ServePool::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] for a degenerate pool shape or when any
    /// replica fails to prepare.
    pub fn serve(&self, net: &Bnn, config: PoolConfig) -> Result<ServePool, EbError> {
        ServePool::new(self, net, config)
    }

    /// Exports `net` as a `.ebm` artifact at `path`: the serialized
    /// network plus — when the configured backend supports it — a
    /// snapshot of the *prepared* substrate state (programmed crossbar
    /// conductances and post-programming RNG positions) captured under
    /// this runtime's session options, so a later
    /// [`Runtime::prepare_from_file`] skips the programming work.
    ///
    /// The software backend has nothing to snapshot; its artifacts carry
    /// only the model section and load through an ordinary `prepare`.
    ///
    /// # Errors
    ///
    /// Returns any prepare-time [`EbError`] from the substrate and
    /// [`EbError::Artifact`] for encode/filesystem failures.
    pub fn save_artifact(
        &self,
        net: &Bnn,
        path: impl AsRef<Path>,
    ) -> Result<ArtifactInfo, EbError> {
        let prepared = self.backend.export_prepared(net, &self.opts)?;
        Ok(eb_artifact::write_model(path, net, prepared.as_ref())?)
    }

    /// Prepares a serving session from a decoded [`Artifact`]. When the
    /// artifact carries a prepared section, its capture conditions must
    /// match this runtime's backend and session options *exactly* —
    /// backend, seed, noise profile, drift, fault profile — and the
    /// session is then restored without re-programming; a mismatch is a
    /// typed [`EbError::Config`], never a silent fallback to fresh
    /// preparation. Artifacts without prepared state prepare normally
    /// from the model section.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for capture-condition conflicts or
    /// structurally mismatched state, and any prepare-time [`EbError`].
    pub fn prepare_from_artifact(&self, artifact: Artifact) -> Result<Box<dyn Session>, EbError> {
        let sessions = self.prepare_replicas_with(&artifact.net, artifact.prepared, 1)?;
        sole_session(self.backend.name(), sessions)
    }

    /// Reads a `.ebm` artifact and prepares a serving session from it
    /// (see [`Runtime::prepare_from_artifact`] for the prepared-state
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Artifact`] for unreadable/corrupt bytes plus
    /// everything [`Runtime::prepare_from_artifact`] reports.
    pub fn prepare_from_file(&self, path: impl AsRef<Path>) -> Result<Box<dyn Session>, EbError> {
        self.prepare_from_artifact(eb_artifact::read_model(path)?)
    }

    /// Prepares `replicas` shared-core sessions in one pass — programming
    /// or restoring the substrate **once** and minting cheap replicas
    /// from it (see [`Backend::prepare_replicas`]). With a prepared-state
    /// snapshot, its capture conditions are first validated against this
    /// runtime's options, and the restored state then feeds *all*
    /// replicas. This is the one deploy seam under [`ServePool`] and
    /// [`Runtime::prepare_from_artifact`].
    pub(crate) fn prepare_replicas_with(
        &self,
        net: &Bnn,
        prepared: Option<Prepared>,
        replicas: usize,
    ) -> Result<Vec<Box<dyn Session>>, EbError> {
        if let Some(prepared) = &prepared {
            crate::artifacts::validate_restore(&prepared.meta, self.backend.name(), &self.opts)?;
        }
        self.backend
            .prepare_replicas(net, &self.opts, replicas, prepared)
    }

    /// Name of the configured backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The session options every `prepare` call applies.
    pub fn opts(&self) -> &SessionOpts {
        &self.opts
    }
}

/// Builder for [`Runtime`].
pub struct RuntimeBuilder {
    kind: BackendKind,
    custom: Option<Box<dyn Backend>>,
    opts: SessionOpts,
    pool: PoolConfig,
}

impl fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("kind", &self.kind)
            .field("custom", &self.custom.as_ref().map(|b| b.name()))
            .field("opts", &self.opts)
            .field("pool", &self.pool)
            .finish()
    }
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self {
            kind: BackendKind::Software,
            custom: None,
            opts: SessionOpts::default(),
            pool: PoolConfig::default(),
        }
    }
}

impl RuntimeBuilder {
    /// Selects a built-in backend (with its default configuration).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self.custom = None;
        self
    }

    /// Installs a custom (or non-default-configured) backend instance,
    /// e.g. [`SimulatorBackend::new`] over a specific [`eb_core::Design`]
    /// or an [`EpcmBackend::new`] with explicit crossbar geometry.
    pub fn backend_impl(mut self, backend: Box<dyn Backend>) -> Self {
        self.custom = Some(backend);
        self
    }

    /// Sets the RNG seed sessions own (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.noise.seed = seed;
        self
    }

    /// Sets the noise profile (defaults to [`NoiseProfile::Ideal`]).
    pub fn noise_profile(mut self, profile: NoiseProfile) -> Self {
        self.opts.noise.profile = profile;
        self
    }

    /// Requests resistance-drift modeling: crossbar reads resolve
    /// amorphous drift at time `t_ratio = t/t₀`. Only honored by the
    /// ePCM backend with a device model whose `drift_nu > 0`; every
    /// other configuration rejects it at `prepare` time.
    pub fn drift_t_ratio(mut self, t_ratio: f64) -> Self {
        self.opts.noise.drift_t_ratio = Some(t_ratio);
        self
    }

    /// Requests seeded cell-fault injection: every crossbar the session
    /// programs carries deterministic stuck-at / dead-cell faults drawn
    /// from `fault` (see [`eb_xbar::FaultConfig`]). Only the ePCM backend
    /// hosts electronic cell faults; every other backend rejects an
    /// active (nonzero-rate) profile at `prepare` time.
    pub fn fault(mut self, fault: eb_xbar::FaultConfig) -> Self {
        self.opts.noise.fault = Some(fault);
        self
    }

    /// Replaces the full noise configuration.
    pub fn noise(mut self, noise: NoiseConfig) -> Self {
        self.opts.noise = noise;
        self
    }

    /// Replaces all session options.
    pub fn opts(mut self, opts: SessionOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the number of session replicas (= worker threads) a
    /// [`RuntimeBuilder::serve`] pool prepares. Replica `i` serves with
    /// seed `seed + i`. Defaults to 1.
    pub fn replicas(mut self, n: usize) -> Self {
        self.pool.replicas = n;
        self
    }

    /// Bounds the micro-batch one pool replica coalesces into a single
    /// [`Session::infer_batch`] call (defaults to 32; 1 disables
    /// coalescing).
    pub fn max_batch(mut self, b: usize) -> Self {
        self.pool.max_batch = b;
        self
    }

    /// How long an idle pool replica lingers for coalescing partners
    /// after taking a first request (defaults to 200 µs).
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.pool.max_wait = wait;
        self
    }

    /// Bounds the pool's request queue; submitters block while it is
    /// full (defaults to 1024).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.pool.queue_capacity = capacity;
        self
    }

    /// Replaces the whole pool configuration.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Finalizes the runtime.
    pub fn build(self) -> Runtime {
        let backend = self.custom.unwrap_or_else(|| self.kind.instantiate());
        Runtime {
            backend,
            opts: self.opts,
        }
    }

    /// Convenience: builds the runtime and immediately prepares a session
    /// for `net`.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] when the backend cannot host the network.
    pub fn prepare(self, net: &Bnn) -> Result<Box<dyn Session>, EbError> {
        self.build().prepare(net)
    }

    /// Convenience: builds the runtime and immediately prepares a
    /// session from an `.ebm` artifact file (see
    /// [`Runtime::prepare_from_file`]).
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Artifact`] for unreadable/corrupt files and
    /// [`EbError::Config`] when a prepared-state section conflicts with
    /// the configured options.
    pub fn prepare_from_file(self, path: impl AsRef<Path>) -> Result<Box<dyn Session>, EbError> {
        self.build().prepare_from_file(path)
    }

    /// Convenience: builds the runtime and immediately starts a sharded
    /// serving pool of `net` replicas with the configured
    /// `replicas`/`max_batch`/`max_wait`/`queue_capacity` knobs.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] for a degenerate pool shape or when any
    /// replica fails to prepare.
    pub fn serve(self, net: &Bnn) -> Result<ServePool, EbError> {
        let pool = self.pool;
        self.build().serve(net, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_core::Design;

    #[test]
    fn builder_selects_backends_and_options() {
        let rt = Runtime::builder()
            .backend(BackendKind::Photonic)
            .seed(7)
            .noise_profile(NoiseProfile::Noisy)
            .build();
        assert_eq!(rt.backend_name(), "photonic");
        assert_eq!(rt.opts().noise.seed, 7);
        assert_eq!(rt.opts().noise.profile, NoiseProfile::Noisy);
        assert!(format!("{rt:?}").contains("photonic"));

        let custom = Runtime::builder()
            .backend_impl(Box::new(SimulatorBackend::new(Design::tacitmap_epcm())))
            .build();
        assert_eq!(custom.backend_name(), "simulator");
    }

    #[test]
    fn kinds_have_distinct_names() {
        let names: Vec<&str> = BackendKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["software", "epcm", "photonic", "simulator"]);
        assert_eq!(BackendKind::Epcm.to_string(), "epcm");
    }

    #[test]
    fn backend_kind_parses_its_own_names() {
        for kind in BackendKind::all() {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            // Case-insensitive, as CLI flags should be.
            assert_eq!(
                kind.name().to_uppercase().parse::<BackendKind>().unwrap(),
                kind
            );
        }
        assert!(matches!(
            "tpu".parse::<BackendKind>(),
            Err(EbError::Config(_))
        ));
    }
}
