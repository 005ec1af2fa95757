//! The one batched crossbar lowering: whole networks executed layer by
//! layer on simulated crossbars, shared by every crossbar backend — the
//! electronic (TacitMap-ePCM) and photonic (oPCM + WDM) substrates here,
//! and the simulator backend, which serves the vcores the `eb-core`
//! compiler programmed through this same [`AnalogSession`].
//!
//! Binary layers drive `(x, x̄)` and read every XNOR popcount in one
//! activation; fixed-point first layers run bit-serially over the
//! offset-unsigned planes of `x' = q + 127`, with the per-output (or
//! per-window) quantization offset subtracted digitally; pooling,
//! flatten, and the real-valued output layer run on the (software)
//! scalar unit, where the compiled program runs them on the ECore vector
//! FU. In noiseless configurations every session is bit-exact against
//! the software reference and the compiler's `Machine`.

use crate::artifacts::captured_meta;
use crate::error::EbError;
use crate::session::{
    mint_replicas, Backend, NoiseProfile, Session, SessionMemory, SessionOpts, SessionStats,
};
use eb_artifact::{PhotonicMat, Prepared, PreparedBackend, PreparedState};
use eb_bitnn::{conv_output_dims, BitMatrix, BitTensor, BitVec, Bnn, Layer, Shape, Tensor};
use eb_core::{OpticalTacitMapped, SimStats};
use eb_mapping::{SeededTacitMapped, TacitMapped};
use eb_photonics::{Receiver, PAPER_WDM_CAPACITY};
use eb_xbar::{DeviceParams, FaultConfig, XbarConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Serves inference on simulated 1T1R ePCM crossbars in TacitMap layout
/// (`eb-mapping` → `eb-xbar` analog VMM).
///
/// Each matrix layer is programmed onto its own chunked crossbar set at
/// `prepare` time through [`TacitMapped::program_seeded`], so the session
/// owns every RNG involved: same `(network, config, seed)` ⇒ identical
/// outputs, noisy devices included.
#[derive(Debug, Clone)]
pub struct EpcmBackend {
    cfg: XbarConfig,
}

impl EpcmBackend {
    /// A backend over explicit crossbar geometry/periphery.
    pub fn new(cfg: XbarConfig) -> Self {
        Self { cfg }
    }

    /// The crossbar configuration sessions are programmed with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }
}

impl Default for EpcmBackend {
    /// Paper-class 256×256 1T1R crossbars with ideal devices.
    fn default() -> Self {
        Self::new(XbarConfig::new(256, 256))
    }
}

impl EpcmBackend {
    /// Programs every matrix layer of `net` onto fresh crossbars — the
    /// shared body under [`Backend::prepare_replicas`] and
    /// [`Backend::export_prepared`].
    fn program_session(&self, net: &Bnn, opts: &SessionOpts) -> Result<AnalogSession, EbError> {
        let cfg = match opts.noise.profile {
            NoiseProfile::Ideal => self.cfg.clone(),
            NoiseProfile::Noisy => self.cfg.clone().with_device(DeviceParams::noisy()),
        };
        let drift = validated_drift(&opts.noise, &cfg.device)?;
        // The session-level fault profile wins over any backend-level one.
        let fault = match validated_fault(&opts.noise)? {
            Some(f) => Some(f),
            None => cfg.fault,
        };
        let session = AnalogSession::build(net, |weights, layer| {
            let seed = layer_seed(opts.noise.seed, layer);
            let mut layer_cfg = cfg.clone();
            // Every layer gets its own fault-map seed: physically distinct
            // crossbars must not share a defect pattern.
            layer_cfg.fault = fault.map(|f| f.with_seed(layer_seed(f.seed, layer)));
            let mut mapped = TacitMapped::program_seeded(weights, &layer_cfg, seed)?;
            if let Some(t_ratio) = drift {
                mapped.set_drift_t_ratio(t_ratio);
            }
            Ok(MappedMat::Epcm(mapped))
        })?;
        Ok(session.named("epcm"))
    }

    /// Validates and rebuilds an ePCM session from a prepared-state
    /// snapshot — the restore branch of [`Backend::prepare_replicas`].
    fn restore_session(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        prepared: Prepared,
    ) -> Result<AnalogSession, EbError> {
        let _ = opts; // meta↔opts agreement is validated by the caller.
        let PreparedState::Epcm(mats) = prepared.state else {
            return Err(EbError::Config(format!(
                "artifact prepared state holds {} substrate state, which the epcm backend \
                 cannot restore",
                prepared.state.backend().name()
            )));
        };
        let mut mats = mats.into_iter();
        let session = AnalogSession::build(net, |weights, layer| {
            let mapped = restored_mat(&mut mats, weights, layer, "epcm")?;
            let cfg = mapped.inner().config();
            if (cfg.rows, cfg.cols) != (self.cfg.rows, self.cfg.cols) {
                return Err(EbError::Config(format!(
                    "artifact prepared state was programmed on {}×{} crossbars but this epcm \
                     backend is configured for {}×{}",
                    cfg.rows, cfg.cols, self.cfg.rows, self.cfg.cols
                )));
            }
            Ok(MappedMat::Epcm(mapped))
        })?;
        reject_leftover_state(mats.len())?;
        Ok(session.named("epcm"))
    }
}

impl Backend for EpcmBackend {
    fn name(&self) -> &'static str {
        "epcm"
    }

    fn prepare_replicas(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        replicas: usize,
        restore: Option<Prepared>,
    ) -> Result<Vec<Box<dyn Session>>, EbError> {
        let base = match restore {
            Some(prepared) => self.restore_session(net, opts, prepared)?,
            None => self.program_session(net, opts)?,
        };
        Ok(mint_replicas(
            base,
            opts.noise.seed,
            replicas,
            AnalogSession::replicate,
        ))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        let session = self.program_session(net, opts)?;
        let mats = session
            .mats
            .into_iter()
            .map(|m| match m {
                MappedMat::Epcm(seeded) => Ok(seeded),
                MappedMat::Photonic { .. } => Err(EbError::Config(
                    "internal error: photonic state inside an epcm session".into(),
                )),
            })
            .collect::<Result<Vec<_>, EbError>>()?;
        Ok(Some(Prepared {
            meta: captured_meta(PreparedBackend::Epcm, &opts.noise),
            state: PreparedState::Epcm(mats),
        }))
    }
}

/// Pops the next restored matrix for `layer`, rejecting a snapshot with
/// fewer programmed layers than the network or per-layer dimensions that
/// do not match the layer's weights.
pub(crate) fn restored_mat<M: RestoredDims>(
    mats: &mut impl Iterator<Item = M>,
    weights: &BitMatrix,
    layer: usize,
    substrate: &str,
) -> Result<M, EbError> {
    let mapped = mats.next().ok_or_else(|| {
        EbError::Config(format!(
            "artifact prepared state ran out of programmed matrices at layer {layer}; \
             it was captured for a different network"
        ))
    })?;
    let (fan_in, outs) = mapped.dims();
    if fan_in != weights.cols() || outs != weights.rows() {
        return Err(EbError::Config(format!(
            "artifact prepared state layer {layer} is programmed for a {outs}×{fan_in} weight \
             matrix but the network's layer is {}×{} on the {substrate} substrate; it was \
             captured for a different network",
            weights.rows(),
            weights.cols()
        )));
    }
    Ok(mapped)
}

/// A restored snapshot must be consumed exactly: trailing matrices mean
/// the artifact was captured for a different (deeper) network.
pub(crate) fn reject_leftover_state(leftover: usize) -> Result<(), EbError> {
    if leftover != 0 {
        return Err(EbError::Config(format!(
            "artifact prepared state has {leftover} more programmed matrices than this network \
             has matrix layers; it was captured for a different network"
        )));
    }
    Ok(())
}

/// The `(fan_in, out_vectors)` a restored matrix was programmed for.
pub(crate) trait RestoredDims {
    fn dims(&self) -> (usize, usize);
}

impl RestoredDims for SeededTacitMapped {
    fn dims(&self) -> (usize, usize) {
        (self.inner().fan_in(), self.inner().out_vectors())
    }
}

impl RestoredDims for PhotonicMat {
    fn dims(&self) -> (usize, usize) {
        (self.mapped.fan_in(), self.mapped.out_vectors())
    }
}

/// Checks that a requested drift configuration is one the effective device
/// model can actually honor — the pre-PR-4 runtime accepted `drift_nu`
/// configurations and then silently never applied them.
///
/// Returns the validated `t/t₀` to apply, or `None` when no drift was
/// requested.
fn validated_drift(
    noise: &crate::session::NoiseConfig,
    device: &DeviceParams,
) -> Result<Option<f64>, EbError> {
    let Some(t_ratio) = noise.drift_t_ratio else {
        return Ok(None);
    };
    if !t_ratio.is_finite() || t_ratio < 1.0 {
        return Err(EbError::Config(format!(
            "drift_t_ratio must be a finite time ratio ≥ 1 (got {t_ratio})"
        )));
    }
    if device.drift_nu <= 0.0 {
        return Err(EbError::Config(
            "drift_t_ratio is set but the effective device model has drift_nu = 0, so drift \
             would silently do nothing; use NoiseProfile::Noisy or an EpcmBackend whose \
             DeviceParams set drift_nu > 0"
                .into(),
        ));
    }
    Ok(Some(t_ratio))
}

/// Validates a requested session-level fault profile for the ePCM
/// backend: rates must form a probability assignment, and a vacuous
/// (all-zero) profile normalizes to `None` — it is the identity and
/// guaranteed bit-exact to the no-fault baseline.
fn validated_fault(noise: &crate::session::NoiseConfig) -> Result<Option<FaultConfig>, EbError> {
    let Some(fault) = noise.fault else {
        return Ok(None);
    };
    fault.validate()?;
    Ok(if fault.is_vacuous() {
        None
    } else {
        Some(fault)
    })
}

/// Rejects an *active* fault profile on a substrate that has no
/// electronic cells to fault — the same no-silent-fallback rule as
/// drift. Vacuous profiles are the identity and pass.
pub(crate) fn reject_active_fault(
    noise: &crate::session::NoiseConfig,
    substrate: &str,
) -> Result<(), EbError> {
    let Some(fault) = noise.fault else {
        return Ok(());
    };
    fault.validate()?;
    if fault.is_vacuous() {
        return Ok(());
    }
    Err(EbError::Config(format!(
        "the {substrate} backend does not model ePCM cell faults; unset NoiseConfig::fault \
         or use BackendKind::Epcm"
    )))
}

/// Serves inference on simulated oPCM crossbars behind the full optical
/// chain (transmitter → crossbar → photodetector/TIA), packing up to `K`
/// half-drive pairs into each WDM MMM step.
#[derive(Debug, Clone)]
pub struct PhotonicBackend {
    rows: usize,
    cols: usize,
    capacity: usize,
}

impl PhotonicBackend {
    /// A backend over explicit optical crossbar geometry and WDM capacity.
    pub fn new(rows: usize, cols: usize, capacity: usize) -> Self {
        Self {
            rows,
            cols,
            capacity: capacity.max(1),
        }
    }

    /// WDM capacity `K` of prepared sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for PhotonicBackend {
    /// Paper-class 256×256 oPCM crossbars at `K = 16`.
    fn default() -> Self {
        Self::new(256, 256, PAPER_WDM_CAPACITY)
    }
}

impl PhotonicBackend {
    /// Rejects the noise knobs the optical substrate cannot host.
    fn validate_opts(&self, opts: &SessionOpts) -> Result<(), EbError> {
        if opts.noise.drift_t_ratio.is_some() {
            return Err(EbError::Config(
                "the photonic backend does not model resistance drift (oPCM sidesteps it); \
                 unset NoiseConfig::drift_t_ratio or use BackendKind::Epcm"
                    .into(),
            ));
        }
        reject_active_fault(&opts.noise, "photonic")
    }

    /// Programs every matrix layer of `net` onto fresh optical crossbars
    /// — the shared body under [`Backend::prepare_replicas`] and
    /// [`Backend::export_prepared`].
    fn program_session(&self, net: &Bnn, opts: &SessionOpts) -> Result<AnalogSession, EbError> {
        self.validate_opts(opts)?;
        let session = AnalogSession::build(net, |weights, layer| {
            let mut rng = StdRng::seed_from_u64(layer_seed(opts.noise.seed, layer));
            let mut mapped = OpticalTacitMapped::program(
                weights,
                self.rows,
                self.cols,
                self.capacity,
                &mut rng,
            )?;
            if opts.noise.profile == NoiseProfile::Noisy {
                mapped.set_receiver(Receiver::noisy());
            }
            Ok(MappedMat::Photonic {
                mapped,
                rng,
                lanes: 0,
            })
        })?;
        Ok(session.named("photonic"))
    }

    /// Validates and rebuilds a photonic session from a prepared-state
    /// snapshot — the restore branch of [`Backend::prepare_replicas`].
    fn restore_session(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        prepared: Prepared,
    ) -> Result<AnalogSession, EbError> {
        // Meta↔opts agreement is validated by the caller; the substrate
        // capability checks still apply to crafted artifacts.
        self.validate_opts(opts)?;
        let PreparedState::Photonic(mats) = prepared.state else {
            return Err(EbError::Config(format!(
                "artifact prepared state holds {} substrate state, which the photonic backend \
                 cannot restore",
                prepared.state.backend().name()
            )));
        };
        let mut mats = mats.into_iter();
        let session = AnalogSession::build(net, |weights, layer| {
            let snap = restored_mat(&mut mats, weights, layer, "photonic")?;
            let (rows, cols) = snap.mapped.xbar_shape();
            if (rows, cols, snap.mapped.capacity()) != (self.rows, self.cols, self.capacity) {
                return Err(EbError::Config(format!(
                    "artifact prepared state was programmed on {rows}×{cols} optical crossbars \
                     at K = {} but this photonic backend is configured for {}×{} at K = {}",
                    snap.mapped.capacity(),
                    self.rows,
                    self.cols,
                    self.capacity
                )));
            }
            Ok(MappedMat::Photonic {
                mapped: snap.mapped,
                rng: StdRng::from_state(snap.rng_state),
                lanes: snap.lanes,
            })
        })?;
        reject_leftover_state(mats.len())?;
        Ok(session.named("photonic"))
    }
}

impl Backend for PhotonicBackend {
    fn name(&self) -> &'static str {
        "photonic"
    }

    fn prepare_replicas(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        replicas: usize,
        restore: Option<Prepared>,
    ) -> Result<Vec<Box<dyn Session>>, EbError> {
        let base = match restore {
            Some(prepared) => self.restore_session(net, opts, prepared)?,
            None => self.program_session(net, opts)?,
        };
        Ok(mint_replicas(
            base,
            opts.noise.seed,
            replicas,
            AnalogSession::replicate,
        ))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        let session = self.program_session(net, opts)?;
        let mats = session
            .mats
            .into_iter()
            .map(|m| match m {
                MappedMat::Photonic { mapped, rng, lanes } => Ok(PhotonicMat {
                    mapped,
                    rng_state: rng.state(),
                    lanes,
                }),
                MappedMat::Epcm(_) => Err(EbError::Config(
                    "internal error: electronic state inside a photonic session".into(),
                )),
            })
            .collect::<Result<Vec<_>, EbError>>()?;
        Ok(Some(Prepared {
            meta: captured_meta(PreparedBackend::Photonic, &opts.noise),
            state: PreparedState::Photonic(mats),
        }))
    }
}

/// Derives a per-layer RNG stream from the session seed so every mapped
/// layer draws independent programming noise, deterministically.
fn layer_seed(base: u64, layer: usize) -> u64 {
    base ^ (layer as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One matrix layer programmed onto a substrate.
#[derive(Debug, Clone)]
pub(crate) enum MappedMat {
    /// Electronic TacitMap crossbars owning their seeded RNG.
    Epcm(SeededTacitMapped),
    /// Optical TacitMap crossbars + the RNG for receiver/device draws.
    Photonic {
        mapped: OpticalTacitMapped,
        rng: StdRng,
        lanes: u64,
    },
}

impl MappedMat {
    /// Executes a batch of borrowed `(pos, neg)` half-drive pairs, one
    /// result row per pair. Electronic layers amortize the batch through
    /// the VMM engines' snapshot path; optical layers pack pairs into WDM
    /// lanes, the transmitter's `K` per MMM step.
    fn activate_pairs(&mut self, pairs: &[(&BitVec, &BitVec)]) -> Result<Vec<Vec<u32>>, EbError> {
        match self {
            Self::Epcm(m) => Ok(m.execute_ref_pairs(pairs)?),
            Self::Photonic { mapped, rng, lanes } => {
                let capacity = mapped.capacity();
                let mut out = Vec::with_capacity(pairs.len());
                for chunk in pairs.chunks(capacity) {
                    out.extend(mapped.execute_wdm_ref(chunk, rng)?);
                    *lanes += chunk.len() as u64;
                }
                Ok(out)
            }
        }
    }

    /// Crossbar steps taken so far.
    fn steps_taken(&self) -> u64 {
        match self {
            Self::Epcm(m) => m.steps_taken(),
            Self::Photonic { mapped, .. } => mapped.steps_taken(),
        }
    }

    /// WDM lanes carried so far (0 on the electronic substrate).
    fn wdm_lanes(&self) -> u64 {
        match self {
            Self::Epcm(_) => 0,
            Self::Photonic { lanes, .. } => *lanes,
        }
    }

    /// Modeled energy spent so far in joules ([`eb_xbar::XbarEnergies`]
    /// programming + VMM charges on the electronic substrate; the
    /// photonic substrate has no energy model here and reports 0).
    fn energy_j(&self) -> f64 {
        match self {
            Self::Epcm(m) => m.energy_j(),
            Self::Photonic { .. } => 0.0,
        }
    }

    /// Faulty cells across the layer's crossbars (0 on substrates
    /// without an electronic fault model).
    fn fault_count(&self) -> usize {
        match self {
            Self::Epcm(m) => m.fault_count(),
            Self::Photonic { .. } => 0,
        }
    }

    /// A replica sharing this layer's programmed crossbar core, with a
    /// fresh execution RNG at `seed` (the caller passes the replica's
    /// [`layer_seed`] derivation) and zeroed telemetry.
    fn replicate(&self, seed: u64) -> Self {
        match self {
            Self::Epcm(m) => Self::Epcm(m.replicate(seed)),
            Self::Photonic { mapped, .. } => Self::Photonic {
                mapped: mapped.replicate(),
                rng: StdRng::seed_from_u64(seed),
                lanes: 0,
            },
        }
    }

    /// Approximate bytes of the `Arc`-shared programmed core.
    fn core_bytes(&self) -> usize {
        match self {
            Self::Epcm(m) => m.core_bytes(),
            Self::Photonic { mapped, .. } => mapped.core_bytes(),
        }
    }

    /// Approximate bytes private to this replica's copy of the layer.
    fn rind_bytes(&self) -> usize {
        match self {
            Self::Epcm(m) => m.rind_bytes(),
            Self::Photonic { mapped, .. } => {
                mapped.rind_bytes() + std::mem::size_of::<StdRng>() + std::mem::size_of::<u64>()
            }
        }
    }
}

/// Spatial parameters of one convolutional layer instance.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

/// Per-layer execution recipe, parallel to `Bnn::layers()`.
#[derive(Debug, Clone)]
enum LayerExec {
    /// Bit-serial dense first layer; `offsets[j] = 127·Σwⱼ`.
    FixedLinear { mat: usize, offsets: Vec<i64> },
    /// Single-activation binary dense layer.
    BinLinear { mat: usize },
    /// Bit-serial conv; `offsets[window][f] = 127·Σw over valid positions`.
    FixedConv {
        mat: usize,
        geom: ConvGeom,
        offsets: Vec<Vec<i64>>,
    },
    /// Binary conv: all windows of all samples in one batched activation.
    BinConv { mat: usize, geom: ConvGeom },
    /// 2×2 OR pooling (scalar unit).
    MaxPool2,
    /// Map → flat vector (layout no-op).
    Flatten,
    /// Real-valued output layer (scalar unit).
    Output,
}

impl LayerExec {
    /// Approximate bytes of this step, its offset tables included.
    fn bytes(&self) -> usize {
        let tables = match self {
            Self::FixedLinear { offsets, .. } => std::mem::size_of_val(offsets.as_slice()),
            Self::FixedConv { offsets, .. } => offsets
                .iter()
                .map(|o| std::mem::size_of::<Vec<i64>>() + std::mem::size_of_val(o.as_slice()))
                .sum(),
            _ => 0,
        };
        std::mem::size_of::<Self>() + tables
    }
}

/// Activation state of one sample while a batch walks the layer stack.
#[derive(Debug, Clone)]
enum AnalogAct {
    /// Still reading from the caller's input tensor (before layer 0).
    Input,
    /// Flat binary activation.
    Bin(BitVec),
    /// Spatial binary activation.
    Map(BitTensor),
    /// Final logits.
    Logits(Tensor),
}

/// A network programmed onto an analog substrate, serving through the
/// shared layer-wise lowering.
///
/// The expensive, immutable parts — the network weights, the execution
/// plan with its digital offset constants, and (inside each
/// [`MappedMat`]) the programmed crossbar cores — are `Arc`-shared, so
/// [`AnalogSession::replicate`] mints additional replicas without
/// re-programming a single device.
#[derive(Debug, Clone)]
pub(crate) struct AnalogSession {
    name: &'static str,
    net: Arc<Bnn>,
    mats: Vec<MappedMat>,
    /// Network layer index each entry of `mats` was programmed for —
    /// what [`AnalogSession::replicate`] feeds back into [`layer_seed`]
    /// so replica RNG streams stay per-layer independent.
    mat_layers: Vec<usize>,
    plan: Arc<Vec<LayerExec>>,
    inferences: u64,
    /// Accumulated wall-clock serving time (monotone nondecreasing).
    latency_ns: f64,
    /// A compiled program's modeled per-inference cost. When set,
    /// [`Session::stats`] charges it once per served inference instead of
    /// reporting the substrate counters and wall-clock time.
    ledger: Option<Arc<SimStats>>,
}

impl AnalogSession {
    /// Walks the network once, programming every matrix layer through
    /// `program` and precomputing the digital offset constants.
    pub(crate) fn build(
        net: &Bnn,
        mut program: impl FnMut(&BitMatrix, usize) -> Result<MappedMat, EbError>,
    ) -> Result<Self, EbError> {
        let mut mats = Vec::new();
        let mut mat_layers = Vec::new();
        let mut program = |weights: &BitMatrix, layer: usize| {
            mat_layers.push(layer);
            program(weights, layer)
        };
        let mut plan = Vec::with_capacity(net.layers().len());
        for (i, layer) in net.layers().iter().enumerate() {
            let exec = match layer {
                Layer::FixedLinear(l) => {
                    mats.push(program(l.weights(), i)?);
                    LayerExec::FixedLinear {
                        mat: mats.len() - 1,
                        offsets: dense_offsets(l.weights()),
                    }
                }
                Layer::BinLinear(l) => {
                    mats.push(program(l.weights(), i)?);
                    LayerExec::BinLinear {
                        mat: mats.len() - 1,
                    }
                }
                Layer::FixedConv(l) => {
                    let geom = conv_geom(
                        net.shape_at(i),
                        l.in_channels(),
                        l.kernel(),
                        l.stride(),
                        l.pad(),
                    )?;
                    mats.push(program(l.filters(), i)?);
                    LayerExec::FixedConv {
                        mat: mats.len() - 1,
                        geom,
                        offsets: conv_window_offsets(l.filters(), &geom),
                    }
                }
                Layer::BinConv(l) => {
                    let geom = conv_geom(
                        net.shape_at(i),
                        l.in_channels(),
                        l.kernel(),
                        l.stride(),
                        l.pad(),
                    )?;
                    mats.push(program(l.filters(), i)?);
                    LayerExec::BinConv {
                        mat: mats.len() - 1,
                        geom,
                    }
                }
                Layer::MaxPool2 => LayerExec::MaxPool2,
                Layer::Flatten => LayerExec::Flatten,
                Layer::Output(_) => LayerExec::Output,
                other => {
                    return Err(EbError::Config(format!(
                        "layer {i} ({}) is not supported on analog substrates",
                        other.name()
                    )))
                }
            };
            plan.push(exec);
        }
        Ok(Self {
            name: "analog",
            net: Arc::new(net.clone()),
            mats,
            mat_layers,
            plan: Arc::new(plan),
            inferences: 0,
            latency_ns: 0.0,
            ledger: None,
        })
    }

    pub(crate) fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Reports modeled cost as `ledger` × served inferences.
    pub(crate) fn charged(mut self, ledger: SimStats) -> Self {
        self.ledger = Some(Arc::new(ledger));
        self
    }

    /// Mints a replica that shares this session's programmed crossbar
    /// cores, network weights, and execution plan, but owns fresh
    /// telemetry and fresh per-layer execution RNGs seeded from
    /// `replica_seed` through the same [`layer_seed`] derivation a
    /// fresh prepare at that seed would use. Only *execution* noise
    /// draws from the new streams — the programmed conductances are the
    /// original's, shared.
    pub(crate) fn replicate(&self, replica_seed: u64) -> Self {
        Self {
            name: self.name,
            net: Arc::clone(&self.net),
            mats: self
                .mats
                .iter()
                .zip(&self.mat_layers)
                .map(|(m, &layer)| m.replicate(layer_seed(replica_seed, layer)))
                .collect(),
            mat_layers: self.mat_layers.clone(),
            plan: Arc::clone(&self.plan),
            inferences: 0,
            latency_ns: 0.0,
            ledger: self.ledger.clone(),
        }
    }

    /// Serves a whole batch, accumulating wall-clock latency around
    /// [`AnalogSession::run_batch_inner`].
    fn run_batch(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        let started = Instant::now();
        let out = self.run_batch_inner(xs);
        self.latency_ns += started.elapsed().as_nanos() as f64;
        out
    }

    /// Serves a whole batch layer by layer: every matrix layer fires one
    /// batched substrate activation covering all samples (and, for convs,
    /// all windows), so periphery setup, device resolution, and WDM lane
    /// packing amortize across the batch.
    fn run_batch_inner(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        let expected = self.net.input_shape();
        for x in xs {
            if x.len() != expected.len() {
                return Err(EbError::Config(format!(
                    "input has {} elements, network expects {}",
                    x.len(),
                    expected.len()
                )));
            }
        }
        let mut states = vec![AnalogAct::Input; xs.len()];
        let layers = self.net.layers();
        for (layer, exec) in layers.iter().zip(self.plan.iter()) {
            match (layer, exec) {
                (Layer::FixedLinear(l), LayerExec::FixedLinear { mat, offsets }) => {
                    let fan_in = l.weights().cols();
                    let n = l.weights().rows();
                    let vals: Vec<Vec<i32>> = xs
                        .iter()
                        .zip(&states)
                        .map(|(x, st)| {
                            expect_input(st)?;
                            Ok(x.quantize(8).iter().map(|&q| i32::from(q) + 127).collect())
                        })
                        .collect::<Result<_, EbError>>()?;
                    let acc = bit_serial_acc(&mut self.mats[*mat], &vals, fan_in, n)?;
                    for (s, st) in states.iter_mut().enumerate() {
                        let bits: BitVec = (0..n)
                            .map(|j| l.thresholds()[j].fire(acc[s * n + j] - offsets[j]))
                            .collect();
                        *st = AnalogAct::Bin(bits);
                    }
                }
                (Layer::BinLinear(l), LayerExec::BinLinear { mat }) => {
                    let n = l.weights().rows();
                    let complements: Vec<BitVec> = states
                        .iter()
                        .map(|st| Ok(expect_bin(st)?.complement()))
                        .collect::<Result<_, EbError>>()?;
                    let pairs: Vec<(&BitVec, &BitVec)> = states
                        .iter()
                        .zip(&complements)
                        .map(|(st, comp)| Ok((expect_bin(st)?, comp)))
                        .collect::<Result<_, EbError>>()?;
                    let counts = self.mats[*mat].activate_pairs(&pairs)?;
                    for (st, pops) in states.iter_mut().zip(counts) {
                        let bits: BitVec = (0..n)
                            .map(|j| l.thresholds()[j].fire(i64::from(pops[j])))
                            .collect();
                        *st = AnalogAct::Bin(bits);
                    }
                }
                (Layer::FixedConv(l), LayerExec::FixedConv { mat, geom, offsets }) => {
                    let fan_in = geom.c * geom.k * geom.k;
                    let n = l.filters().rows();
                    let windows = geom.oh * geom.ow;
                    // One offset-unsigned window vector per (sample, window).
                    let mut vals = Vec::with_capacity(xs.len() * windows);
                    for (x, st) in xs.iter().zip(&states) {
                        expect_input(st)?;
                        let q = x.quantize(8);
                        for wi in 0..windows {
                            vals.push(extract_window(&q, geom, wi / geom.ow, wi % geom.ow));
                        }
                    }
                    let acc = bit_serial_acc(&mut self.mats[*mat], &vals, fan_in, n)?;
                    for (s, st) in states.iter_mut().enumerate() {
                        let mut out = BitTensor::zeros(n, geom.oh, geom.ow);
                        for wi in 0..windows {
                            let base = (s * windows + wi) * n;
                            for f in 0..n {
                                if l.thresholds()[f].fire(acc[base + f] - offsets[wi][f]) {
                                    out.set(f, wi / geom.ow, wi % geom.ow, true);
                                }
                            }
                        }
                        *st = AnalogAct::Map(out);
                    }
                }
                (Layer::BinConv(l), LayerExec::BinConv { mat, geom }) => {
                    let n = l.filters().rows();
                    let windows = geom.oh * geom.ow;
                    let mut owned = Vec::with_capacity(xs.len() * windows);
                    for st in &states {
                        let t = expect_map(st)?;
                        let cols = t.im2col(geom.k, geom.stride, geom.pad);
                        for r in 0..cols.rows() {
                            let win = cols.row(r);
                            let comp = win.complement();
                            owned.push((win, comp));
                        }
                    }
                    let pairs: Vec<(&BitVec, &BitVec)> =
                        owned.iter().map(|(p, n)| (p, n)).collect();
                    let counts = self.mats[*mat].activate_pairs(&pairs)?;
                    for (s, st) in states.iter_mut().enumerate() {
                        let mut out = BitTensor::zeros(n, geom.oh, geom.ow);
                        for wi in 0..windows {
                            let pops = &counts[s * windows + wi];
                            for f in 0..n {
                                if l.thresholds()[f].fire(i64::from(pops[f])) {
                                    out.set(f, wi / geom.ow, wi % geom.ow, true);
                                }
                            }
                        }
                        *st = AnalogAct::Map(out);
                    }
                }
                (Layer::MaxPool2, LayerExec::MaxPool2) => {
                    for st in states.iter_mut() {
                        *st = AnalogAct::Map(expect_map(st)?.max_pool_2x2());
                    }
                }
                (Layer::Flatten, LayerExec::Flatten) => {
                    for st in states.iter_mut() {
                        *st = AnalogAct::Bin(expect_map(st)?.flatten());
                    }
                }
                (Layer::Output(l), LayerExec::Output) => {
                    for st in states.iter_mut() {
                        let bits = expect_bin(st)?;
                        let logits = eb_bitnn::ops::output_logits(bits, l.weights(), l.bias());
                        *st = AnalogAct::Logits(Tensor::from_vec(&[logits.len()], logits));
                    }
                }
                // The plan is built from this same layer stack, so a
                // mismatch here is an internal invariant break — surfaced
                // as a typed error instead of panicking a serving thread.
                (layer, _) => {
                    return Err(EbError::Config(format!(
                        "internal error: execution plan diverged from layer stack at `{}`",
                        layer.name()
                    )))
                }
            }
        }
        self.inferences += xs.len() as u64;
        states
            .into_iter()
            .zip(xs)
            .map(|(st, x)| match st {
                AnalogAct::Logits(t) => Ok(t),
                // A zero-layer network echoes its input, like `Bnn::forward`.
                AnalogAct::Input => Ok(x.clone()),
                _ => Err(EbError::Config(format!(
                    "network `{}` does not end on logits",
                    self.net.name()
                ))),
            })
            .collect()
    }
}

impl Session for AnalogSession {
    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn infer(&mut self, x: &Tensor) -> Result<Tensor, EbError> {
        // A broken internal contract (batch of one yielding no logits)
        // surfaces as an EbError instead of panicking the serving thread.
        self.run_batch(std::slice::from_ref(x))?
            .pop()
            .ok_or_else(|| {
                EbError::Config(format!(
                    "internal error: analog session `{}` returned no logits for a batch of one",
                    self.name
                ))
            })
    }

    fn infer_batch(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        self.run_batch(xs)
    }

    fn stats(&self) -> SessionStats {
        let mut stats = SessionStats {
            inferences: self.inferences,
            crossbar_steps: self.mats.iter().map(MappedMat::steps_taken).sum(),
            wdm_lanes: self.mats.iter().map(MappedMat::wdm_lanes).sum(),
            latency_ns: self.latency_ns,
            energy_j: self.mats.iter().map(MappedMat::energy_j).sum(),
            fault_cells: self.mats.iter().map(MappedMat::fault_count).sum::<usize>() as u64,
        };
        if let Some(ledger) = &self.ledger {
            // The modeled batch-1 accelerator: every inference costs what
            // one run of the compiled program costs.
            let n = self.inferences;
            stats.crossbar_steps = ledger.crossbar_steps * n;
            stats.wdm_lanes = ledger.wdm_lanes * n;
            stats.latency_ns = ledger.latency_ns * n as f64;
            stats.energy_j = ledger.energy_j * n as f64;
        }
        stats
    }

    fn memory(&self) -> SessionMemory {
        // Shared side: programmed crossbar cores plus the Arc'd plan
        // (dominated by conv offset tables) and binary weight storage.
        let weight_bits: u64 = self
            .net
            .layer_dims()
            .iter()
            .map(|d| d.fan_in as u64 * d.out_vectors as u64 * u64::from(d.weight_bits))
            .sum();
        let plan_bytes: usize = self.plan.iter().map(LayerExec::bytes).sum();
        SessionMemory {
            core_bytes: self.mats.iter().map(MappedMat::core_bytes).sum::<usize>() as u64
                + weight_bits / 8
                + plan_bytes as u64,
            replica_bytes: self.mats.iter().map(MappedMat::rind_bytes).sum::<usize>() as u64
                + std::mem::size_of::<Self>() as u64,
        }
    }
}

/// Runs the bit-serial fixed-point lowering for a batch of offset-unsigned
/// integer vectors (`x' = q + 127 ∈ [0, 254]`, zeros at padding): for each
/// of the 8 bit planes, drives `(plane, 0)` and `(0, plane)` for every
/// vector in one batched activation and accumulates the signed,
/// bit-weighted count difference. Returns a flat `vals.len() × n` buffer
/// of `Σ x'ᵢ·wᵢ` accumulators (offset correction is the caller's).
fn bit_serial_acc(
    mat: &mut MappedMat,
    vals: &[Vec<i32>],
    fan_in: usize,
    n: usize,
) -> Result<Vec<i64>, EbError> {
    let zero = BitVec::zeros(fan_in);
    let mut acc = vec![0i64; vals.len() * n];
    for b in 0..8u32 {
        let planes: Vec<BitVec> = vals
            .iter()
            .map(|v| v.iter().map(|&x| (x >> b) & 1 == 1).collect())
            .collect();
        let pairs: Vec<(&BitVec, &BitVec)> = planes
            .iter()
            .flat_map(|plane| [(plane, &zero), (&zero, plane)])
            .collect();
        let counts = mat.activate_pairs(&pairs)?;
        for (s, pair) in counts.chunks_exact(2).enumerate() {
            let (plus, minus) = (&pair[0], &pair[1]);
            for j in 0..n {
                let diff = i64::from(plus[j]) - i64::from(minus[j]);
                acc[s * n + j] += diff << b;
            }
        }
    }
    Ok(acc)
}

/// `127·Σwⱼ` per weight row — the digital constant that converts the
/// offset-unsigned accumulator back to the signed pre-activation.
fn dense_offsets(weights: &BitMatrix) -> Vec<i64> {
    (0..weights.rows())
        .map(|r| {
            let pop = i64::from(weights.row(r).popcount());
            127 * (2 * pop - weights.cols() as i64)
        })
        .collect()
}

/// Walks the filter positions of window `(oy, ox)` that land inside the
/// (unpadded) input, yielding `(filter_index, input_index)` into the
/// flattened `c·k·k` filter row and `c·h·w` input map. This is the one
/// copy of the conv boundary logic; the per-window offsets and the window
/// extraction must agree on it exactly for padded convs to stay
/// bit-exact.
fn for_each_valid_pos(g: &ConvGeom, oy: usize, ox: usize, mut f: impl FnMut(usize, usize)) {
    for ci in 0..g.c {
        for ky in 0..g.k {
            for kx in 0..g.k {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                if iy < 0 || ix < 0 || iy as usize >= g.h || ix as usize >= g.w {
                    continue;
                }
                f(
                    (ci * g.k + ky) * g.k + kx,
                    (ci * g.h + iy as usize) * g.w + ix as usize,
                );
            }
        }
    }
}

/// Per-window offsets: `127·Σw` restricted to filter positions that land
/// inside the (unpadded) input — padding positions never carry the `+127`
/// quantization offset.
fn conv_window_offsets(filters: &BitMatrix, g: &ConvGeom) -> Vec<Vec<i64>> {
    let mut out = Vec::with_capacity(g.oh * g.ow);
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let mut sums = vec![0i64; filters.rows()];
            for_each_valid_pos(g, oy, ox, |fi, _| {
                for (f, sum) in sums.iter_mut().enumerate() {
                    *sum += if filters.get(f, fi) == Some(true) {
                        1
                    } else {
                        -1
                    };
                }
            });
            out.push(sums.into_iter().map(|s| 127 * s).collect());
        }
    }
    out
}

/// Extracts one offset-unsigned conv window: valid positions read
/// `q + 127`, padding stays 0 (matching the simulator's `Window`
/// instruction over the offset input register).
fn extract_window(q: &[i16], g: &ConvGeom, oy: usize, ox: usize) -> Vec<i32> {
    let mut v = vec![0i32; g.c * g.k * g.k];
    for_each_valid_pos(g, oy, ox, |fi, ii| {
        v[fi] = i32::from(q[ii]) + 127;
    });
    v
}

fn conv_geom(
    input: Shape,
    in_channels: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Result<ConvGeom, EbError> {
    match input {
        Shape::Img(c, h, w) if c == in_channels => {
            let (oh, ow) = conv_output_dims(h, w, k, stride, pad);
            Ok(ConvGeom {
                c,
                h,
                w,
                k,
                stride,
                pad,
                oh,
                ow,
            })
        }
        other => Err(EbError::Config(format!(
            "conv layer expects a {in_channels}-channel image, got shape {other}"
        ))),
    }
}

fn expect_input(st: &AnalogAct) -> Result<(), EbError> {
    match st {
        AnalogAct::Input => Ok(()),
        _ => Err(EbError::Config(
            "fixed-point layer used after the first layer".into(),
        )),
    }
}

fn expect_bin(st: &AnalogAct) -> Result<&BitVec, EbError> {
    match st {
        AnalogAct::Bin(x) => Ok(x),
        _ => Err(EbError::Config(
            "binary dense/output layer fed a non-flat activation".into(),
        )),
    }
}

fn expect_map(st: &AnalogAct) -> Result<&BitTensor, EbError> {
    match st {
        AnalogAct::Map(t) => Ok(t),
        _ => Err(EbError::Config(
            "spatial layer fed a non-image activation".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinConv, BinLinear, FixedConv, FixedLinear, OutputLinear};
    use rand::Rng;

    fn mlp(seed: u64) -> Bnn {
        let mut rng = StdRng::seed_from_u64(seed);
        Bnn::new(
            "mlp",
            Shape::Flat(30),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 30, 20, &mut rng)),
                Layer::BinLinear(BinLinear::random("h1", 20, 16, &mut rng)),
                Layer::Output(OutputLinear::random("out", 16, 4, &mut rng)),
            ],
        )
        .unwrap()
    }

    fn cnn(seed: u64) -> Bnn {
        let mut rng = StdRng::seed_from_u64(seed);
        Bnn::new(
            "cnn",
            Shape::Img(2, 8, 8),
            vec![
                Layer::FixedConv(FixedConv::random("c1", 2, 4, 3, 1, 1, &mut rng)),
                Layer::MaxPool2,
                Layer::BinConv(BinConv::random("c2", 4, 5, 3, 1, 0, &mut rng)),
                Layer::Flatten,
                Layer::BinLinear(BinLinear::random("fc", 5 * 2 * 2, 12, &mut rng)),
                Layer::Output(OutputLinear::random("out", 12, 3, &mut rng)),
            ],
        )
        .unwrap()
    }

    fn inputs(shape: Shape, n: usize) -> Vec<Tensor> {
        let dims: Vec<usize> = match shape {
            Shape::Flat(m) => vec![m],
            Shape::Img(c, h, w) => vec![c, h, w],
        };
        (0..n)
            .map(|s| Tensor::from_fn(&dims, |i| ((i * 3 + s * 7) as f32 * 0.17).sin()))
            .collect()
    }

    #[test]
    fn epcm_session_bit_exact_on_mlp_and_cnn() {
        for net in [mlp(5), cnn(6)] {
            let mut session = EpcmBackend::default()
                .prepare(&net, &SessionOpts::default())
                .unwrap();
            for x in &inputs(net.input_shape(), 3) {
                assert_eq!(
                    session.infer(x).unwrap(),
                    net.forward(x).unwrap(),
                    "{}",
                    net.name()
                );
            }
            assert!(session.stats().crossbar_steps > 0);
            assert_eq!(session.stats().wdm_lanes, 0);
        }
    }

    #[test]
    fn photonic_session_bit_exact_and_packs_lanes() {
        for net in [mlp(7), cnn(8)] {
            let mut session = PhotonicBackend::default()
                .prepare(&net, &SessionOpts::default())
                .unwrap();
            let xs = inputs(net.input_shape(), 4);
            let batch = session.infer_batch(&xs).unwrap();
            for (x, got) in xs.iter().zip(&batch) {
                assert_eq!(*got, net.forward(x).unwrap(), "{}", net.name());
            }
            let stats = session.stats();
            assert!(stats.wdm_lanes > stats.crossbar_steps, "WDM should pack");
        }
    }

    #[test]
    fn batched_equals_single_noiseless() {
        let net = cnn(9);
        let opts = SessionOpts::default();
        let backend = EpcmBackend::default();
        let mut batched = backend.prepare(&net, &opts).unwrap();
        let mut single = backend.prepare(&net, &opts).unwrap();
        let xs = inputs(net.input_shape(), 5);
        let batch = batched.infer_batch(&xs).unwrap();
        for (x, got) in xs.iter().zip(&batch) {
            assert_eq!(*got, single.infer(x).unwrap());
        }
    }

    #[test]
    fn noisy_epcm_is_seed_deterministic() {
        let net = mlp(11);
        let backend = EpcmBackend::default();
        let xs = inputs(net.input_shape(), 3);
        let run = |seed: u64| {
            let opts = SessionOpts {
                noise: crate::session::NoiseConfig {
                    seed,
                    profile: NoiseProfile::Noisy,
                    ..Default::default()
                },
            };
            backend
                .prepare(&net, &opts)
                .unwrap()
                .infer_batch(&xs)
                .unwrap()
        };
        // Same seed ⇒ identical noisy outputs across two fresh sessions.
        let reference = run(42);
        assert_eq!(reference, run(42));
        // And the noise actually depends on the seed: some nearby seed
        // (almost surely) perturbs at least one logit.
        assert!(
            (43..48).any(|seed| run(seed) != reference),
            "device noise should depend on the seed"
        );
    }

    #[test]
    fn drift_diverges_where_off_current_matters_and_is_rejected_when_dead() {
        use crate::session::NoiseConfig;
        let net = mlp(19);
        let xs = inputs(net.input_shape(), 3);
        // A low on/off-ratio device makes the amorphous off-current a
        // real fraction of an ADC LSB, so drifting it moves the logits:
        // drifted and undrifted sessions must actually diverge.
        let sensitive = EpcmBackend::new(XbarConfig::new(64, 64).with_device(DeviceParams {
            g_on: 100e-6,
            g_off: 40e-6,
            drift_nu: 0.3,
            ..DeviceParams::ideal()
        }));
        let run = |drift: Option<f64>| {
            let opts = SessionOpts {
                noise: NoiseConfig {
                    drift_t_ratio: drift,
                    ..Default::default()
                },
            };
            sensitive
                .prepare(&net, &opts)
                .unwrap()
                .infer_batch(&xs)
                .unwrap()
        };
        assert_ne!(run(None), run(Some(1e6)), "drift must change served logits");
        // Drift is deterministic: two drifted sessions agree.
        assert_eq!(run(Some(1e6)), run(Some(1e6)));

        // At the paper's binary operating point (1000x on/off ratio) the
        // same drift is benign: a drift-only device model stays bit-exact
        // against the software reference — the Section II-C robustness
        // argument for binary PCM operation.
        let robust = EpcmBackend::new(XbarConfig::new(64, 64).with_device(DeviceParams {
            drift_nu: 0.3,
            ..DeviceParams::ideal()
        }));
        let opts = SessionOpts {
            noise: NoiseConfig {
                drift_t_ratio: Some(1e6),
                ..Default::default()
            },
        };
        let mut session = robust.prepare(&net, &opts).unwrap();
        for x in &xs {
            assert_eq!(session.infer(x).unwrap(), net.forward(x).unwrap());
        }

        // Configurations drift cannot touch are rejected, not ignored:
        // the ideal device model has drift_nu = 0...
        let opts = SessionOpts {
            noise: NoiseConfig {
                drift_t_ratio: Some(1e6),
                ..Default::default()
            },
        };
        assert!(matches!(
            EpcmBackend::default()
                .prepare(&net, &opts)
                .err()
                .expect("must reject drift"),
            EbError::Config(_)
        ));
        // ...the photonic substrate sidesteps drift entirely...
        assert!(matches!(
            PhotonicBackend::default()
                .prepare(&net, &opts)
                .err()
                .expect("must reject drift"),
            EbError::Config(_)
        ));
        // ...and a sub-1 time ratio is not a read time.
        let bad = SessionOpts {
            noise: NoiseConfig {
                profile: NoiseProfile::Noisy,
                drift_t_ratio: Some(0.5),
                ..Default::default()
            },
        };
        assert!(matches!(
            EpcmBackend::default()
                .prepare(&net, &bad)
                .err()
                .expect("must reject drift"),
            EbError::Config(_)
        ));
    }

    #[test]
    fn faults_degrade_deterministically_and_are_rejected_off_substrate() {
        use crate::session::NoiseConfig;
        let net = mlp(23);
        let xs = inputs(net.input_shape(), 3);
        let backend = EpcmBackend::new(XbarConfig::new(64, 64));
        let run = |fault: Option<FaultConfig>| {
            let opts = SessionOpts {
                noise: NoiseConfig {
                    fault,
                    ..Default::default()
                },
            };
            let mut s = backend.prepare(&net, &opts).unwrap();
            (s.infer_batch(&xs).unwrap(), s.stats().fault_cells)
        };
        // A vacuous profile is the identity: bit-exact, zero fault cells.
        let (baseline, none) = run(None);
        let (vacuous, still_none) = run(Some(FaultConfig::none().with_seed(9)));
        assert_eq!(baseline, vacuous);
        assert_eq!((none, still_none), (0, 0));
        // A heavy dead-cell population moves the logits, deterministically.
        let profile = FaultConfig::dead_cells(0.3, 5);
        let (faulted, cells) = run(Some(profile));
        assert_ne!(baseline, faulted, "30% dead cells must move logits");
        assert!(cells > 0, "fault telemetry must count the population");
        assert_eq!(run(Some(profile)), run(Some(profile)), "replays exactly");
        // A different fault seed kills different cells.
        assert_ne!(run(Some(profile)).0, run(Some(profile.with_seed(6))).0);

        // Active profiles are rejected where there are no ePCM cells...
        let active = SessionOpts {
            noise: NoiseConfig {
                fault: Some(profile),
                ..Default::default()
            },
        };
        assert!(matches!(
            PhotonicBackend::default().prepare(&net, &active),
            Err(EbError::Config(_))
        ));
        // ...while the vacuous identity profile passes everywhere.
        let vacuous_opts = SessionOpts {
            noise: NoiseConfig {
                fault: Some(FaultConfig::none()),
                ..Default::default()
            },
        };
        assert!(PhotonicBackend::default()
            .prepare(&net, &vacuous_opts)
            .is_ok());
        // ...and invalid rates are rejected on ePCM itself.
        let invalid = SessionOpts {
            noise: NoiseConfig {
                fault: Some(FaultConfig::dead_cells(1.7, 0)),
                ..Default::default()
            },
        };
        assert!(matches!(
            backend.prepare(&net, &invalid),
            Err(EbError::Xbar(_))
        ));
    }

    #[test]
    fn epcm_serving_charges_modeled_energy() {
        let net = mlp(29);
        let mut session = EpcmBackend::default()
            .prepare(&net, &SessionOpts::default())
            .unwrap();
        let programming = session.stats().energy_j;
        assert!(programming > 0.0, "programming crossbars must cost energy");
        let xs = inputs(net.input_shape(), 4);
        session.infer_batch(&xs).unwrap();
        let served = session.stats().energy_j;
        assert!(served > programming, "VMM activations must add energy");
        // Energy scales with traffic.
        session.infer_batch(&xs).unwrap();
        assert!((session.stats().energy_j - served) > 0.9 * (served - programming));
    }

    #[test]
    fn memory_counts_the_conv_offset_tables() {
        // A bit-serial conv keeps one offset per (window, filter): 16×16
        // windows × 8 filters × 8 B = 16 KiB, far more than the weights.
        let mut rng = StdRng::seed_from_u64(37);
        let net = Bnn::new(
            "offset-heavy",
            Shape::Img(1, 16, 16),
            vec![
                Layer::FixedConv(FixedConv::random("c1", 1, 8, 3, 1, 1, &mut rng)),
                Layer::MaxPool2,
                Layer::MaxPool2,
                Layer::Flatten,
                Layer::Output(OutputLinear::random("out", 8 * 4 * 4, 2, &mut rng)),
            ],
        )
        .unwrap();
        let session = EpcmBackend::default()
            .program_session(&net, &SessionOpts::default())
            .unwrap();
        let crossbars: usize = session.mats.iter().map(MappedMat::core_bytes).sum();
        let offsets = 16 * 16 * 8 * std::mem::size_of::<i64>();
        assert!(session.memory().core_bytes >= (crossbars + offsets) as u64);
    }

    #[test]
    fn wrong_input_shape_is_a_config_error() {
        let net = mlp(13);
        let mut session = EpcmBackend::default()
            .prepare(&net, &SessionOpts::default())
            .unwrap();
        let err = session.infer(&Tensor::zeros(&[31])).unwrap_err();
        assert!(matches!(err, EbError::Config(_)));
    }

    #[test]
    fn layer_seeds_are_distinct() {
        let mut rng = StdRng::seed_from_u64(layer_seed(0, 0));
        let _: u64 = rng.gen();
        assert_ne!(layer_seed(1, 0), layer_seed(1, 1));
        assert_ne!(layer_seed(1, 0), layer_seed(2, 0));
    }
}
