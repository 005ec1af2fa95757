//! The one crossbar backend body and the one batched crossbar lowering,
//! shared by every crossbar backend. [`EpcmBackend`] (TacitMap-ePCM),
//! [`PhotonicBackend`] (oPCM + WDM) and the simulator backend are named
//! configurations of one private [`Crossbar`] body: a backend name plus a
//! substrate, electronic under an [`XbarConfig`] or optical at
//! `(rows, cols, K)`.
//!
//! The body programs, restores and exports one way for all three. Every
//! matrix layer is programmed from its own [`layer_seed`] RNG, which the
//! session keeps for that layer's execution noise; the noisy profile
//! programs electronic crossbars with noisy devices and gives optical ones
//! the noisy receiver; drift and faults apply on electronic crossbars.
//! Restore and export move the programmed layers verbatim as
//! [`PreparedMat`]s, and restore runs the layer plan's one fit check
//! ([`LayerPlan::check_fit`]), which `eb_core::recompile` runs too.
//!
//! A session walks the network's [`LayerPlan`], the `eb-core` type that
//! derives the lowering's per-layer constants once and that the compiler
//! emits its instruction stream from. Each programmed layer is the
//! compiler's [`MappedVcore`], where the electronic-vs-optical dispatch is
//! written once, plus its execution RNG and WDM-lane counter
//! ([`MappedMat`]). Binary layers drive `(x, x̄)` and read every XNOR
//! popcount in one activation; fixed-point first layers run bit-serially
//! over the offset-unsigned planes of `x' = q + 127`, with the plan's
//! per-output (or per-window) quantization offset subtracted digitally;
//! pooling, flatten, and the real-valued output layer run on the
//! (software) scalar unit, where the compiled program runs them on the
//! ECore vector FU. In noiseless configurations every session is
//! bit-exact against the software reference and the compiler's `Machine`.

use crate::artifacts::captured_meta;
use crate::error::EbError;
use crate::session::{
    Backend, NoiseConfig, NoiseProfile, Session, SessionMemory, SessionOpts, SessionStats,
};
use eb_artifact::{Prepared, PreparedBackend, PreparedMat, PreparedState};
use eb_bitnn::{BitTensor, BitVec, Bnn, Tensor};
use eb_core::{
    ConvGeometry, Design, DesignKind, LayerPlan, MappedVcore, MatrixStep, OpticalTacitMapped,
    SimStats, Step,
};
use eb_mapping::TacitMapped;
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
/// `prepare` time from an RNG seeded per layer, and the session keeps
/// that RNG for the layer's read and ADC noise, so it owns every RNG
/// involved: same `(network, config, seed)` ⇒ identical outputs, noisy
/// devices included.
#[derive(Debug, Clone)]
pub struct EpcmBackend(Crossbar);

impl EpcmBackend {
    /// A backend over explicit crossbar geometry/periphery.
    pub fn new(cfg: XbarConfig) -> Self {
        Self(Crossbar {
            kind: PreparedBackend::Epcm,
            substrate: Substrate::Electronic(cfg),
        })
    }
}

impl Default for EpcmBackend {
    /// Paper-class 256×256 1T1R crossbars with ideal devices.
    fn default() -> Self {
        Self::new(XbarConfig::new(256, 256))
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
        Ok(self.0.session(net, opts, restore)?.mint(opts, replicas))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        self.0.export(net, opts, PreparedState::Epcm)
    }
}

/// Serves inference on simulated oPCM crossbars behind the full optical
/// chain (transmitter → crossbar → photodetector/TIA), packing up to `K`
/// half-drive pairs into each WDM MMM step.
#[derive(Debug, Clone)]
pub struct PhotonicBackend(Crossbar);

impl PhotonicBackend {
    /// A backend over explicit optical crossbar geometry and WDM capacity.
    pub fn new(rows: usize, cols: usize, capacity: usize) -> Self {
        Self(Crossbar {
            kind: PreparedBackend::Photonic,
            substrate: Substrate::Optical((rows, cols), capacity.max(1)),
        })
    }
}

impl Default for PhotonicBackend {
    /// Paper-class 256×256 oPCM crossbars at `K = 16`.
    fn default() -> Self {
        Self::new(256, 256, PAPER_WDM_CAPACITY)
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
        Ok(self.0.session(net, opts, restore)?.mint(opts, replicas))
    }

    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        self.0.export(net, opts, PreparedState::Photonic)
    }
}

/// What a crossbar backend programs its matrix layers onto.
#[derive(Debug, Clone)]
enum Substrate {
    /// 1T1R ePCM crossbars in TacitMap layout under this configuration.
    Electronic(XbarConfig),
    /// `(rows, cols)` oPCM crossbars packing up to `K` WDM lanes per step.
    Optical((usize, usize), usize),
}

/// The one crossbar backend body: what the ePCM, photonic and simulator
/// backends run to program, restore and export a session. `kind` names
/// the sessions and their prepared state; `substrate` is programmed.
#[derive(Debug, Clone)]
pub(crate) struct Crossbar {
    kind: PreparedBackend,
    substrate: Substrate,
}

impl Crossbar {
    /// The simulator's body: optical crossbars at the design's shape and
    /// WDM capacity on EinsteinBarrier (the design kind `eb_core::compile`
    /// maps onto WDM lanes), electronic under its crossbar configuration
    /// otherwise.
    pub(crate) fn simulating(design: &Design) -> Self {
        let xbar = &design.xbar;
        let substrate = match design.kind {
            DesignKind::EinsteinBarrier => {
                Substrate::Optical((xbar.rows, xbar.cols), design.wdm_capacity.max(1))
            }
            _ => Substrate::Electronic(xbar.clone()),
        };
        Self {
            kind: PreparedBackend::Simulator,
            substrate,
        }
    }

    /// A session freshly programmed for `net`, or restored from
    /// `restore` when given — the base session of
    /// [`Backend::prepare_replicas`].
    pub(crate) fn session(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        restore: Option<Prepared>,
    ) -> Result<AnalogSession, EbError> {
        match restore {
            Some(prepared) => self.restore(net, opts, prepared),
            None => self.program(net, opts),
        }
    }

    /// The substrate as a session under `noise` programs it, with the
    /// drift read-time ratio to apply: on electronic crossbars the noisy
    /// profile's device model and the session's fault profile, which wins
    /// over a configured one. Rejects what the substrate cannot honor.
    fn configured(&self, noise: &NoiseConfig) -> Result<(Substrate, Option<f64>), EbError> {
        let Substrate::Electronic(cfg) = &self.substrate else {
            reject_cell_effects(noise, self.kind.name())?;
            return Ok((self.substrate.clone(), None));
        };
        let mut cfg = cfg.clone();
        if noise.profile == NoiseProfile::Noisy {
            cfg = cfg.with_device(DeviceParams::noisy());
        }
        let drift = validated_drift(noise, &cfg.device)?;
        if let Some(fault) = validated_fault(noise)? {
            cfg.fault = Some(fault);
        }
        Ok((Substrate::Electronic(cfg), drift))
    }

    /// Programs every matrix layer of `net` onto fresh crossbars, each
    /// from an RNG seeded at its [`layer_seed`], which the session keeps
    /// for that layer's execution noise.
    fn program(&self, net: &Bnn, opts: &SessionOpts) -> Result<AnalogSession, EbError> {
        let (substrate, drift) = self.configured(&opts.noise)?;
        let plan = LayerPlan::new(net)?;
        let mats = plan
            .matrices()
            .map(|m| {
                let mut rng = StdRng::seed_from_u64(layer_seed(opts.noise.seed, m.layer));
                let vcore = match &substrate {
                    Substrate::Electronic(cfg) => {
                        let mut cfg = cfg.clone();
                        // Every layer gets its own fault-map seed: physically
                        // distinct crossbars must not share a defect pattern.
                        cfg.fault = cfg.fault.map(|f| f.with_seed(layer_seed(f.seed, m.layer)));
                        let mut mapped = TacitMapped::program(&m.weights, &cfg, &mut rng)?;
                        if let Some(t_ratio) = drift {
                            mapped.set_drift_t_ratio(t_ratio);
                        }
                        MappedVcore::Electronic(mapped)
                    }
                    Substrate::Optical((rows, cols), k) => {
                        let mut mapped =
                            OpticalTacitMapped::program(&m.weights, *rows, *cols, *k, &mut rng)?;
                        if opts.noise.profile == NoiseProfile::Noisy {
                            mapped.set_receiver(Receiver::noisy());
                        }
                        MappedVcore::Optical(mapped)
                    }
                };
                Ok(MappedMat::new(vcore, rng))
            })
            .collect::<Result<_, EbError>>()?;
        Ok(AnalogSession::new(self.kind.name(), Arc::new(plan), mats))
    }

    /// Rebuilds a session from a prepared-state snapshot this backend
    /// exported. Its layers must fit `net`'s layer plan on the configured
    /// crossbar shape and WDM capacity ([`LayerPlan::check_fit`]).
    fn restore(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        prepared: Prepared,
    ) -> Result<AnalogSession, EbError> {
        // Meta↔opts agreement is validated by the caller; the substrate
        // capability checks still apply to crafted artifacts.
        self.configured(&opts.noise)?;
        let mats = match (prepared.state, self.kind) {
            (PreparedState::Epcm(mats), PreparedBackend::Epcm)
            | (PreparedState::Photonic(mats), PreparedBackend::Photonic)
            | (PreparedState::Simulator { mats, .. }, PreparedBackend::Simulator) => mats,
            (state, kind) => {
                return Err(EbError::Config(format!(
                    "artifact prepared state holds {} substrate state, which the {} backend \
                     cannot restore",
                    state.backend().name(),
                    kind.name()
                )))
            }
        };
        let substrate = match &self.substrate {
            Substrate::Electronic(cfg) => ((cfg.rows, cfg.cols), None),
            Substrate::Optical(shape, k) => (*shape, Some(*k)),
        };
        let plan = LayerPlan::new(net)?;
        plan.check_fit(mats.iter().map(|m| &m.vcore), substrate)?;
        let mats = mats.into_iter().map(MappedMat::from).collect();
        Ok(AnalogSession::new(self.kind.name(), Arc::new(plan), mats))
    }

    /// Programs `net` as [`Backend::prepare_replicas`] would and captures
    /// its layers as the prepared state `state` builds.
    pub(crate) fn export(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        state: impl FnOnce(Vec<PreparedMat>) -> PreparedState,
    ) -> Result<Option<Prepared>, EbError> {
        let session = self.program(net, opts)?;
        let state = state(session.mats.into_iter().map(PreparedMat::from).collect());
        Ok(Some(Prepared {
            meta: captured_meta(state.backend(), &opts.noise),
            state,
        }))
    }
}

/// Checks that a requested drift configuration is one the effective device
/// model can actually honor — the pre-PR-4 runtime accepted `drift_nu`
/// configurations and then silently never applied them.
///
/// Returns the validated `t/t₀` to apply, or `None` when no drift was
/// requested.
fn validated_drift(noise: &NoiseConfig, device: &DeviceParams) -> Result<Option<f64>, EbError> {
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

/// Validates a requested session-level fault profile: rates must form a
/// probability assignment, and a vacuous (all-zero) profile normalizes to
/// `None` — it is the identity and guaranteed bit-exact to the no-fault
/// baseline.
fn validated_fault(noise: &NoiseConfig) -> Result<Option<FaultConfig>, EbError> {
    let Some(fault) = noise.fault else {
        return Ok(None);
    };
    fault.validate()?;
    Ok((!fault.is_vacuous()).then_some(fault))
}

/// Rejects drift and an *active* fault profile on a `backend` that has no
/// ePCM cells to drift or fault — the no-silent-fallback rule. Vacuous
/// fault profiles are the identity and pass.
pub(crate) fn reject_cell_effects(noise: &NoiseConfig, backend: &str) -> Result<(), EbError> {
    if noise.drift_t_ratio.is_some() {
        return Err(EbError::Config(format!(
            "the {backend} backend does not model resistance drift; unset \
             NoiseConfig::drift_t_ratio or use BackendKind::Epcm"
        )));
    }
    if validated_fault(noise)?.is_some() {
        return Err(EbError::Config(format!(
            "the {backend} backend does not model ePCM cell faults; unset NoiseConfig::fault \
             or use BackendKind::Epcm"
        )));
    }
    Ok(())
}

/// Derives a per-layer RNG stream from the session seed so every mapped
/// layer draws independent programming noise, deterministically.
fn layer_seed(base: u64, layer: usize) -> u64 {
    base ^ (layer as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One matrix layer programmed onto a substrate, with the execution RNG
/// and WDM-lane counter its session keeps for it.
#[derive(Debug, Clone)]
pub(crate) struct MappedMat {
    vcore: MappedVcore,
    rng: StdRng,
    /// WDM lanes carried so far (0 on electronic crossbars).
    lanes: u64,
}

impl MappedMat {
    /// A layer that has carried no lanes yet, drawing its noise from `rng`.
    fn new(vcore: MappedVcore, rng: StdRng) -> Self {
        Self {
            vcore,
            rng,
            lanes: 0,
        }
    }
    /// Executes a batch of borrowed `(pos, neg)` half-drive pairs, one
    /// result row per pair (see [`MappedVcore::activate_pairs`]).
    fn activate_pairs(&mut self, pairs: &[(&BitVec, &BitVec)]) -> Result<Vec<Vec<u32>>, EbError> {
        let counts = self.vcore.activate_pairs(pairs, &mut self.rng)?;
        if self.vcore.wdm_capacity().is_some() {
            self.lanes += pairs.len() as u64;
        }
        Ok(counts)
    }

    /// A replica sharing this layer's programmed crossbar core, with a
    /// fresh execution RNG at `seed` (the caller passes the replica's
    /// [`layer_seed`] derivation) and zeroed telemetry.
    fn replicate(&self, seed: u64) -> Self {
        Self::new(self.vcore.replicate(), StdRng::seed_from_u64(seed))
    }

    /// Approximate bytes private to this replica's copy of the layer.
    fn rind_bytes(&self) -> usize {
        self.vcore.rind_bytes() + std::mem::size_of::<StdRng>() + std::mem::size_of::<u64>()
    }
}

impl From<PreparedMat> for MappedMat {
    fn from(mat: PreparedMat) -> Self {
        Self {
            vcore: mat.vcore,
            rng: StdRng::from_state(mat.rng_state),
            lanes: mat.lanes,
        }
    }
}

impl From<MappedMat> for PreparedMat {
    fn from(mat: MappedMat) -> Self {
        Self {
            vcore: mat.vcore,
            rng_state: mat.rng.state(),
            lanes: mat.lanes,
        }
    }
}

/// The activations of a whole batch between two plan steps.
enum Batch {
    /// Still the caller's input tensors (before the first step).
    Input,
    /// Flat binary activations.
    Vectors(Vec<BitVec>),
    /// Spatial binary activations.
    Maps(Vec<BitTensor>),
    /// Final logits.
    Logits(Vec<Tensor>),
}

/// A network programmed onto an analog substrate, serving through the
/// shared layer-wise lowering.
///
/// The expensive, immutable parts — the layer plan with its weights and
/// digital offset constants, and (inside each [`MappedMat`]) the
/// programmed crossbar cores — are `Arc`-shared, so
/// [`AnalogSession::replicate`] mints additional replicas without
/// re-programming a single device.
#[derive(Debug, Clone)]
pub(crate) struct AnalogSession {
    name: &'static str,
    plan: Arc<LayerPlan>,
    /// One programmed layer per matrix of `plan`, in network order.
    mats: Vec<MappedMat>,
    inferences: u64,
    /// Accumulated wall-clock serving time (monotone nondecreasing).
    latency_ns: f64,
    /// A compiled program's modeled per-inference cost. When set,
    /// [`Session::stats`] charges it once per served inference instead of
    /// reporting the substrate counters and wall-clock time.
    ledger: Option<Arc<SimStats>>,
}

impl AnalogSession {
    /// Serves `mats`, one per matrix of `plan` in network order, which
    /// the caller programmed for it or checked against it.
    fn new(name: &'static str, plan: Arc<LayerPlan>, mats: Vec<MappedMat>) -> Self {
        Self {
            name,
            plan,
            mats,
            inferences: 0,
            latency_ns: 0.0,
            ledger: None,
        }
    }

    /// Reports modeled cost as `ledger` × served inferences.
    pub(crate) fn charged(mut self, ledger: SimStats) -> Self {
        self.ledger = Some(Arc::new(ledger));
        self
    }

    /// Replicas of the programmed layers, sharing their crossbar cores
    /// ([`MappedVcore::replicate`]), in network order.
    pub(crate) fn vcores(&self) -> Vec<MappedVcore> {
        self.mats.iter().map(|m| m.vcore.replicate()).collect()
    }

    /// Boxes this session as replica 0 plus `replicas − 1` shared-core
    /// replicas [`AnalogSession::replicate`]d at the session seed plus
    /// `i` — the one place the per-replica seed rule of
    /// [`Backend::prepare_replicas`] lives.
    pub(crate) fn mint(self, opts: &SessionOpts, replicas: usize) -> Vec<Box<dyn Session>> {
        let minted: Vec<Self> = (1..replicas)
            .map(|i| self.replicate(opts.noise.seed.wrapping_add(i as u64)))
            .collect();
        std::iter::once(self)
            .chain(minted)
            .take(replicas)
            .map(|s| Box::new(s) as Box<dyn Session>)
            .collect()
    }

    /// Mints a replica that shares this session's programmed crossbar
    /// cores and layer plan, but owns fresh telemetry and fresh per-layer
    /// execution RNGs seeded from `replica_seed` through the same
    /// [`layer_seed`] derivation a fresh prepare at that seed would use.
    /// Only *execution* noise draws from the new streams — the programmed
    /// conductances are the original's, shared.
    fn replicate(&self, replica_seed: u64) -> Self {
        let mats = self
            .mats
            .iter()
            .zip(self.plan.matrices())
            .map(|(mat, m)| mat.replicate(layer_seed(replica_seed, m.layer)))
            .collect();
        Self {
            ledger: self.ledger.clone(),
            ..Self::new(self.name, Arc::clone(&self.plan), mats)
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

    /// Serves a whole batch step by step along the plan: every matrix
    /// step fires one batched substrate activation covering all samples
    /// (and, for convs, all windows), so periphery setup, device
    /// resolution, and WDM lane packing amortize across the batch.
    fn run_batch_inner(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        let expected = self.plan.input_shape().len();
        if let Some(x) = xs.iter().find(|x| x.len() != expected) {
            return Err(EbError::Config(format!(
                "input has {} elements, network expects {expected}",
                x.len()
            )));
        }
        let mut acts = Batch::Input;
        for step in self.plan.steps() {
            acts = match (step, acts) {
                (Step::Matrix(m), acts) => run_matrix(m, &mut self.mats[m.index], xs, &acts)?,
                (Step::MaxPool2 { .. }, Batch::Maps(ts)) => {
                    Batch::Maps(ts.iter().map(BitTensor::max_pool_2x2).collect())
                }
                (Step::Flatten, Batch::Maps(ts)) => {
                    Batch::Vectors(ts.iter().map(BitTensor::flatten).collect())
                }
                (Step::Output(l), Batch::Vectors(vs)) => Batch::Logits(
                    vs.iter()
                        .map(|bits| {
                            let logits = eb_bitnn::ops::output_logits(bits, l.weights(), l.bias());
                            Tensor::from_vec(&[logits.len()], logits)
                        })
                        .collect(),
                ),
                _ => return Err(plan_broken()),
            };
        }
        self.inferences += xs.len() as u64;
        match acts {
            Batch::Logits(ts) => Ok(ts),
            // A zero-layer network echoes its input, like `Bnn::forward`.
            Batch::Input => Ok(xs.to_vec()),
            _ => Err(plan_broken()),
        }
    }
}

/// The plan chains activation kinds by construction
/// ([`LayerPlan::new`]), so a step fed another kind is an internal
/// contract break — surfaced as a typed error, not a serving-thread
/// panic.
fn plan_broken() -> EbError {
    EbError::Config(
        "internal error: a layer-plan step was fed an activation it does not take".into(),
    )
}

/// Runs one crossbar step over the whole batch. A bit-serial step drives
/// the quantized input (per window on a conv) plane by plane and
/// subtracts the plan's offsets; a binary step drives `(x, x̄)` for every
/// sample (per window on a conv) in one activation.
fn run_matrix(
    m: &MatrixStep,
    mat: &mut MappedMat,
    xs: &[Tensor],
    acts: &Batch,
) -> Result<Batch, EbError> {
    let n = m.outputs();
    let pre = match (&m.offsets, acts, m.conv) {
        (Some(offsets), Batch::Input, conv) => {
            let mut vals = Vec::with_capacity(xs.len() * m.windows());
            for x in xs {
                let q = x.quantize(8);
                match conv {
                    None => vals.push(q.iter().map(|&q| i32::from(q) + 127).collect()),
                    Some(g) => vals.extend(
                        (0..g.windows())
                            .map(|wi| extract_window(&q, &g, wi / g.out_width, wi % g.out_width)),
                    ),
                }
            }
            bit_serial_preacts(mat, &vals, m.weights.cols(), offsets, n)?
        }
        (None, Batch::Vectors(vs), None) => popcounts(mat, vs)?,
        (None, Batch::Maps(ts), Some(g)) => {
            let rows: Vec<BitVec> = ts
                .iter()
                .flat_map(|t| {
                    let cols = t.im2col(g.kernel, g.stride, g.pad);
                    (0..cols.rows()).map(move |r| cols.row(r))
                })
                .collect();
            popcounts(mat, &rows)?
        }
        _ => return Err(plan_broken()),
    };
    Ok(fire(m, &pre))
}

/// Drives `(x, x̄)` for every drive vector in one batched activation and
/// returns the XNOR popcounts, one row of outputs per drive, flattened.
fn popcounts(mat: &mut MappedMat, drives: &[BitVec]) -> Result<Vec<i64>, EbError> {
    let complements: Vec<BitVec> = drives.iter().map(BitVec::complement).collect();
    let pairs: Vec<(&BitVec, &BitVec)> = drives.iter().zip(&complements).collect();
    let counts = mat.activate_pairs(&pairs)?;
    Ok(counts.into_iter().flatten().map(i64::from).collect())
}

/// Thresholds the pre-activations — one row of `m.outputs()` per
/// (sample, window), sample-major — into each sample's output: a binary
/// vector on a dense layer, a binary map on a conv.
fn fire(m: &MatrixStep, pre: &[i64]) -> Batch {
    let n = m.outputs();
    match m.conv {
        None => Batch::Vectors(
            pre.chunks_exact(n)
                .map(|row| {
                    row.iter()
                        .zip(&m.thresholds)
                        .map(|(&p, t)| t.fire(p))
                        .collect()
                })
                .collect(),
        ),
        Some(g) => Batch::Maps(
            pre.chunks_exact(n * g.windows())
                .map(|sample| {
                    let mut out = BitTensor::zeros(n, g.out_height, g.out_width);
                    for (wi, row) in sample.chunks_exact(n).enumerate() {
                        for (f, (&p, t)) in row.iter().zip(&m.thresholds).enumerate() {
                            if t.fire(p) {
                                out.set(f, wi / g.out_width, wi % g.out_width, true);
                            }
                        }
                    }
                    out
                })
                .collect(),
        ),
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
            crossbar_steps: self.mats.iter().map(|m| m.vcore.steps_taken()).sum(),
            wdm_lanes: self.mats.iter().map(|m| m.lanes).sum(),
            latency_ns: self.latency_ns,
            energy_j: self.mats.iter().map(|m| m.vcore.energy_j()).sum(),
            fault_cells: self
                .mats
                .iter()
                .map(|m| m.vcore.fault_count())
                .sum::<usize>() as u64,
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
        // (weights, and offset tables that dominate on a bit-serial conv).
        let crossbars: usize = self.mats.iter().map(|m| m.vcore.core_bytes()).sum();
        SessionMemory {
            core_bytes: (crossbars + self.plan.bytes()) as u64,
            replica_bytes: self.mats.iter().map(MappedMat::rind_bytes).sum::<usize>() as u64
                + std::mem::size_of::<Self>() as u64,
        }
    }
}

/// Runs the bit-serial fixed-point lowering for a batch of offset-unsigned
/// integer vectors (`x' = q + 127 ∈ [0, 254]`, zeros at padding), one per
/// (sample, window): for each of the 8 bit planes, drives `(plane, 0)` and
/// `(0, plane)` for every vector in one batched activation and accumulates
/// the signed, bit-weighted count difference onto the negated `offsets`
/// of the vector's window (`n` per window, cycling). Returns a flat
/// `vals.len() × n` buffer of signed pre-activations `Σ qᵢ·wᵢ`.
fn bit_serial_preacts(
    mat: &mut MappedMat,
    vals: &[Vec<i32>],
    fan_in: usize,
    offsets: &[i64],
    n: usize,
) -> Result<Vec<i64>, EbError> {
    let zero = BitVec::zeros(fan_in);
    let mut acc: Vec<i64> = offsets
        .iter()
        .cycle()
        .take(vals.len() * n)
        .map(|o| -o)
        .collect();
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

/// Extracts one offset-unsigned conv window: valid positions read
/// `q + 127`, padding stays 0 (matching the simulator's `Window`
/// instruction over the offset input register).
fn extract_window(q: &[i16], g: &ConvGeometry, oy: usize, ox: usize) -> Vec<i32> {
    let mut v = vec![0i32; g.channels * g.kernel * g.kernel];
    g.for_each_valid_pos(oy, ox, |fi, ii| {
        v[fi] = i32::from(q[ii]) + 127;
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinConv, BinLinear, FixedConv, FixedLinear, Layer, OutputLinear, Shape};
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
            .0
            .program(&net, &SessionOpts::default())
            .unwrap();
        let crossbars: usize = session.mats.iter().map(|m| m.vcore.core_bytes()).sum();
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
