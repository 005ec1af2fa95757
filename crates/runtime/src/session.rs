//! The `Backend`/`Session` contract: compile once, serve many.
//!
//! A [`Backend`] knows how to *prepare* a trained [`Bnn`] for a
//! substrate — programming crossbars, compiling instruction streams,
//! seeding RNGs — and hands back a [`Session`]: a long-lived, mutable
//! serving object whose `infer`/`infer_batch` calls never re-do that
//! setup work. All backends speak the same tensor-in/tensor-out types
//! and the same [`EbError`], so callers switch substrates by
//! configuration alone.

use crate::error::EbError;
use crate::health::{HealthProbe, HealthReport};
use eb_artifact::Prepared;
use eb_bitnn::{Bnn, Tensor};
use eb_xbar::FaultConfig;

/// How much noise a prepared session injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum NoiseProfile {
    /// Ideal devices and periphery: analog sessions are bit-exact against
    /// the software reference.
    #[default]
    Ideal,
    /// Representative device noise: ePCM programming/read variability on
    /// the electronic substrate, shot/thermal/RIN receiver noise on the
    /// photonic one, and the same per-substrate noise on the simulator's
    /// crossbars. The software backend is unaffected.
    Noisy,
}

/// Noise ownership configuration: the session owns a [`rand::rngs::StdRng`]
/// seeded from `seed`, so identically configured sessions replay identical
/// (noisy) outputs — callers never thread `&mut impl Rng` through serving
/// calls.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseConfig {
    /// Seed for the session-owned RNG (programming and read noise draws).
    pub seed: u64,
    /// Noise intensity profile.
    pub profile: NoiseProfile,
    /// Optional resistance-drift read time `t/t₀`: when set, crossbar
    /// reads resolve amorphous drift at this ratio (`G(t) = G₀·(t/t₀)^−ν`
    /// with ν = [`eb_xbar::DeviceParams::drift_nu`]). Only the ePCM
    /// backend models drift, and it requires an effective device model
    /// with `drift_nu > 0`; every other configuration **rejects** the
    /// setting at `prepare` time instead of silently ignoring it.
    pub drift_t_ratio: Option<f64>,
    /// Optional cell-fault profile: seeded, deterministic stuck-at /
    /// dead-cell faults injected into every crossbar the session
    /// programs (see [`eb_xbar::FaultConfig`]). Only the ePCM backend
    /// hosts electronic cell faults; every other backend **rejects** an
    /// *active* profile (any nonzero rate) at `prepare` time — the same
    /// no-silent-fallback rule as drift. A vacuous all-zero profile is
    /// the identity and is accepted (and bit-exact) everywhere.
    pub fault: Option<FaultConfig>,
}

/// Options applied when preparing a session.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionOpts {
    /// RNG ownership + noise profile.
    pub noise: NoiseConfig,
}

/// Counters a session accumulates while serving, for the substrates that
/// provide them: every backend reports `inferences` and `latency_ns`;
/// the analog backends add crossbar step and WDM lane counts; the
/// simulator reports its compiled program's modeled per-inference steps,
/// lanes, latency and energy times the inferences served.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStats {
    /// Inferences served.
    pub inferences: u64,
    /// Crossbar activations (a WDM MMM counts once).
    pub crossbar_steps: u64,
    /// WDM lanes carried across all optical activations.
    pub wdm_lanes: u64,
    /// Accumulated serving latency in nanoseconds, monotone
    /// nondecreasing across calls. The simulator backend reports its
    /// *modeled* accelerator latency; the software, ePCM, and photonic
    /// sessions report *measured* wall-clock serving time (their
    /// substrate models have no latency model, and 0 — the pre-PR-5
    /// behavior — made `PoolStats` and ticket wait times meaningless on
    /// three of four backends).
    pub latency_ns: f64,
    /// Modeled energy in joules. The simulator backend reports its
    /// accelerator energy model; the ePCM backend charges
    /// [`eb_xbar::XbarEnergies`] per crossbar programming and VMM
    /// activation. The software and photonic sessions leave this 0
    /// (no energy model on those substrates).
    pub energy_j: f64,
    /// Faulty crossbar cells currently injected into this session
    /// (stuck-at / dead, from [`eb_xbar::FaultConfig`] profiles and
    /// targeted kills). A gauge, not a counter: the ePCM backend reports
    /// its live fault population; other substrates report 0.
    pub fault_cells: u64,
}

impl SessionStats {
    /// Accumulates `other` into `self`, field-wise — the reduction
    /// [`crate::PoolStats`] uses to aggregate replica counters.
    /// `fault_cells` sums too: across a pool it reads as the total fault
    /// population over all replica sessions.
    pub fn merge(&mut self, other: &SessionStats) {
        self.inferences += other.inferences;
        self.crossbar_steps += other.crossbar_steps;
        self.wdm_lanes += other.wdm_lanes;
        self.latency_ns += other.latency_ns;
        self.energy_j += other.energy_j;
        self.fault_cells += other.fault_cells;
    }
}

/// Approximate resident-memory split of a prepared session, separating
/// what is `Arc`-shared across a pool's replicas (the programmed core:
/// device grids, compiled programs) from what each replica privately
/// owns (RNGs, scratch, counters, fault overlays). Shared bytes must be
/// counted **once** per pool — sum `replica_bytes` over replicas but
/// take `core_bytes` from any single one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionMemory {
    /// Approximate bytes of programmed state shared by every replica.
    pub core_bytes: u64,
    /// Approximate bytes private to this replica.
    pub replica_bytes: u64,
}

/// A substrate that can prepare serving sessions for trained networks.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (stable across calls).
    fn name(&self) -> &'static str;

    /// Prepares `replicas` sessions sharing one programmed core — the one
    /// prepare entry point every backend implements. `restore = None`
    /// compiles/maps `net` from scratch; `Some(prepared)` rebuilds the
    /// core from a snapshot whose `meta` the caller has already validated
    /// against `opts`, so implementations only check that the *state*
    /// fits `net` and their configuration.
    ///
    /// Programming (or restoring) happens **once** and feeds every
    /// replica. Replica 0 is the plain session at `opts.noise.seed` (a
    /// restored one resumes the snapshot's RNG position); replicas
    /// `i ≥ 1` share its programmed state and draw their *execution*
    /// noise from fresh RNGs at `seed.wrapping_add(i)`.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] when the network cannot be hosted or the
    /// snapshot does not fit it; no partial pool is returned. A backend
    /// with no restore path returns [`EbError::Config`] for `Some(_)`
    /// rather than silently preparing fresh.
    fn prepare_replicas(
        &self,
        net: &Bnn,
        opts: &SessionOpts,
        replicas: usize,
        restore: Option<Prepared>,
    ) -> Result<Vec<Box<dyn Session>>, EbError>;

    /// Compiles/maps `net` for this substrate and returns one
    /// ready-to-serve session: replica 0 of a fresh
    /// [`Backend::prepare_replicas`].
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] on the same failures as
    /// [`Backend::prepare_replicas`].
    fn prepare(&self, net: &Bnn, opts: &SessionOpts) -> Result<Box<dyn Session>, EbError> {
        sole_session(self.name(), self.prepare_replicas(net, opts, 1, None)?)
    }

    /// Prepares `net` exactly as [`Backend::prepare`] would and snapshots
    /// the resulting substrate state — programmed crossbar conductances
    /// and post-programming RNG positions — for an `.ebm` artifact's
    /// prepared section, so a later load can skip crossbar programming.
    /// What is derived from the network alone (a simulator's instruction
    /// stream) is not stored; restore recompiles it.
    ///
    /// Backends whose `prepare` is trivial (the software reference has
    /// nothing to snapshot) return `Ok(None)`, and the artifact simply
    /// carries no prepared section.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] when the network cannot be hosted — the same
    /// failures `prepare` reports.
    fn export_prepared(&self, net: &Bnn, opts: &SessionOpts) -> Result<Option<Prepared>, EbError> {
        let _ = (net, opts);
        Ok(None)
    }
}

/// The session of a one-replica prepare.
pub(crate) fn sole_session(
    backend: &str,
    mut sessions: Vec<Box<dyn Session>>,
) -> Result<Box<dyn Session>, EbError> {
    sessions.pop().ok_or_else(|| {
        EbError::Config(format!(
            "backend {backend} prepared no session for a one-replica request"
        ))
    })
}

/// A prepared, stateful serving handle: weights are already programmed /
/// compiled; every call is pure execution.
pub trait Session: Send {
    /// Name of the backend that prepared this session.
    fn backend_name(&self) -> &'static str;

    /// Runs one inference, returning the logits.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] on input-shape mismatch or substrate execution
    /// failures.
    fn infer(&mut self, x: &Tensor) -> Result<Tensor, EbError>;

    /// Runs a batch of inferences. The default implementation loops
    /// [`Session::infer`]; backends with a genuinely batched substrate
    /// path (rayon fan-out, batched analog VMM, WDM lane packing)
    /// override it.
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] if any sample fails; no partial results are
    /// returned.
    fn infer_batch(&mut self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        xs.iter().map(|x| self.infer(x)).collect()
    }

    /// Counters accumulated so far.
    fn stats(&self) -> SessionStats;

    /// Approximate resident memory, split into the `Arc`-shared
    /// programmed core and this replica's private state (see
    /// [`SessionMemory`]). The default reports zeros for backends that
    /// don't account their footprint.
    fn memory(&self) -> SessionMemory {
        SessionMemory::default()
    }

    /// Runs a golden-sample canary probe through this session and reports
    /// agreement against the known-good outputs (see [`HealthProbe`]).
    /// Probing is ordinary served traffic — it flows through
    /// [`Session::infer_batch`] and counts toward [`Session::stats`].
    ///
    /// # Errors
    ///
    /// Propagates substrate execution failures. To *enforce* the probe's
    /// floor instead of just measuring, use [`HealthProbe::check`], which
    /// returns [`EbError::Degraded`] below it.
    fn health(&mut self, probe: &HealthProbe) -> Result<HealthReport, EbError> {
        probe.run(self)
    }
}

/// Predicted class for one input: argmax of [`Session::infer`] logits.
///
/// Provided as a free function so it works through `Box<dyn Session>`.
///
/// # Errors
///
/// Propagates [`Session::infer`] errors, and returns
/// [`EbError::Config`] when inference yields an empty logits vector —
/// there is no class to predict, and silently reporting class 0 (the
/// pre-PR-4 behavior) masked the misconfiguration.
pub fn predict(session: &mut dyn Session, x: &Tensor) -> Result<usize, EbError> {
    let logits = session.infer(x)?;
    predicted_class(&logits)
}

/// Argmax of a logits tensor, rejecting the empty case.
pub(crate) fn predicted_class(logits: &Tensor) -> Result<usize, EbError> {
    eb_bitnn::ops::argmax(logits.as_slice()).ok_or_else(|| {
        EbError::Config("inference produced empty logits; no class to predict".into())
    })
}
