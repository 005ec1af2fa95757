//! [`Server`] — a registry of named, independently configured
//! [`ServePool`]s with zero-downtime model replacement.
//!
//! Serving one model is [`ServePool`]'s job; production serving means
//! *several* models (A/B variants, per-tenant networks, staged
//! rollouts) behind stable names. A [`Server`] owns one pool per name
//! and supports:
//!
//! * [`Server::handle`] — a cloneable [`ModelHandle`] addressing a model
//!   *by name*, stable across hot swaps,
//! * [`Server::deploy`] / [`Server::retire`] — add and remove models at
//!   runtime,
//! * [`Server::swap`] — hot-replace a model's network: the new pool is
//!   prepared first (crossbars programmed, streams compiled), then the
//!   name atomically switches to it, then the old pool drains — every
//!   in-flight ticket on the old pool still completes, and a client
//!   that races the switch transparently resubmits to the new pool
//!   (zero dropped tickets).
//!
//! # Per-model seed derivation
//!
//! Model `name`'s pool uses base seed
//! `configured_seed XOR fnv1a64(name)` (see [`derived_model_seed`]),
//! and replica `i` inside that pool serves with `base + i` as always.
//! Two models deployed with identical options therefore draw
//! *independent* noise streams, while redeploying (or swapping) the
//! same name is deterministic: same `(name, configured seed, network,
//! options)` ⇒ identical noisy outputs.

use crate::builder::{BackendKind, Runtime};
use crate::error::EbError;
use crate::health::{HealthProbe, HealthReport};
use crate::serve::batcher::{closed_error, Rejected};
use crate::serve::lock_recovering;
use crate::serve::maintenance::{MaintenanceConfig, MaintenanceLoop, MaintenanceStats};
use crate::serve::pool::{PoolConfig, PoolHandle, PoolStats, QueuedRequest, ServePool};
use crate::serve::telemetry::{PoolTelemetry, StageHistograms};
use crate::serve::ticket::{Request, Ticket};
use crate::session::SessionOpts;
use eb_artifact::{Artifact, ArtifactInfo, Prepared};
use eb_bitnn::{Bnn, Tensor};
use eb_telemetry::Registry as MetricsRegistry;
use eb_xbar::FaultConfig;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

fn read_recovering<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_recovering<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Base seed of the named model's pool: `configured ^ fnv1a64(name)`.
///
/// FNV-1a keeps the rule dependency-free and documentable; the XOR
/// preserves the configured seed as the reproducibility knob (change it
/// and every model's stream changes; keep it and each name replays).
pub fn derived_model_seed(name: &str, configured: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    configured ^ hash
}

/// Per-model serving configuration: which substrate, which session
/// options, which pool shape. [`Clone`]d freely so [`Server::swap`] can
/// rebuild a model's pool with the options it was deployed with.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOpts {
    /// Substrate the model's replicas are prepared on.
    pub backend: BackendKind,
    /// Session options (noise profile, configured seed — the pool's
    /// base seed is then name-derived, see [`derived_model_seed`]).
    pub session: SessionOpts,
    /// Pool shape (replicas, micro-batch bounds, queue depth).
    pub pool: PoolConfig,
}

impl Default for ModelOpts {
    /// Software backend, ideal noise, default pool shape.
    fn default() -> Self {
        Self {
            backend: BackendKind::Software,
            session: SessionOpts::default(),
            pool: PoolConfig::default(),
        }
    }
}

/// The handle slot a [`ModelHandle`] reads through: `generation`
/// advances on every [`Server::swap`], which is how a client that
/// raced the switch distinguishes "this model was swapped — resubmit"
/// from "this model is gone — report the error".
struct HandleSlot {
    generation: u64,
    handle: PoolHandle,
}

/// One registered model.
struct ModelEntry {
    /// The options the model was *deployed* with — the healthy baseline
    /// [`Server::heal`] restores.
    opts: ModelOpts,
    /// A maintenance-injected fault profile currently overriding the
    /// baseline (simulated device aging); `None` when healthy.
    injected: Option<FaultConfig>,
    /// The deployed network, kept so fault injection and healing can
    /// rebuild the pool without the caller re-supplying it.
    net: Bnn,
    /// Container provenance when the model was loaded from an `.ebm`
    /// file ([`Server::deploy_from_file`] / [`Server::swap_from_file`]);
    /// `None` for in-memory deploys. Surfaced by
    /// [`Server::artifact_info`] and `GET /v1/models`.
    artifact: Option<ArtifactInfo>,
    slot: Arc<RwLock<HandleSlot>>,
    /// Owns the worker threads; replaced wholesale by [`Server::swap`].
    pool: ServePool,
}

/// How [`ServerInner::rebuild`] re-derives a model's pool.
enum Rebuild<'a> {
    /// New network, baseline options, injected faults cleared. When the
    /// network came out of an `.ebm` container, `prepared` carries its
    /// prepared-state section (restored once, feeding every replica) and
    /// `artifact` the provenance to record; both are `None` for
    /// in-memory swaps.
    Swap {
        net: &'a Bnn,
        /// Boxed: a prepared snapshot is large next to the other
        /// variants, and Inject/Heal rebuilds never carry one.
        prepared: Box<Option<Prepared>>,
        artifact: Option<ArtifactInfo>,
    },
    /// Same network, baseline options with this fault profile injected.
    Inject(FaultConfig),
    /// Same network, baseline options, injected faults cleared — a
    /// reprogram onto fresh devices.
    Heal,
}

/// A multi-model serving registry: named [`ServePool`]s behind one
/// deploy/retire/swap surface (swap contract on [`Server::swap`],
/// seed-derivation rule on [`derived_model_seed`]).
///
/// ```
/// use eb_runtime::{Server, Request};
/// use eb_bitnn::{BinLinear, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(2);
/// let net = Bnn::new(
///     "m",
///     Shape::Flat(8),
///     vec![
///         Layer::FixedLinear(FixedLinear::random("in", 8, 6, &mut rng)),
///         Layer::BinLinear(BinLinear::random("h", 6, 6, &mut rng)),
///         Layer::Output(OutputLinear::random("out", 6, 3, &mut rng)),
///     ],
/// )?;
/// let server = Server::builder().model("mnist", &net).serve()?;
/// let handle = server.handle("mnist")?;
/// let x = Tensor::from_fn(&[8], |i| (i as f32 * 0.3).cos());
/// let ticket = handle.submit(Request::new(x.clone()))?;
/// assert_eq!(ticket.wait()?, net.forward(&x)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    // Declared before `inner` so dropping a `Server` stops the
    // maintenance thread (which holds its own `Arc<ServerInner>`)
    // before the registry's pools drain.
    maintenance: Mutex<Option<MaintenanceLoop>>,
    inner: Arc<ServerInner>,
}

/// The shared registry state: what the [`Server`] facade and the
/// [`MaintenanceLoop`] thread both operate on.
pub(crate) struct ServerInner {
    models: RwLock<HashMap<String, ModelEntry>>,
    defaults: ModelOpts,
    /// The metrics registry every model pool, lifecycle event,
    /// maintenance round and frontend counter records into — the only
    /// store of those counts ([`PoolStats`], [`MaintenanceStats`] and
    /// [`NetStats`](crate::NetStats) are read back from it).
    metrics: Arc<MetricsRegistry>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.models())
            .field("defaults", &self.inner.defaults)
            .field("maintenance", &self.maintenance_stats().is_some())
            .finish()
    }
}

impl ServerInner {
    /// Prepares `name`'s pool per `opts` (with the name-derived base
    /// seed) — the one place registry pools are built. A `prepared`
    /// snapshot (deploy-from-file) is validated against the derived
    /// base seed and then restored **once**, feeding every replica of
    /// the pool through the shared programmed core.
    fn build_pool(
        &self,
        name: &str,
        net: &Bnn,
        opts: &ModelOpts,
        prepared: Option<Prepared>,
    ) -> Result<ServePool, EbError> {
        let mut session = opts.session;
        session.noise.seed = derived_model_seed(name, session.noise.seed);
        let runtime = Runtime::builder()
            .backend(opts.backend)
            .opts(session)
            .build();
        // Resolve the pool's metric handles here — once per build,
        // under the model's name label — so the worker hot path only
        // ever touches pre-resolved atomics. A rebuilt (swapped/healed)
        // pool resolves the *same* series: counters and histograms
        // accumulate across the model's lifetime.
        let telemetry = PoolTelemetry::register(&self.metrics, name, opts.pool.replicas);
        ServePool::start(&runtime, net, opts.pool, prepared, telemetry)
    }

    /// Bumps a per-model lifecycle event counter (deploy / swap / fault
    /// injection / heal / retire). Cold path only: one registry lookup
    /// per event, never per request.
    fn note_event(&self, metric: &'static str, help: &'static str, model: &str) {
        self.metrics
            .counter(metric, help, &[("model", model)])
            .inc();
    }

    /// The baseline options with `injected` (if any) overriding the
    /// fault profile — what a degraded model's pool is built with.
    fn effective_opts(opts: &ModelOpts, injected: Option<FaultConfig>) -> ModelOpts {
        let mut opts = opts.clone();
        if injected.is_some() {
            opts.session.noise.fault = injected;
        }
        opts
    }

    fn unknown_model(&self, name: &str) -> EbError {
        let known = self.model_names();
        EbError::Config(format!(
            "unknown model `{name}` (deployed: [{}])",
            known.join(", ")
        ))
    }

    /// The server's metrics registry — what the maintenance loop and
    /// the network frontend resolve their own counters from.
    pub(crate) fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    pub(crate) fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recovering(&self.models).keys().cloned().collect();
        names.sort();
        names
    }

    /// Every deployed model with its artifact provenance (`None` for
    /// in-memory deploys), sorted by name — what `GET /v1/models`
    /// renders.
    pub(crate) fn model_infos(&self) -> Vec<(String, Option<ArtifactInfo>)> {
        let mut infos: Vec<(String, Option<ArtifactInfo>)> = read_recovering(&self.models)
            .iter()
            .map(|(name, entry)| (name.clone(), entry.artifact))
            .collect();
        infos.sort_by(|a, b| a.0.cmp(&b.0));
        infos
    }

    fn deploy_entry(
        &self,
        name: &str,
        net: &Bnn,
        opts: ModelOpts,
        prepared: Option<Prepared>,
        artifact: Option<ArtifactInfo>,
    ) -> Result<(), EbError> {
        if read_recovering(&self.models).contains_key(name) {
            return Err(EbError::Config(format!(
                "model `{name}` is already deployed; use Server::swap to replace it"
            )));
        }
        // Prepare outside the map lock — programming crossbars can take
        // a while and other models must keep serving.
        let pool = self.build_pool(name, net, &opts, prepared)?;
        let entry = ModelEntry {
            opts,
            injected: None,
            net: net.clone(),
            artifact,
            slot: Arc::new(RwLock::new(HandleSlot {
                generation: 0,
                handle: pool.handle(),
            })),
            pool,
        };
        let mut models = write_recovering(&self.models);
        if models.contains_key(name) {
            // A concurrent deploy won the race; drop our pool (drains
            // nothing — it never served).
            return Err(EbError::Config(format!(
                "model `{name}` is already deployed; use Server::swap to replace it"
            )));
        }
        models.insert(name.to_string(), entry);
        drop(models);
        self.note_event(
            "eb_model_deploys_total",
            "Models deployed under this name.",
            name,
        );
        Ok(())
    }

    /// The shared hot-replacement path under [`Server::swap`],
    /// [`Server::inject_faults`], and [`Server::heal`]: prepare the
    /// replacement pool *outside every lock*, atomically switch the
    /// name's [`HandleSlot`] to it (bumping the generation so racing
    /// [`ModelHandle`] submissions resubmit), then drain the old pool —
    /// zero dropped tickets. Returns the retired pool's final counters.
    fn rebuild(&self, name: &str, action: Rebuild<'_>) -> Result<PoolStats, EbError> {
        let (event_metric, event_help) = match &action {
            Rebuild::Swap { .. } => ("eb_model_swaps_total", "Hot swaps of this model."),
            Rebuild::Inject(_) => (
                "eb_model_fault_injections_total",
                "Fault profiles injected into this model.",
            ),
            Rebuild::Heal => ("eb_model_heals_total", "Heal rebuilds of this model."),
        };
        // Every `unknown_model` call below reads the models lock, so it
        // must only run with no guard live on this thread.
        let plan = {
            let models = read_recovering(&self.models);
            models.get(name).map(|entry| {
                // Inject/Heal rebuild the same network, so provenance is
                // unchanged; a swap's provenance is whatever the action
                // says (file info, or None for an in-memory network).
                let (net, injected, prepared, artifact) = match action {
                    Rebuild::Swap {
                        net,
                        prepared,
                        artifact,
                    } => (net.clone(), None, *prepared, artifact),
                    Rebuild::Inject(fault) => {
                        (entry.net.clone(), Some(fault), None, entry.artifact)
                    }
                    Rebuild::Heal => (entry.net.clone(), None, None, entry.artifact),
                };
                (entry.opts.clone(), net, injected, prepared, artifact)
            })
        };
        let Some((opts, net, injected, prepared, artifact)) = plan else {
            return Err(self.unknown_model(name));
        };
        let new_pool =
            self.build_pool(name, &net, &Self::effective_opts(&opts, injected), prepared)?;
        let replaced = {
            let mut models = write_recovering(&self.models);
            match models.get_mut(name) {
                Some(entry) => {
                    let mut slot = write_recovering(&entry.slot);
                    slot.generation += 1;
                    slot.handle = new_pool.handle();
                    drop(slot);
                    entry.injected = injected;
                    entry.net = net;
                    entry.artifact = artifact;
                    Ok(std::mem::replace(&mut entry.pool, new_pool))
                }
                // Retired while we were preparing; honor the retire and
                // tear the never-used replacement down outside the lock.
                None => Err(new_pool),
            }
        };
        match replaced {
            // Outside every lock: serve the old pool's queued requests
            // to completion and join its workers.
            Ok(old) => {
                self.note_event(event_metric, event_help, name);
                Ok(old.shutdown())
            }
            Err(unused) => {
                drop(unused);
                Err(self.unknown_model(name))
            }
        }
    }

    fn retire(&self, name: &str) -> Result<PoolStats, EbError> {
        let entry = write_recovering(&self.models).remove(name);
        match entry {
            Some(entry) => {
                self.note_event("eb_model_retires_total", "Retirements of this model.", name);
                Ok(entry.pool.shutdown())
            }
            None => Err(self.unknown_model(name)),
        }
    }

    /// Runs a health probe through model `name`'s *current* pool as
    /// ordinary queue traffic — what [`Server::health`] and the
    /// maintenance loop call. The pool handle is cloned out of the slot
    /// first so no registry lock is held while canaries serve.
    pub(crate) fn probe_model(
        &self,
        name: &str,
        probe: &HealthProbe,
    ) -> Result<HealthReport, EbError> {
        let handle = {
            let models = read_recovering(&self.models);
            match models.get(name) {
                Some(entry) => read_recovering(&entry.slot).handle.clone(),
                None => {
                    drop(models);
                    return Err(self.unknown_model(name));
                }
            }
        };
        let report = handle.health(probe)?;
        self.metrics
            .counter(
                "eb_health_probes_total",
                "Golden-canary health probes served by this model.",
                &[("model", name)],
            )
            .inc();
        self.metrics
            .gauge(
                "eb_model_health_agreement",
                "Canary agreement ratio of the most recent health probe (0..1).",
                &[("model", name)],
            )
            .set(report.agreement);
        Ok(report)
    }

    /// [`Server::heal`]'s implementation, callable from the maintenance
    /// thread.
    pub(crate) fn heal(&self, name: &str) -> Result<PoolStats, EbError> {
        self.rebuild(name, Rebuild::Heal)
    }
}

impl Server {
    /// Starts configuring a server (defaults: software backend, ideal
    /// noise, default pool shape, no models).
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// A cloneable, swap-stable handle addressing model `name`.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when no model of that name is
    /// deployed.
    pub fn handle(&self, name: &str) -> Result<ModelHandle, EbError> {
        let models = read_recovering(&self.inner.models);
        let entry = models.get(name);
        match entry {
            Some(entry) => Ok(ModelHandle {
                name: Arc::from(name),
                slot: Arc::clone(&entry.slot),
            }),
            None => {
                drop(models);
                Err(self.inner.unknown_model(name))
            }
        }
    }

    /// Deploys a new model under `name` with the server's default
    /// [`ModelOpts`].
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the name is already taken (use
    /// [`Server::swap`] to replace a live model) and any prepare-time
    /// [`EbError`] from the substrate.
    pub fn deploy(&self, name: &str, net: &Bnn) -> Result<(), EbError> {
        self.deploy_with(name, net, self.inner.defaults.clone())
    }

    /// Deploys a new model under `name` with explicit options.
    ///
    /// # Errors
    ///
    /// Same contract as [`Server::deploy`].
    pub fn deploy_with(&self, name: &str, net: &Bnn, opts: ModelOpts) -> Result<(), EbError> {
        self.inner.deploy_entry(name, net, opts, None, None)
    }

    /// Deploys a model from a versioned `.ebm` artifact file with the
    /// server's default [`ModelOpts`] — the zero-training-code cold
    /// start. The container is checksum-verified before anything is
    /// built; if it carries a prepared-state section captured under
    /// conditions matching this deployment (backend, the name-derived
    /// seed, noise knobs), replica 0 restores it instead of programming
    /// from scratch. A conflicting prepared section is an error, never
    /// silently dropped. Returns the loaded container's
    /// [`ArtifactInfo`], also surfaced by [`Server::artifact_info`] and
    /// `GET /v1/models`.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Artifact`] for unreadable/corrupt/
    /// version-skewed files, [`EbError::Config`] for a taken name or a
    /// prepared-state conflict, and any prepare-time [`EbError`] from
    /// the substrate.
    pub fn deploy_from_file(
        &self,
        name: &str,
        path: impl AsRef<Path>,
    ) -> Result<ArtifactInfo, EbError> {
        self.deploy_from_file_with(name, path, self.inner.defaults.clone())
    }

    /// [`Server::deploy_from_file`] with explicit options.
    ///
    /// # Errors
    ///
    /// Same contract as [`Server::deploy_from_file`].
    pub fn deploy_from_file_with(
        &self,
        name: &str,
        path: impl AsRef<Path>,
        opts: ModelOpts,
    ) -> Result<ArtifactInfo, EbError> {
        let Artifact {
            net,
            prepared,
            info,
        } = eb_artifact::read_model(path)?;
        self.inner
            .deploy_entry(name, &net, opts, prepared, Some(info))?;
        Ok(info)
    }

    /// Hot-replaces model `name` from a `.ebm` artifact file, keeping
    /// the options it was deployed with — [`Server::swap`]'s
    /// zero-dropped-tickets contract with [`Server::deploy_from_file`]'s
    /// loading semantics (checksum verification up front, prepared-state
    /// restore on replica 0, conflicts rejected). Returns the retired
    /// pool's final counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Artifact`] for unreadable/corrupt files,
    /// [`EbError::Config`] for an unknown name or a prepared-state
    /// conflict, and any prepare-time [`EbError`] from the substrate
    /// (the old pool keeps serving untouched in all cases).
    pub fn swap_from_file(&self, name: &str, path: impl AsRef<Path>) -> Result<PoolStats, EbError> {
        let Artifact {
            net,
            prepared,
            info,
        } = eb_artifact::read_model(path)?;
        self.inner.rebuild(
            name,
            Rebuild::Swap {
                net: &net,
                prepared: Box::new(prepared),
                artifact: Some(info),
            },
        )
    }

    /// The `.ebm` container provenance of model `name`: `Some` when the
    /// current network was loaded via [`Server::deploy_from_file`] or
    /// [`Server::swap_from_file`] (surviving inject/heal rebuilds, which
    /// keep the network), `None` for in-memory deploys and swaps.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name.
    pub fn artifact_info(&self, name: &str) -> Result<Option<ArtifactInfo>, EbError> {
        let models = read_recovering(&self.inner.models);
        match models.get(name) {
            Some(entry) => Ok(entry.artifact),
            None => {
                drop(models);
                Err(self.inner.unknown_model(name))
            }
        }
    }

    /// Hot-replaces model `name` with `net`, keeping the options it was
    /// deployed with (and clearing any injected fault profile — the new
    /// network is programmed onto fresh devices): prepares the new pool,
    /// atomically switches the name (and every live [`ModelHandle`]) to
    /// it, then drains the old pool — in-flight tickets on the old pool
    /// still complete, and submissions racing the switch resubmit to
    /// the new pool. Returns the retired pool's final counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name and any
    /// prepare-time [`EbError`] from the substrate (the old pool keeps
    /// serving untouched in both cases).
    pub fn swap(&self, name: &str, net: &Bnn) -> Result<PoolStats, EbError> {
        self.inner.rebuild(
            name,
            Rebuild::Swap {
                net,
                prepared: Box::new(None),
                artifact: None,
            },
        )
    }

    /// Injects a cell-fault profile into model `name`: rebuilds its pool
    /// over the same network with `fault` applied to every replica's
    /// crossbars — simulated device aging, delivered through the same
    /// zero-dropped-tickets hot-swap path as [`Server::swap`]. The
    /// injected profile sticks until [`Server::heal`] (or a swap)
    /// clears it. Returns the replaced pool's final counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name, for an *active*
    /// profile on a model whose backend hosts no ePCM cells, and
    /// [`EbError::Xbar`] for invalid fault rates (the old pool keeps
    /// serving untouched in all cases).
    pub fn inject_faults(&self, name: &str, fault: FaultConfig) -> Result<PoolStats, EbError> {
        self.inner.rebuild(name, Rebuild::Inject(fault))
    }

    /// Heals model `name`: rebuilds its pool over the same network with
    /// the options it was *deployed* with, clearing any injected fault
    /// profile — modeling a reprogram onto fresh spare devices. Serving
    /// continuity is the hot-swap contract: zero dropped tickets.
    /// Returns the degraded pool's final counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name and any
    /// prepare-time [`EbError`] from the substrate.
    pub fn heal(&self, name: &str) -> Result<PoolStats, EbError> {
        self.inner.heal(name)
    }

    /// The fault profile currently injected into model `name`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name.
    pub fn injected_fault(&self, name: &str) -> Result<Option<FaultConfig>, EbError> {
        let models = read_recovering(&self.inner.models);
        match models.get(name) {
            Some(entry) => Ok(entry.injected),
            None => {
                drop(models);
                Err(self.inner.unknown_model(name))
            }
        }
    }

    /// Runs a one-shot health probe through model `name`'s pool (as
    /// ordinary queue traffic; the report is also recorded in the pool's
    /// [`PoolStats::last_health`]).
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name and propagates
    /// serving failures.
    pub fn health(&self, name: &str, probe: &HealthProbe) -> Result<HealthReport, EbError> {
        self.inner.probe_model(name, probe)
    }

    /// Starts the periodic maintenance loop: every
    /// [`MaintenanceConfig::interval`], probe each deployed model with
    /// the configured canary set and — when a model degrades below the
    /// probe's floor and `auto_heal` is set — [`Server::heal`] it.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when a maintenance loop is already
    /// running or its thread cannot be spawned.
    pub fn start_maintenance(&self, config: MaintenanceConfig) -> Result<(), EbError> {
        let mut maintenance = lock_recovering(&self.maintenance);
        if maintenance.is_some() {
            return Err(EbError::Config(
                "a maintenance loop is already running; stop it first".into(),
            ));
        }
        *maintenance = Some(MaintenanceLoop::start(Arc::clone(&self.inner), config)?);
        Ok(())
    }

    /// Stops the maintenance loop (if one is running) and returns the
    /// server's maintenance counters as of its last round.
    pub fn stop_maintenance(&self) -> Option<MaintenanceStats> {
        lock_recovering(&self.maintenance)
            .take()
            .map(MaintenanceLoop::stop)
    }

    /// The server's maintenance counters while a loop is running, or
    /// `None` when no loop is active. They count every loop this server
    /// has run (see [`MaintenanceStats`]).
    pub fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        lock_recovering(&self.maintenance)
            .as_ref()
            .map(MaintenanceLoop::stats)
    }

    /// Removes model `name`, drains its pool, and returns the final
    /// counters. Live [`ModelHandle`]s for the name start erroring.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name.
    pub fn retire(&self, name: &str) -> Result<PoolStats, EbError> {
        self.inner.retire(name)
    }

    /// Names of the currently deployed models, sorted.
    pub fn models(&self) -> Vec<String> {
        self.inner.model_names()
    }

    /// Deployed models with artifact provenance, sorted by name — the
    /// `GET /v1/models` source.
    pub(crate) fn model_infos(&self) -> Vec<(String, Option<ArtifactInfo>)> {
        self.inner.model_infos()
    }

    /// Snapshot of model `name`'s pool counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name.
    pub fn stats(&self, name: &str) -> Result<PoolStats, EbError> {
        let models = read_recovering(&self.inner.models);
        match models.get(name) {
            Some(entry) => Ok(entry.pool.stats()),
            None => {
                drop(models);
                Err(self.inner.unknown_model(name))
            }
        }
    }

    /// Snapshot of model `name`'s per-stage latency histograms, which
    /// accumulate across swaps like the model's counters.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for an unknown name.
    pub fn stage_histograms(&self, name: &str) -> Result<StageHistograms, EbError> {
        let models = read_recovering(&self.inner.models);
        match models.get(name) {
            Some(entry) => Ok(entry.pool.stage_snapshot()),
            None => {
                drop(models);
                Err(self.inner.unknown_model(name))
            }
        }
    }

    /// The metrics registry this server records into — render it for a
    /// Prometheus scrape. Every server has one, so this is always
    /// `Some`.
    pub fn telemetry(&self) -> Option<Arc<MetricsRegistry>> {
        Some(Arc::clone(&self.inner.metrics))
    }

    /// The metrics registry this server records into.
    pub(crate) fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// The [`ModelOpts`] applied by [`Server::deploy`].
    pub fn defaults(&self) -> &ModelOpts {
        &self.inner.defaults
    }

    /// Shuts every model down (stopping the maintenance loop, then
    /// draining each pool) and returns the final per-model counters,
    /// sorted by name. Dropping the server does the same, silently.
    pub fn shutdown(self) -> Vec<(String, PoolStats)> {
        self.stop_maintenance();
        let models = std::mem::take(&mut *write_recovering(&self.inner.models));
        let mut finals: Vec<(String, PoolStats)> = models
            .into_iter()
            .map(|(name, entry)| (name, entry.pool.shutdown()))
            .collect();
        finals.sort_by(|a, b| a.0.cmp(&b.0));
        finals
    }
}

/// Builder for [`Server`]: set shared defaults, register the initial
/// models, then [`ServerBuilder::serve`].
#[derive(Debug, Default)]
pub struct ServerBuilder {
    defaults: ModelOpts,
    models: Vec<(String, Bnn, Option<ModelOpts>)>,
    maintenance: Option<MaintenanceConfig>,
}

impl ServerBuilder {
    /// Replaces the default [`ModelOpts`] applied to models registered
    /// without explicit options (and by [`Server::deploy`]).
    pub fn defaults(mut self, opts: ModelOpts) -> Self {
        self.defaults = opts;
        self
    }

    /// Sets the default backend (shorthand into
    /// [`ServerBuilder::defaults`]).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.defaults.backend = kind;
        self
    }

    /// Sets the default configured seed (each model still derives its
    /// own base seed from its name — see [`derived_model_seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.defaults.session.noise.seed = seed;
        self
    }

    /// Sets the default pool shape.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.defaults.pool = pool;
        self
    }

    /// Registers a model to deploy at [`ServerBuilder::serve`] time with
    /// the default options.
    pub fn model(mut self, name: impl Into<String>, net: &Bnn) -> Self {
        self.models.push((name.into(), net.clone(), None));
        self
    }

    /// Registers a model with explicit options.
    pub fn model_with(mut self, name: impl Into<String>, net: &Bnn, opts: ModelOpts) -> Self {
        self.models.push((name.into(), net.clone(), Some(opts)));
        self
    }

    /// Starts the periodic probe-and-heal maintenance loop as soon as
    /// the server is up (see [`Server::start_maintenance`]).
    pub fn maintenance(mut self, config: MaintenanceConfig) -> Self {
        self.maintenance = Some(config);
        self
    }

    /// Prepares every registered model's pool and starts the server.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] for duplicate model names and for a
    /// maintenance thread that cannot be spawned, and any prepare-time
    /// [`EbError`] from a substrate; pools already started are drained
    /// and torn down in that case.
    pub fn serve(self) -> Result<Server, EbError> {
        let server = Server {
            maintenance: Mutex::new(None),
            inner: Arc::new(ServerInner {
                models: RwLock::new(HashMap::new()),
                defaults: self.defaults,
                metrics: Arc::new(MetricsRegistry::new()),
            }),
        };
        for (name, net, opts) in self.models {
            let opts = opts.unwrap_or_else(|| server.inner.defaults.clone());
            // Duplicate names fail here with deploy's own error.
            server.deploy_with(&name, &net, opts)?;
        }
        if let Some(config) = self.maintenance {
            server.start_maintenance(config)?;
        }
        Ok(server)
    }
}

/// A cloneable client handle addressing one *named* model of a
/// [`Server`]. Unlike a raw [`PoolHandle`], it survives
/// [`Server::swap`]: submissions racing a swap transparently retry on
/// the model's new pool, so a client stream across a swap loses zero
/// tickets. After [`Server::retire`] every call errors.
#[derive(Clone)]
pub struct ModelHandle {
    name: Arc<str>,
    slot: Arc<RwLock<HandleSlot>>,
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slot = read_recovering(&self.slot);
        f.debug_struct("ModelHandle")
            .field("name", &self.name)
            .field("generation", &slot.generation)
            .finish()
    }
}

impl ModelHandle {
    /// The model name this handle addresses.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits one request to the model's *current* pool, returning a
    /// [`Ticket`]. If the pool is swapped away between reading the
    /// handle and submitting (its queue rejects new requests while
    /// draining), the very same queued request — no clone, deadline
    /// clock still running from the original submission — is re-offered
    /// to the successor pool, exactly once per swap generation, so
    /// swaps drop no tickets.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] once the model is retired (or its
    /// server dropped).
    pub fn submit(&self, req: Request) -> Result<Ticket, EbError> {
        let priority = req.opts().priority;
        let (x, guard, ticket) = req.into_parts();
        let mut queued = QueuedRequest::new(x, guard);
        let (mut generation, mut handle) = {
            let slot = read_recovering(&self.slot);
            (slot.generation, slot.handle.clone())
        };
        loop {
            match handle.offer(queued, priority) {
                Ok(()) => return Ok(ticket),
                Err(rejected) => {
                    let slot = read_recovering(&self.slot);
                    if slot.generation == generation {
                        // Same pool, really shut down (model retired /
                        // server dropped). Dropping the rejected request
                        // completes its (never-returned) ticket.
                        return Err(closed_error());
                    }
                    queued = rejected;
                    generation = slot.generation;
                    handle = slot.handle.clone();
                }
            }
        }
    }

    /// Non-blocking [`ModelHandle::submit`]: enqueues on the model's
    /// current pool if its queue has room, otherwise **sheds** the
    /// request immediately — the caller is never parked on queue
    /// backpressure. Swap-safety matches `submit`: a pool that rejects
    /// because it is draining for a [`Server::swap`] triggers a retry on
    /// the successor pool (same request, no clone, deadline clock
    /// untouched), but a *full* live pool sheds at once — overload is
    /// answered now, not after a lucky swap.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Overloaded`] when the current pool's queue is
    /// at capacity (counted in that pool's [`PoolStats::shed`]) and
    /// [`EbError::Config`] once the model is retired or its server
    /// dropped (counted in [`PoolStats::rejected`]).
    pub fn try_submit(&self, req: Request) -> Result<Ticket, EbError> {
        let priority = req.opts().priority;
        let (x, guard, ticket) = req.into_parts();
        let mut queued = QueuedRequest::new(x, guard);
        let (mut generation, mut handle) = {
            let slot = read_recovering(&self.slot);
            (slot.generation, slot.handle.clone())
        };
        loop {
            match handle.try_offer(queued, priority) {
                Ok(()) => return Ok(ticket),
                Err(Rejected::Full(_)) => {
                    // The live pool is saturated: this is the overload
                    // signal, final by design. Dropping the rejected
                    // request completes its (never-returned) ticket.
                    handle.note_shed();
                    return Err(EbError::Overloaded);
                }
                Err(Rejected::Closed(rejected)) => {
                    let slot = read_recovering(&self.slot);
                    if slot.generation == generation {
                        // Same pool, really shut down (model retired /
                        // server dropped).
                        handle.note_rejected();
                        return Err(closed_error());
                    }
                    queued = rejected;
                    generation = slot.generation;
                    handle = slot.handle.clone();
                }
            }
        }
    }

    /// Blocking single inference — `submit` + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Propagates [`ModelHandle::submit`] and serving errors.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, EbError> {
        crate::serve::infer_via(|req| self.submit(req), x)
    }

    /// Predicted class for one input: argmax of [`ModelHandle::infer`]
    /// logits.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelHandle::infer`] errors; empty logits are an
    /// [`EbError::Config`], never a silent class 0.
    pub fn predict(&self, x: &Tensor) -> Result<usize, EbError> {
        crate::serve::predict_via(|req| self.submit(req), x)
    }

    /// Submits a whole request stream and blocks until every reply is
    /// in, returning logits in request order.
    ///
    /// # Errors
    ///
    /// Returns the first failing request's [`EbError`] (remaining
    /// requests are still served).
    pub fn infer_many(&self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        crate::serve::infer_many_via(|req| self.submit(req), xs)
    }

    /// Snapshot of the *current* pool's counters. A swap resets the
    /// per-replica counters (the retired pool's are returned by
    /// [`Server::swap`]); [`PoolStats::shed`] and
    /// [`PoolStats::rejected`] count for the model across swaps.
    pub fn stats(&self) -> PoolStats {
        read_recovering(&self.slot).handle.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::{BinLinear, FixedLinear, Layer, OutputLinear, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Bnn {
        let mut rng = StdRng::seed_from_u64(seed);
        Bnn::new(
            "reg-mlp",
            Shape::Flat(10),
            vec![
                Layer::FixedLinear(FixedLinear::random("in", 10, 8, &mut rng)),
                Layer::BinLinear(BinLinear::random("h", 8, 6, &mut rng)),
                Layer::Output(OutputLinear::random("out", 6, 3, &mut rng)),
            ],
        )
        .unwrap()
    }

    fn x() -> Tensor {
        Tensor::from_fn(&[10], |i| (i as f32 * 0.21).sin())
    }

    #[test]
    fn named_models_serve_independently() {
        let a = mlp(1);
        let b = mlp(2);
        let server = Server::builder()
            .model("a", &a)
            .model("b", &b)
            .serve()
            .unwrap();
        assert_eq!(server.models(), vec!["a".to_string(), "b".to_string()]);
        let x = x();
        assert_eq!(
            server.handle("a").unwrap().infer(&x).unwrap(),
            a.forward(&x).unwrap()
        );
        assert_eq!(
            server.handle("b").unwrap().infer(&x).unwrap(),
            b.forward(&x).unwrap()
        );
        assert_eq!(server.stats("a").unwrap().total().inferences, 1);
        let finals = server.shutdown();
        assert_eq!(finals.len(), 2);
        assert!(finals.iter().all(|(_, s)| s.total().inferences == 1));
    }

    #[test]
    fn unknown_duplicate_and_retired_names_are_config_errors() {
        let net = mlp(3);
        let server = Server::builder().model("only", &net).serve().unwrap();
        assert!(matches!(
            server.handle("nope").unwrap_err(),
            EbError::Config(_)
        ));
        assert!(matches!(
            server.deploy("only", &net).unwrap_err(),
            EbError::Config(_)
        ));
        assert!(matches!(
            server.swap("nope", &net).unwrap_err(),
            EbError::Config(_)
        ));
        let handle = server.handle("only").unwrap();
        server.retire("only").unwrap();
        assert!(matches!(
            server.retire("only").unwrap_err(),
            EbError::Config(_)
        ));
        assert!(handle.infer(&x()).is_err(), "retired handles must error");
        // Duplicate registrations fail at serve() time too.
        assert!(Server::builder()
            .model("dup", &net)
            .model("dup", &net)
            .serve()
            .is_err());
    }

    #[test]
    fn swap_switches_handles_and_returns_old_finals() {
        let old = mlp(4);
        let new = mlp(5);
        let server = Server::builder().model("m", &old).serve().unwrap();
        let handle = server.handle("m").unwrap();
        let x = x();
        assert_eq!(handle.infer(&x).unwrap(), old.forward(&x).unwrap());
        let finals = server.swap("m", &new).unwrap();
        assert_eq!(finals.total().inferences, 1, "old pool's final counters");
        // The same pre-swap handle now serves the new network.
        assert_eq!(handle.infer(&x).unwrap(), new.forward(&x).unwrap());
        assert_eq!(server.stats("m").unwrap().total().inferences, 1);
    }

    /// Canary inputs spanning enough of the input space that heavy cell
    /// faults visibly move predicted classes.
    fn canaries(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|k| Tensor::from_fn(&[10], |i| ((i + 3 * k) as f32 * 0.47).sin()))
            .collect()
    }

    #[test]
    fn inject_heal_cycle_degrades_then_restores_canary_agreement() {
        let net = mlp(11);
        let opts = ModelOpts {
            backend: BackendKind::Epcm,
            ..ModelOpts::default()
        };
        let server = Server::builder()
            .model_with("aging", &net, opts)
            .serve()
            .unwrap();
        let probe = HealthProbe::golden(&net, canaries(24), 0.9).unwrap();
        // Healthy baseline: the noiseless ePCM pool is bit-exact.
        let healthy = server.health("aging", &probe).unwrap();
        assert_eq!(healthy.agreement, 1.0);
        assert_eq!(server.injected_fault("aging").unwrap(), None);

        // Simulated aging: a heavy dead-cell population, hot-swapped in.
        let fault = FaultConfig::dead_cells(0.4, 77);
        server.inject_faults("aging", fault).unwrap();
        assert_eq!(server.injected_fault("aging").unwrap(), Some(fault));
        let degraded = server.health("aging", &probe).unwrap();
        assert!(
            !degraded.is_healthy(),
            "40% dead cells must push agreement below 90% (got {degraded})"
        );
        assert!(server.stats("aging").unwrap().total().fault_cells > 0);
        // The report is recorded pool-side too.
        assert_eq!(
            server.stats("aging").unwrap().last_health,
            Some(degraded),
            "probes must record into PoolStats::last_health"
        );

        // Healing reprograms onto fresh devices: agreement recovers.
        server.heal("aging").unwrap();
        assert_eq!(server.injected_fault("aging").unwrap(), None);
        let healed = server.health("aging", &probe).unwrap();
        assert_eq!(healed.agreement, 1.0, "healed pool must match baseline");
        assert_eq!(server.stats("aging").unwrap().total().fault_cells, 0);
    }

    #[test]
    fn fault_injection_is_rejected_off_the_epcm_substrate() {
        let net = mlp(12);
        let server = Server::builder().model("soft", &net).serve().unwrap();
        let x = x();
        let before = server.handle("soft").unwrap().infer(&x).unwrap();
        assert!(matches!(
            server
                .inject_faults("soft", FaultConfig::dead_cells(0.2, 1))
                .unwrap_err(),
            EbError::Config(_)
        ));
        // The rejection left the old pool serving untouched.
        assert_eq!(server.handle("soft").unwrap().infer(&x).unwrap(), before);
        assert!(matches!(
            server
                .inject_faults("nope", FaultConfig::dead_cells(0.2, 1))
                .unwrap_err(),
            EbError::Config(_)
        ));
    }

    #[test]
    fn maintenance_loop_auto_heals_a_degraded_model() {
        use std::time::{Duration, Instant};

        let net = mlp(13);
        let opts = ModelOpts {
            backend: BackendKind::Epcm,
            ..ModelOpts::default()
        };
        let probe = HealthProbe::golden(&net, canaries(24), 0.9).unwrap();
        let server = Server::builder()
            .model_with("watched", &net, opts)
            .maintenance(MaintenanceConfig::new(
                Duration::from_millis(10),
                probe.clone(),
            ))
            .serve()
            .unwrap();
        // A second loop is a configuration error.
        assert!(server
            .start_maintenance(MaintenanceConfig::new(
                Duration::from_secs(1),
                probe.clone()
            ))
            .is_err());
        // Inject heavy faults; the loop must notice and heal without any
        // further calls from us.
        server
            .inject_faults("watched", FaultConfig::dead_cells(0.4, 99))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = server.maintenance_stats().expect("loop is running");
            if stats.heals >= 1 && server.injected_fault("watched").unwrap().is_none() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "maintenance loop failed to heal within 30s: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Post-heal the model serves at its healthy baseline again.
        assert_eq!(server.health("watched", &probe).unwrap().agreement, 1.0);
        let finals = server.stop_maintenance().expect("loop was running");
        assert!(finals.probes >= 1);
        assert!(finals.degradations >= 1);
        assert!(finals.heals >= 1);
        assert!(server.maintenance_stats().is_none());
    }

    #[test]
    fn telemetry_is_on_by_default_and_tracks_lifecycle_events() {
        use std::time::Duration;

        let net = mlp(21);
        // Capacity 1 and a long linger: a lone request stays parked in
        // the queue until its pool drains, so a second one always sheds.
        let server = Server::builder()
            .pool(PoolConfig {
                replicas: 1,
                max_batch: 2,
                max_wait: Duration::from_secs(30),
                queue_capacity: 1,
            })
            .model("m", &net)
            .serve()
            .unwrap();
        let registry = server.telemetry().expect("every server has a registry");
        let handle = server.handle("m").unwrap();
        let x = x();
        let park_and_shed = || {
            let parked = handle.try_submit(Request::new(x.clone())).unwrap();
            let shed = handle.try_submit(Request::new(x.clone()));
            assert!(matches!(shed, Err(EbError::Overloaded)), "{shed:?}");
            parked
        };
        let parked = park_and_shed();
        assert!(registry
            .render()
            .contains("eb_model_deploys_total{model=\"m\"} 1"));
        // Each swap drains the old pool, serving the request parked in
        // it. Counters accumulate into the *same* series: the model
        // served one request in each of its first two pools, so the
        // counter reads 2 across the generation changes.
        server.swap("m", &mlp(22)).unwrap();
        parked.wait().unwrap();
        let parked = park_and_shed();
        server.swap("m", &mlp(23)).unwrap();
        parked.wait().unwrap();
        let text = registry.render();
        assert!(
            text.contains("eb_model_swaps_total{model=\"m\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("eb_requests_served_total{model=\"m\"} 2"),
            "counters must survive swaps:\n{text}"
        );
        // One store per fact: `PoolStats::shed` reads the model's
        // registry series, so the current pool reports both sheds.
        let shed = server.stats("m").unwrap().shed;
        assert_eq!(shed, 2);
        assert!(
            text.contains(&format!("eb_requests_shed_total{{model=\"m\"}} {shed}")),
            "{text}"
        );
        let stages = server.stage_histograms("m").unwrap();
        assert_eq!(
            stages.e2e_us.count(),
            2,
            "stage histograms accumulate across swaps, matching served_total"
        );
        server.retire("m").unwrap();
        assert!(server
            .telemetry()
            .unwrap()
            .render()
            .contains("eb_model_retires_total{model=\"m\"} 1"));
    }

    #[test]
    fn deploy_after_start_and_derived_seeds_differ_per_name() {
        let net = mlp(6);
        let server = Server::builder().serve().unwrap();
        assert!(server.models().is_empty());
        server.deploy("late", &net).unwrap();
        assert!(server.handle("late").unwrap().predict(&x()).unwrap() < 3);
        assert_ne!(
            derived_model_seed("a", 7),
            derived_model_seed("b", 7),
            "names must decorrelate noise streams"
        );
        assert_ne!(
            derived_model_seed("a", 7),
            derived_model_seed("a", 8),
            "the configured seed must stay a knob"
        );
    }
}
