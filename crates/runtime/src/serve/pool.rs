//! [`ServePool`] — N replica sessions behind one deadline/priority-aware
//! [`DynamicBatcher`], served by ticket.

use crate::builder::Runtime;
use crate::error::EbError;
use crate::health::{HealthProbe, HealthReport};
use crate::serve::batcher::{closed_error, DynamicBatcher, Rejected};
use crate::serve::lock_recovering;
use crate::serve::telemetry::{PoolTelemetry, StageHistograms};
use crate::serve::ticket::{Claim, Priority, Request, Ticket, TicketGuard};
use crate::session::{Session, SessionStats};
use eb_artifact::Prepared;
use eb_bitnn::{Bnn, Tensor};
use eb_telemetry::Registry;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Shape of a serving pool: replica count, micro-batch bounds, and queue
/// depth. Constructed by [`Default`] and the
/// [`RuntimeBuilder`](crate::RuntimeBuilder) knobs
/// (`replicas`/`max_batch`/`max_wait`/`queue_capacity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Session replicas (= worker threads). The substrate is programmed
    /// once; replica `i` shares that core and draws its execution noise
    /// from seed `base_seed + i`, so a pool is as reproducible as its
    /// sessions. Must be ≥ 1.
    pub replicas: usize,
    /// Largest micro-batch one replica serves in a single
    /// [`Session::infer_batch`] call. Must be ≥ 1; 1 disables
    /// coalescing.
    pub max_batch: usize,
    /// How long an idle replica lingers for more requests after taking
    /// the first one, before serving a short micro-batch. Zero serves
    /// whatever is queued immediately.
    pub max_wait: Duration,
    /// Bound on queued (not yet dispatched) requests; submitters block
    /// while the queue is full. Must be ≥ 1.
    pub queue_capacity: usize,
}

impl Default for PoolConfig {
    /// One replica, micro-batches up to 32, a 200 µs coalescing window,
    /// and room for 1024 queued requests.
    fn default() -> Self {
        Self {
            replicas: 1,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
        }
    }
}

impl PoolConfig {
    /// Rejects degenerate shapes (zero replicas / batch bound / queue).
    pub(crate) fn validate(&self) -> Result<(), EbError> {
        for (what, v) in [
            ("replicas", self.replicas),
            ("max_batch", self.max_batch),
            ("queue_capacity", self.queue_capacity),
        ] {
            if v == 0 {
                return Err(EbError::Config(format!(
                    "serving pool {what} must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

/// One queued inference request: the input and the queue-side half of
/// its ticket. Dropping it unserved completes the ticket with a
/// pool-gone error (see [`TicketGuard`]).
pub(crate) struct QueuedRequest {
    x: Tensor,
    guard: TicketGuard,
}

impl QueuedRequest {
    pub(crate) fn new(x: Tensor, guard: TicketGuard) -> Self {
        Self { x, guard }
    }
}

/// Live counters of one replica, updated by its worker after every
/// micro-batch.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaCounters {
    session: SessionStats,
    micro_batches: u64,
}

/// Aggregated pool counters: one [`SessionStats`] per replica plus the
/// number of micro-batches each replica served. Snapshot via
/// [`ServePool::stats`] / [`PoolHandle::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Per-replica serving counters, indexed by replica id (the same id
    /// whose seed is `base_seed + id`).
    pub per_replica: Vec<SessionStats>,
    /// Micro-batches dispatched per replica; `per_replica[i].inferences /
    /// micro_batches[i]` is replica `i`'s achieved coalescing factor.
    pub micro_batches: Vec<u64>,
    /// The most recent [`PoolHandle::health`] probe outcome, if any probe
    /// has run against this pool. Probes flow through the shared queue,
    /// so the report reflects whichever replicas happened to serve the
    /// canaries — pool-level health, not a single replica's.
    pub last_health: Option<HealthReport>,
    /// Requests refused by [`PoolHandle::try_submit`] because the queue
    /// was at capacity ([`EbError::Overloaded`]) — the load-shedding
    /// count. Published before the submitter sees the error, so a caller
    /// that just got `Overloaded` always finds its shed reflected here
    /// (read-your-own-writes, like the serving counters).
    ///
    /// Read from the `eb_requests_shed_total{model}` series, the only
    /// store of this count: for a [`Server`](crate::Server) model it
    /// spans every pool the model has had (swaps, injections and heals
    /// keep counting), for a standalone [`ServePool`] it is that pool's.
    pub shed: u64,
    /// Requests refused because the pool was already shut down, counted
    /// with the same read-your-own-writes ordering and read from
    /// `eb_requests_rejected_total{model}` with the same scope as
    /// [`PoolStats::shed`]. Blocking and non-blocking submissions both
    /// land here once the pool closes.
    pub rejected: u64,
    /// Requests queued but not yet claimed by a replica at snapshot
    /// time — an instantaneous gauge (0..=`queue_capacity`), not a
    /// monotone counter.
    pub queue_depth: usize,
    /// Wall-clock nanoseconds the pool spent preparing its replica
    /// sessions at spin-up (programming crossbars / compiling / restoring
    /// from an artifact). One number for the whole pool: with shared-core
    /// replicas it stays roughly flat in the replica count, because the
    /// substrate is programmed once and replicas are minted from it.
    pub prepare_ns: u64,
    /// Approximate bytes of programmed-core state shared by all replicas
    /// (counted once, not per replica).
    pub core_bytes: u64,
    /// Approximate bytes of per-replica private state (RNGs, scratch,
    /// counters), summed across replicas.
    pub replica_bytes: u64,
}

impl PoolStats {
    /// Sum of all per-replica counters.
    pub fn total(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for s in &self.per_replica {
            total.merge(s);
        }
        total
    }

    /// Micro-batches dispatched across all replicas.
    pub fn total_micro_batches(&self) -> u64 {
        self.micro_batches.iter().sum()
    }
}

/// Shared pool internals: the request queue and the replica counters.
struct PoolShared {
    batcher: DynamicBatcher<QueuedRequest>,
    counters: Mutex<Vec<ReplicaCounters>>,
    last_health: Mutex<Option<HealthReport>>,
    backend: &'static str,
    /// Spin-up cost and resident-memory split, fixed at pool build time
    /// (see the [`PoolStats`] fields of the same names).
    prepare_ns: u64,
    core_bytes: u64,
    replica_bytes: u64,
    /// Pre-resolved metric handles: the stage histograms and the
    /// served/shed/rejected counters [`PoolStats`] reads back.
    telemetry: PoolTelemetry,
}

/// A sharded serving pool: N replica sessions behind one dynamic
/// micro-batching queue. Build with
/// [`RuntimeBuilder::serve`](crate::RuntimeBuilder::serve) (or
/// [`ServePool::new`] over an explicit [`Runtime`]); talk to it through
/// [`ServePool::handle`] clones from any number of client threads —
/// asynchronously via [`PoolHandle::submit`] tickets, or through the
/// blocking wrappers (`infer`/`predict`/`infer_many`).
///
/// Dropping the pool shuts it down gracefully: already-queued requests
/// are served, new submissions fail, and the worker threads are joined.
pub struct ServePool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
    config: PoolConfig,
}

impl fmt::Debug for ServePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServePool")
            .field("backend", &self.shared.backend)
            .field("config", &self.config)
            .field("queued", &self.shared.batcher.len())
            .finish()
    }
}

impl ServePool {
    /// Prepares `config.replicas` sessions of `net` on `runtime`'s
    /// backend — the substrate is programmed **once** and replica `i`
    /// shares that core while drawing its execution noise from seed
    /// `base_seed + i` — and starts one worker thread per replica. The
    /// pool records its counters and stage histograms into a private
    /// registry ([`ServePool::stage_snapshot`] and [`PoolStats`] read
    /// them back).
    ///
    /// # Errors
    ///
    /// Returns [`EbError`] for a degenerate `config` or when any replica
    /// fails to prepare (nothing is left running in that case).
    pub fn new(runtime: &Runtime, net: &Bnn, config: PoolConfig) -> Result<Self, EbError> {
        let telemetry = PoolTelemetry::register(&Registry::new(), net.name(), config.replicas);
        Self::start(runtime, net, config, None, telemetry)
    }

    /// [`ServePool::new`] recording into pre-resolved `telemetry`
    /// handles (a [`Server`](crate::Server) resolves them from its
    /// registry under the model's name). A `prepared` artifact snapshot
    /// restores the substrate state instead of programming from scratch
    /// (the deploy-from-file cold-start path) and feeds **all**
    /// replicas, exactly as a fresh prepare's programmed-once core
    /// would: replica 0 resumes the snapshot's RNG positions (it serves
    /// the base seed the capture conditions are validated against);
    /// replicas 1.. share the restored core with fresh execution RNGs
    /// at `base_seed + i`.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the snapshot's capture
    /// conditions conflict with the pool's backend/options (prepared
    /// state is never silently dropped), plus everything
    /// [`ServePool::new`] reports.
    pub(crate) fn start(
        runtime: &Runtime,
        net: &Bnn,
        config: PoolConfig,
        prepared: Option<Prepared>,
        telemetry: PoolTelemetry,
    ) -> Result<Self, EbError> {
        config.validate()?;
        // One call prepares the whole pool: the backend programs (or
        // restores) its substrate once and mints shared-core replicas,
        // so this cost stays roughly flat in `config.replicas`.
        let spinup = Instant::now();
        let sessions = runtime.prepare_replicas_with(net, prepared, config.replicas)?;
        let prepare_ns = spinup.elapsed().as_nanos() as u64;
        if sessions.len() != config.replicas {
            return Err(EbError::Config(format!(
                "backend {} prepared {} replica sessions where the pool requested {}",
                runtime.backend_name(),
                sessions.len(),
                config.replicas
            )));
        }
        // Shared core counted once (every replica reports the same
        // core), private rinds summed across replicas.
        let core_bytes = sessions.first().map_or(0, |s| s.memory().core_bytes);
        let replica_bytes = sessions.iter().map(|s| s.memory().replica_bytes).sum();
        let shared = Arc::new(PoolShared {
            batcher: DynamicBatcher::new(
                config.queue_capacity,
                config.max_batch,
                config.max_wait,
                telemetry.queue_depth.clone(),
                telemetry.linger_us.clone(),
            ),
            counters: Mutex::new(vec![ReplicaCounters::default(); config.replicas]),
            last_health: Mutex::new(None),
            backend: runtime.backend_name(),
            prepare_ns,
            core_bytes,
            replica_bytes,
            telemetry,
        });
        let mut workers = Vec::with_capacity(config.replicas);
        for (replica, session) in sessions.into_iter().enumerate() {
            let worker_shared = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name(format!("eb-serve-{replica}"))
                .spawn(move || worker_loop(session, worker_shared, replica));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Tear down the replicas already running before
                    // reporting failure — nothing may be left serving.
                    shared.batcher.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(EbError::Config(format!(
                        "failed to spawn pool worker {replica}: {e}"
                    )));
                }
            }
        }
        Ok(Self {
            shared,
            workers,
            config,
        })
    }

    /// A cloneable client handle; valid (but erroring) after the pool is
    /// dropped.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Name of the backend the replicas were prepared on.
    pub fn backend_name(&self) -> &'static str {
        self.shared.backend
    }

    /// The pool shape this pool was built with.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Snapshot of the aggregated per-replica counters.
    pub fn stats(&self) -> PoolStats {
        stats_snapshot(&self.shared)
    }

    /// Snapshot of the per-stage latency histograms.
    pub fn stage_snapshot(&self) -> StageHistograms {
        self.shared.telemetry.stage_snapshot()
    }

    /// Runs a golden-canary health probe through the pool (see
    /// [`PoolHandle::health`]): the canaries are served as ordinary
    /// queue traffic and the report is recorded as
    /// [`PoolStats::last_health`].
    ///
    /// # Errors
    ///
    /// Propagates serving failures; a failed probe leaves
    /// [`PoolStats::last_health`] untouched.
    pub fn health(&self, probe: &HealthProbe) -> Result<HealthReport, EbError> {
        self.handle().health(probe)
    }

    /// Shuts the pool down: serves everything already queued, rejects
    /// new requests, joins the workers, and returns the final counters.
    pub fn shutdown(mut self) -> PoolStats {
        self.close_and_join();
        stats_snapshot(&self.shared)
    }

    fn close_and_join(&mut self) {
        self.shared.batcher.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// A client of a [`ServePool`]: submits [`Request`]s into the pool's
/// [`DynamicBatcher`] and hands back [`Ticket`]s. Cheap to clone; safe
/// to use from many threads at once (that is what makes the
/// micro-batcher fill). The blocking convenience calls
/// (`infer`/`predict`/`infer_many`) are thin wrappers over
/// `submit(..)` + [`Ticket::wait`].
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<PoolShared>,
}

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolHandle")
            .field("backend", &self.shared.backend)
            .field("queued", &self.shared.batcher.len())
            .finish()
    }
}

impl PoolHandle {
    /// Submits one request without waiting for its result, returning a
    /// [`Ticket`] to poll, wait on, or cancel. The calling thread is
    /// never parked for the inference itself — only (briefly) for
    /// queue-capacity backpressure.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the pool is shut down; the
    /// request is not enqueued in that case.
    pub fn submit(&self, req: Request) -> Result<Ticket, EbError> {
        let priority = req.opts().priority;
        let (x, guard, ticket) = req.into_parts();
        match self.offer(QueuedRequest { x, guard }, priority) {
            Ok(()) => Ok(ticket),
            Err(_rejected) => {
                self.note_rejected();
                Err(closed_error())
            }
        }
    }

    /// Non-blocking [`PoolHandle::submit`]: enqueues the request if the
    /// queue has room, otherwise **sheds** it immediately — the caller
    /// is never parked on queue backpressure. This is the submission
    /// path for a network edge: a saturated pool turns into an instant
    /// [`EbError::Overloaded`] (→ 503 + `Retry-After`) while the
    /// requests already accepted keep their latency.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Overloaded`] when the queue is at capacity
    /// (counted in [`PoolStats::shed`]) and [`EbError::Config`] when the
    /// pool is shut down (counted in [`PoolStats::rejected`]); the
    /// request is not enqueued in either case.
    pub fn try_submit(&self, req: Request) -> Result<Ticket, EbError> {
        let priority = req.opts().priority;
        let (x, guard, ticket) = req.into_parts();
        match self.try_offer(QueuedRequest { x, guard }, priority) {
            Ok(()) => Ok(ticket),
            Err(Rejected::Full(_)) => {
                self.note_shed();
                Err(EbError::Overloaded)
            }
            Err(Rejected::Closed(_)) => {
                self.note_rejected();
                Err(closed_error())
            }
        }
    }

    /// Queue-side submission that hands the request back when this pool
    /// is shut down — the clone-free resubmission primitive
    /// [`ModelHandle`](crate::ModelHandle) retries across a
    /// [`Server::swap`](crate::Server::swap) with.
    pub(crate) fn offer(
        &self,
        queued: QueuedRequest,
        priority: Priority,
    ) -> Result<(), QueuedRequest> {
        queued.guard.stamp_enqueued();
        self.shared.batcher.offer(queued, priority)
    }

    /// Non-blocking [`PoolHandle::offer`]: hands the request back both
    /// when the queue is full and when the pool is shut down, without
    /// touching the shed/rejected counters — [`ModelHandle`]'s
    /// (`crate::ModelHandle`) retry loop decides which refusals are
    /// final before counting them via [`PoolHandle::note_shed`] /
    /// [`PoolHandle::note_rejected`].
    pub(crate) fn try_offer(
        &self,
        queued: QueuedRequest,
        priority: Priority,
    ) -> Result<(), Rejected<QueuedRequest>> {
        queued.guard.stamp_enqueued();
        self.shared.batcher.try_offer(queued, priority)
    }

    /// Records one load-shed refusal (before the caller sees the error)
    /// in the `eb_requests_shed_total{model}` series. The counter is
    /// `Relaxed`: the refused caller reads its own write, and the count
    /// publishes no other data.
    pub(crate) fn note_shed(&self) {
        self.shared.telemetry.shed.inc();
    }

    /// Records one closed-pool refusal (before the caller sees the
    /// error) in the `eb_requests_rejected_total{model}` series.
    pub(crate) fn note_rejected(&self) {
        self.shared.telemetry.rejected.inc();
    }

    /// Runs one inference through the pool, blocking until a replica
    /// serves it — `submit(Request::new(x))` + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Returns the serving session's [`EbError`] (e.g. input-shape
    /// mismatch), or [`EbError::Config`] when the pool is shut down.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, EbError> {
        crate::serve::infer_via(|req| self.submit(req), x)
    }

    /// Predicted class for one input: argmax of [`PoolHandle::infer`]
    /// logits.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolHandle::infer`] errors; empty logits are an
    /// [`EbError::Config`], never a silent class 0.
    pub fn predict(&self, x: &Tensor) -> Result<usize, EbError> {
        crate::serve::predict_via(|req| self.submit(req), x)
    }

    /// Submits a whole request stream and blocks until every reply is
    /// in, returning logits in request order. Unlike
    /// [`Session::infer_batch`] this does not force the stream through
    /// one replica: the batcher shards it across the pool, so this is
    /// the natural high-throughput client call.
    ///
    /// # Errors
    ///
    /// Returns the first failing request's [`EbError`] (remaining
    /// requests are still served — micro-batch failures are isolated
    /// per request).
    pub fn infer_many(&self, xs: &[Tensor]) -> Result<Vec<Tensor>, EbError> {
        crate::serve::infer_many_via(|req| self.submit(req), xs)
    }

    /// Snapshot of the aggregated per-replica counters.
    pub fn stats(&self) -> PoolStats {
        stats_snapshot(&self.shared)
    }

    /// Snapshot of the per-stage latency histograms.
    pub fn stage_snapshot(&self) -> StageHistograms {
        self.shared.telemetry.stage_snapshot()
    }

    /// Runs a golden-canary health probe *through the pool*: the canary
    /// set is submitted as ordinary queue traffic (sharded across
    /// replicas, coalesced into micro-batches, counted in
    /// [`PoolStats`]), scored against the probe's golden classes, and
    /// the resulting [`HealthReport`] recorded as
    /// [`PoolStats::last_health`].
    ///
    /// # Errors
    ///
    /// Propagates serving failures ([`EbError::Config`] when the pool is
    /// shut down); a failed probe leaves `last_health` untouched.
    pub fn health(&self, probe: &HealthProbe) -> Result<HealthReport, EbError> {
        let logits = self.infer_many(probe.canaries())?;
        let report = probe.score(&logits)?;
        *lock_recovering(&self.shared.last_health) = Some(report);
        Ok(report)
    }

    /// Requests currently queued (claimed micro-batches excluded).
    pub fn queued(&self) -> usize {
        self.shared.batcher.len()
    }
}

fn stats_snapshot(shared: &PoolShared) -> PoolStats {
    let counters = lock_recovering(&shared.counters);
    PoolStats {
        per_replica: counters.iter().map(|c| c.session).collect(),
        micro_batches: counters.iter().map(|c| c.micro_batches).collect(),
        last_health: *lock_recovering(&shared.last_health),
        shed: shared.telemetry.shed.get(),
        rejected: shared.telemetry.rejected.get(),
        queue_depth: shared.batcher.len(),
        prepare_ns: shared.prepare_ns,
        core_bytes: shared.core_bytes,
        replica_bytes: shared.replica_bytes,
    }
}

/// One replica's serving loop: drain micro-batches until the batcher is
/// closed and empty. Each drained request is *claimed* first —
/// cancelled tickets and passed deadlines complete without ever
/// occupying a slot in the served group, and the group is topped back
/// up from the queue so dead requests cost their coalesced neighbors
/// nothing. Counters are published *before* the tickets complete, so a
/// client that has received its result always sees it reflected in
/// [`PoolStats`].
///
/// Sessions surface failures as `EbError`, so a panic here means a
/// broken substrate invariant; the guard then scuttles the pool — closes
/// the queue and drops everything pending — so blocked clients observe
/// the failure (their tickets complete with a pool-gone error via the
/// dropped [`TicketGuard`]s) instead of waiting forever on a worker
/// that no longer exists.
fn worker_loop(mut session: Box<dyn Session>, shared: Arc<PoolShared>, replica: usize) {
    struct Scuttle<'a>(&'a PoolShared);
    impl Drop for Scuttle<'_> {
        fn drop(&mut self) {
            if thread::panicking() {
                self.0.batcher.close();
                drop(self.0.batcher.drain_now());
            }
        }
    }
    let scuttle_on_panic = Scuttle(&shared);
    while let Some(batch) = shared.batcher.next_batch() {
        // Claim phase: only live requests enter the micro-batch.
        // Cancelled/expired tickets complete (Cancelled /
        // DeadlineExceeded) inside `claim` and are dropped here.
        let mut live: Vec<QueuedRequest> = Vec::with_capacity(batch.len());
        for queued in batch {
            if matches!(queued.guard.claim(), Claim::Claimed) {
                live.push(queued);
            }
        }
        // Top-up phase: refill the slots dead requests vacated, without
        // lingering again.
        while live.len() < shared.batcher.max_batch() {
            let Some(queued) = shared.batcher.try_pop() else {
                break;
            };
            if matches!(queued.guard.claim(), Claim::Claimed) {
                live.push(queued);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Batch-wide execution clock (two `Instant::now` calls per
        // micro-batch, not per request): `exec_start` splits each
        // member's batched→executed span into assembly ("batch") and
        // substrate ("execute") stages.
        let exec_start = Instant::now();
        let served = serve_micro_batch(session.as_mut(), live);
        {
            let mut counters = lock_recovering(&shared.counters);
            counters[replica].session = session.stats();
            counters[replica].micro_batches += 1;
        }
        let executed = Instant::now();
        let telemetry = &shared.telemetry;
        telemetry.micro_batches.inc();
        telemetry.batch_size.record(served.len() as u64);
        telemetry.replica_execute_us[replica]
            .record(executed.duration_since(exec_start).as_micros() as u64);
        for (guard, result) in served {
            // Stage spans and the served counter count *delivered
            // successes*: failed requests complete their tickets but
            // record nothing, so every histogram's count equals the ok
            // responses clients actually got.
            let ok = result.is_ok();
            guard.complete_served(result, executed, |trace| {
                if ok {
                    telemetry.record_served(trace, exec_start);
                }
            });
        }
    }
    drop(scuttle_on_panic);
}

/// A request's ticket guard paired with the result to complete it with.
type Served = (TicketGuard, Result<Tensor, EbError>);

/// Serves one claimed micro-batch, returning each request's ticket
/// guard paired with its result. The fast path is a single
/// [`Session::infer_batch`] over the whole group; if that fails, every
/// request is retried individually so one malformed request (coalesced
/// with unrelated neighbors) reports its own error without poisoning
/// theirs.
fn serve_micro_batch(session: &mut dyn Session, batch: Vec<QueuedRequest>) -> Vec<Served> {
    let (xs, guards): (Vec<Tensor>, Vec<TicketGuard>) =
        batch.into_iter().map(|r| (r.x, r.guard)).unzip();
    match session.infer_batch(&xs) {
        Ok(outs) => guards.into_iter().zip(outs.into_iter().map(Ok)).collect(),
        Err(_) => xs
            .iter()
            .zip(guards)
            .map(|(x, guard)| {
                let result = session.infer(x);
                (guard, result)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ticket::TicketStatus;

    #[test]
    fn worker_panic_fails_clients_instead_of_hanging() {
        use crate::session::{Backend, SessionOpts};
        use eb_bitnn::Shape;

        // A substrate that breaks its invariants by panicking instead of
        // returning EbError — the pool must scuttle, not strand clients.
        struct PanicBackend;
        impl Backend for PanicBackend {
            fn name(&self) -> &'static str {
                "panic"
            }
            fn prepare_replicas(
                &self,
                _net: &Bnn,
                _opts: &SessionOpts,
                replicas: usize,
                _restore: Option<Prepared>,
            ) -> Result<Vec<Box<dyn Session>>, EbError> {
                struct PanicSession;
                impl Session for PanicSession {
                    fn backend_name(&self) -> &'static str {
                        "panic"
                    }
                    fn infer(&mut self, _x: &Tensor) -> Result<Tensor, EbError> {
                        panic!("deliberately broken substrate invariant");
                    }
                    fn stats(&self) -> SessionStats {
                        SessionStats::default()
                    }
                }
                Ok((0..replicas)
                    .map(|_| Box::new(PanicSession) as Box<dyn Session>)
                    .collect())
            }
        }

        let net = Bnn::new("noop", Shape::Flat(1), vec![]).unwrap();
        let runtime = Runtime::builder()
            .backend_impl(Box::new(PanicBackend))
            .build();
        let pool = ServePool::new(&runtime, &net, PoolConfig::default()).unwrap();
        let handle = pool.handle();
        let x = Tensor::zeros(&[1]);
        assert!(
            handle.infer(&x).is_err(),
            "a panicked worker must surface as an error, not a hang"
        );
        // The pool is scuttled: later submissions fail fast, and stats
        // stay readable (no poisoned-lock cascade).
        assert!(handle.infer(&x).is_err());
        assert_eq!(handle.stats().total().inferences, 0);
    }

    #[test]
    fn cancelled_ticket_never_reaches_a_session() {
        let net = Bnn::new("noop", eb_bitnn::Shape::Flat(1), vec![]).unwrap();
        // Long linger: the worker holds the first request in its forming
        // micro-batch, so a cancel during the window always lands first.
        let runtime = Runtime::builder().build();
        let pool = ServePool::new(
            &runtime,
            &net,
            PoolConfig {
                max_wait: Duration::from_secs(1),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let handle = pool.handle();
        let ticket = handle.submit(Request::new(Tensor::zeros(&[1]))).unwrap();
        assert!(ticket.cancel());
        assert_eq!(ticket.poll(), TicketStatus::Done);
        assert!(matches!(ticket.wait(), Err(EbError::Cancelled)));
        let stats = pool.shutdown();
        assert_eq!(
            stats.total().inferences,
            0,
            "a cancelled request must never be served"
        );
    }

    #[test]
    fn try_submit_sheds_when_queue_is_full() {
        let net = Bnn::new("noop", eb_bitnn::Shape::Flat(1), vec![]).unwrap();
        // A long coalescing linger keeps the first request *in the queue*
        // (next_batch only drains at the end of its window), so the
        // capacity-1 queue is deterministically full when the second
        // submission arrives.
        let runtime = Runtime::builder().build();
        let pool = ServePool::new(
            &runtime,
            &net,
            PoolConfig {
                queue_capacity: 1,
                max_wait: Duration::from_secs(30),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let handle = pool.handle();
        let x = Tensor::zeros(&[1]);
        let first = handle.try_submit(Request::new(x.clone())).unwrap();
        assert_eq!(handle.stats().queue_depth, 1, "one queued request");
        let shed = handle.try_submit(Request::new(x.clone()));
        assert!(
            matches!(shed, Err(EbError::Overloaded)),
            "full queue must shed: {shed:?}"
        );
        // Read-your-own-writes: the refusal is already visible.
        assert_eq!(handle.stats().shed, 1);
        assert_eq!(handle.stats().rejected, 0);
        // Shutdown cuts the linger short; the accepted request is served,
        // the shed one never was.
        let stats = pool.shutdown();
        assert!(first.wait().is_ok());
        assert_eq!(stats.total().inferences, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn submissions_after_shutdown_count_as_rejected() {
        let net = Bnn::new("noop", eb_bitnn::Shape::Flat(1), vec![]).unwrap();
        let runtime = Runtime::builder().build();
        let pool = ServePool::new(&runtime, &net, PoolConfig::default()).unwrap();
        let handle = pool.handle();
        drop(pool);
        let x = Tensor::zeros(&[1]);
        assert!(matches!(
            handle.try_submit(Request::new(x.clone())),
            Err(EbError::Config(_))
        ));
        assert!(handle.submit(Request::new(x)).is_err());
        let stats = handle.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn telemetry_pool_reconciles_counters_and_stage_histograms() {
        let net = Bnn::new("noop", eb_bitnn::Shape::Flat(1), vec![]).unwrap();
        let runtime = Runtime::builder().build();
        let registry = Registry::new();
        let config = PoolConfig {
            max_wait: Duration::ZERO,
            ..PoolConfig::default()
        };
        let telemetry = PoolTelemetry::register(&registry, "m", config.replicas);
        let pool = ServePool::start(&runtime, &net, config, None, telemetry).unwrap();
        let handle = pool.handle();
        let x = Tensor::zeros(&[1]);
        for _ in 0..8 {
            handle.infer(&x).unwrap();
        }
        // Read-your-own-writes: with all 8 responses in hand, every
        // stage histogram already holds all 8 requests (parse is
        // net-frontend-only and stays empty on direct submission).
        let stages = pool.stage_snapshot();
        for (name, h) in stages.stages() {
            let want = if name == "parse" { 0 } else { 8 };
            assert_eq!(h.count(), want, "stage {name}");
        }
        let text = registry.render();
        assert!(
            text.contains("eb_requests_served_total{model=\"m\"} 8"),
            "served counter missing from:\n{text}"
        );
        assert!(text.contains("eb_queue_depth{model=\"m\"} 0"), "{text}");
        pool.shutdown();
        // Refusals after shutdown land in the registry counters, which
        // are what the pool's stats read back.
        assert!(handle.infer(&x).is_err());
        assert_eq!(handle.stats().rejected, 1);
        let text = registry.render();
        assert!(
            text.contains("eb_requests_rejected_total{model=\"m\"} 1"),
            "rejected counter missing from:\n{text}"
        );
        assert!(
            text.contains("eb_requests_shed_total{model=\"m\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn pool_config_validation() {
        assert!(PoolConfig::default().validate().is_ok());
        for bad in [
            PoolConfig {
                replicas: 0,
                ..Default::default()
            },
            PoolConfig {
                max_batch: 0,
                ..Default::default()
            },
            PoolConfig {
                queue_capacity: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(bad.validate().unwrap_err(), EbError::Config(_)));
        }
    }

    #[test]
    fn pool_stats_aggregate() {
        let stats = PoolStats {
            per_replica: vec![
                SessionStats {
                    inferences: 3,
                    crossbar_steps: 10,
                    ..Default::default()
                },
                SessionStats {
                    inferences: 4,
                    wdm_lanes: 7,
                    latency_ns: 1.5,
                    ..Default::default()
                },
            ],
            micro_batches: vec![2, 1],
            last_health: None,
            shed: 0,
            rejected: 0,
            queue_depth: 0,
            prepare_ns: 0,
            core_bytes: 0,
            replica_bytes: 0,
        };
        let total = stats.total();
        assert_eq!(total.inferences, 7);
        assert_eq!(total.crossbar_steps, 10);
        assert_eq!(total.wdm_lanes, 7);
        assert_eq!(total.latency_ns, 1.5);
        assert_eq!(stats.total_micro_batches(), 3);
    }
}
