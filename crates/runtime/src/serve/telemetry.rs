//! Pool-side telemetry: the pre-resolved metric handles a
//! [`ServePool`](crate::ServePool) records into — the only store of
//! its served/shed/rejected counts, which
//! [`PoolStats`](crate::PoolStats) reads back — and the
//! [`StageHistograms`] snapshot the `:stats` JSON and shutdown reports
//! read.
//!
//! All handles are resolved from the [`Registry`] once, at pool
//! spin-up (registry lookup takes a lock); the worker hot path only
//! touches the returned atomics. Label cardinality is bounded by
//! construction: `model` comes from the deploy-time model set,
//! `replica` from the pool shape, `stage` from the fixed [`Stage`]
//! list.

use eb_telemetry::{Counter, Gauge, Histogram, LatencyHistogram, Registry, Stage, Trace};
use std::time::Instant;

/// Every metric handle one pool records into, resolved at spin-up.
pub(crate) struct PoolTelemetry {
    /// `eb_requests_served_total{model}` — requests completed with a
    /// successful result (the count every stage histogram matches).
    pub(crate) served: Counter,
    /// `eb_requests_shed_total{model}` — queue-full refusals
    /// ([`PoolStats::shed`](crate::PoolStats::shed)).
    pub(crate) shed: Counter,
    /// `eb_requests_rejected_total{model}` — closed-pool refusals
    /// ([`PoolStats::rejected`](crate::PoolStats::rejected)).
    pub(crate) rejected: Counter,
    /// `eb_micro_batches_total{model}`.
    pub(crate) micro_batches: Counter,
    /// `eb_batch_size{model}` — coalesced requests per micro-batch.
    pub(crate) batch_size: Histogram,
    /// `eb_request_stage_us{model,stage=...}` — per-stage spans.
    pub(crate) parse_us: Histogram,
    pub(crate) queue_us: Histogram,
    pub(crate) batch_us: Histogram,
    pub(crate) execute_us: Histogram,
    pub(crate) reply_us: Histogram,
    /// `eb_request_e2e_us{model}` — accepted → replied.
    pub(crate) e2e_us: Histogram,
    /// `eb_queue_depth{model}` — live queue-depth gauge (owned by the
    /// batcher, updated under its queue lock).
    pub(crate) queue_depth: Gauge,
    /// `eb_batch_linger_us{model}` — first-item-taken → batch handed
    /// to a replica (the batcher's coalescing window, as spent).
    pub(crate) linger_us: Histogram,
    /// `eb_replica_execute_us{model,replica}` — substrate execution
    /// per micro-batch, per replica.
    pub(crate) replica_execute_us: Vec<Histogram>,
}

impl PoolTelemetry {
    /// Resolves every handle for model `model` (one registry lock per
    /// series, all up front).
    pub(crate) fn register(registry: &Registry, model: &str, replicas: usize) -> Self {
        let labels = &[("model", model)];
        let stage = |name: &'static str| {
            registry.histogram(
                "eb_request_stage_us",
                "Per-stage request latency in microseconds.",
                &[("model", model), ("stage", name)],
            )
        };
        Self {
            served: registry.counter(
                "eb_requests_served_total",
                "Requests completed with a successful result.",
                labels,
            ),
            shed: registry.counter(
                "eb_requests_shed_total",
                "Requests refused because the pool queue was full.",
                labels,
            ),
            rejected: registry.counter(
                "eb_requests_rejected_total",
                "Requests refused because the pool was shut down.",
                labels,
            ),
            micro_batches: registry.counter(
                "eb_micro_batches_total",
                "Micro-batches dispatched to replicas.",
                labels,
            ),
            batch_size: registry.histogram(
                "eb_batch_size",
                "Coalesced requests per micro-batch.",
                labels,
            ),
            parse_us: stage("parse"),
            queue_us: stage("queue"),
            batch_us: stage("batch"),
            execute_us: stage("execute"),
            reply_us: stage("reply"),
            e2e_us: registry.histogram(
                "eb_request_e2e_us",
                "Accepted-to-replied request latency in microseconds.",
                labels,
            ),
            queue_depth: registry.gauge(
                "eb_queue_depth",
                "Requests queued and not yet claimed by a replica.",
                labels,
            ),
            linger_us: registry.histogram(
                "eb_batch_linger_us",
                "Coalescing window spent assembling each batch, in microseconds.",
                labels,
            ),
            replica_execute_us: (0..replicas)
                .map(|replica| {
                    registry.histogram(
                        "eb_replica_execute_us",
                        "Substrate execution time per micro-batch, in microseconds.",
                        &[("model", model), ("replica", &replica.to_string())],
                    )
                })
                .collect(),
        }
    }

    /// Folds one served request's stage spans into the histograms and
    /// bumps the served counter. Called under the ticket's cell lock,
    /// *before* the waiter can observe completion — so a client that
    /// has its result always finds it reflected in a scrape
    /// (read-your-own-writes for the whole pipeline).
    ///
    /// `exec_start` is the batch-wide instant execution began: it
    /// splits batched→executed into the assembly span (`batch`) and
    /// the substrate span (`execute`).
    pub(crate) fn record_served(&self, trace: &Trace, exec_start: Instant) {
        self.served.inc();
        if let Some(us) = trace.span_us(Stage::Accepted, Stage::Parsed) {
            self.parse_us.record(us);
        }
        if let Some(us) = trace.span_us(Stage::Enqueued, Stage::Batched) {
            self.queue_us.record(us);
        }
        let exec_start_ns = trace.offset_ns(exec_start);
        if let Some(batched) = trace.stamp_ns(Stage::Batched) {
            self.batch_us
                .record(exec_start_ns.saturating_sub(batched) / 1_000);
        }
        if let Some(executed) = trace.stamp_ns(Stage::Executed) {
            self.execute_us
                .record(executed.saturating_sub(exec_start_ns) / 1_000);
        }
        if let Some(us) = trace.span_us(Stage::Executed, Stage::Replied) {
            self.reply_us.record(us);
        }
        if let Some(us) = trace.span_us(Stage::Accepted, Stage::Replied) {
            self.e2e_us.record(us);
        }
    }

    /// Point-in-time snapshot of the stage histograms.
    pub(crate) fn stage_snapshot(&self) -> StageHistograms {
        StageHistograms {
            parse_us: self.parse_us.snapshot(),
            queue_us: self.queue_us.snapshot(),
            batch_us: self.batch_us.snapshot(),
            execute_us: self.execute_us.snapshot(),
            reply_us: self.reply_us.snapshot(),
            e2e_us: self.e2e_us.snapshot(),
        }
    }
}

/// Snapshot of a pool's per-stage latency histograms (microseconds),
/// from [`ServePool::stage_snapshot`](crate::ServePool::stage_snapshot)
/// or [`Server::stage_histograms`](crate::Server::stage_histograms) —
/// the data behind the `stages` block of `:stats` JSON and the
/// per-stage table in eb-serve's shutdown report. Every histogram's
/// count equals `eb_requests_served_total{model}` (each served request
/// contributes to each stage, and both accumulate across a model's
/// swaps); `parse_us` is the exception, populated only for requests
/// that arrived through the HTTP frontend.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Accepted → parsed (HTTP body parse; net-served requests only).
    pub parse_us: LatencyHistogram,
    /// Enqueued → batched: time waiting in the pool queue.
    pub queue_us: LatencyHistogram,
    /// Batched → execution start: micro-batch assembly (claim, top-up).
    pub batch_us: LatencyHistogram,
    /// Execution start → executed: the substrate's batched inference.
    pub execute_us: LatencyHistogram,
    /// Executed → replied: result publication to the ticket.
    pub reply_us: LatencyHistogram,
    /// Accepted → replied: the whole pipeline.
    pub e2e_us: LatencyHistogram,
}

impl StageHistograms {
    /// `(name, histogram)` pairs in pipeline order — iteration sugar
    /// for report tables and JSON rendering.
    pub fn stages(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("parse", &self.parse_us),
            ("queue", &self.queue_us),
            ("batch", &self.batch_us),
            ("execute", &self.execute_us),
            ("reply", &self.reply_us),
            ("e2e", &self.e2e_us),
        ]
    }
}
