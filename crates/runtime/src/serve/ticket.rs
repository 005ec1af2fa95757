//! Ticket-based request submission: [`Request`] describes *what* to
//! serve (input + [`RequestOpts`]), [`Ticket`] is the caller's
//! poll/wait/cancel handle on the asynchronous result.
//!
//! A ticket is a small condvar-backed state machine shared between the
//! submitting client and the serving replica (no async runtime — the
//! workspace vendors only `rand`/`rayon`/`criterion`/`proptest`):
//!
//! ```text
//!          submit                    replica claims it
//! (client) ──────▶ Pending ────────────────────────────▶ Serving
//!                     │                                     │
//!                     │ Ticket::cancel()                    │ micro-batch served
//!                     ├────────────▶ Done(Err(Cancelled))   │ (or worker died:
//!                     │ deadline passes (claim- or          │  Done(pool-gone))
//!                     │ waiter-side)                        ▼
//!                     └────────────▶ Done(Err(DeadlineExceeded))   Done(result)
//! ```
//!
//! `Pending → Done` transitions are exclusive: a request is either
//! served, cancelled, or expired — never two of those. Once a replica
//! has claimed the ticket (`Serving`), cancellation returns `false`
//! and the deadline no longer preempts it: the inference is already in
//! flight and its result (and its `stats()` accounting) is returned as
//! served.

use crate::error::EbError;
use crate::serve::{lock_recovering, pool_gone};
use eb_bitnn::Tensor;
use eb_telemetry::{Stage, Trace};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Scheduling class of a submitted request: within the pool queue,
/// higher-priority requests are coalesced into micro-batches first
/// (FIFO within a class). Priority affects *ordering only* — results
/// are bit-exact regardless of class. (Deliberately not `Ord`: the
/// declaration order is *drain* order, and deriving a comparison where
/// `High < Low` would be a trap.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Served before everything else — latency-critical requests.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class is queued — bulk/backfill work.
    Low,
}

impl Priority {
    /// Number of priority classes (the pool queue keeps one FIFO lane
    /// per class).
    pub(crate) const COUNT: usize = 3;

    /// Queue-lane index, highest priority first.
    pub(crate) fn lane(self) -> usize {
        match self {
            Self::High => 0,
            Self::Normal => 1,
            Self::Low => 2,
        }
    }

    /// Every class, highest first.
    pub fn all() -> [Self; Self::COUNT] {
        [Self::High, Self::Normal, Self::Low]
    }
}

/// Per-request serving options carried by a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestOpts {
    /// Give up if no replica has *started serving* the request this long
    /// after submission: the ticket then completes with
    /// [`EbError::DeadlineExceeded`] instead of occupying a micro-batch
    /// slot, bounding the caller's tail latency. `None` (default) waits
    /// indefinitely.
    pub deadline: Option<Duration>,
    /// Scheduling class (defaults to [`Priority::Normal`]).
    pub priority: Priority,
}

/// One inference request for [`PoolHandle::submit`](crate::PoolHandle::submit):
/// the input tensor plus its [`RequestOpts`].
///
/// ```
/// use eb_runtime::{Priority, Request};
/// use eb_bitnn::Tensor;
/// use std::time::Duration;
///
/// let req = Request::new(Tensor::zeros(&[4]))
///     .deadline(Duration::from_millis(50))
///     .priority(Priority::High);
/// assert_eq!(req.opts().deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    x: Tensor,
    opts: RequestOpts,
    trace: Option<Trace>,
}

impl Request {
    /// A request with default options (no deadline, normal priority).
    pub fn new(x: Tensor) -> Self {
        Self {
            x,
            opts: RequestOpts::default(),
            trace: None,
        }
    }

    /// A request with explicit options.
    pub fn with_opts(x: Tensor, opts: RequestOpts) -> Self {
        Self {
            x,
            opts,
            trace: None,
        }
    }

    /// Sets the deadline (see [`RequestOpts::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.opts.priority = priority;
        self
    }

    /// Attaches a stage [`Trace`] begun upstream (the HTTP frontend
    /// stamps `accepted`/`parsed` before submission). The pool stamps
    /// the remaining stages as the request moves through it and folds
    /// the spans into its per-stage histograms at completion.
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The input tensor to serve.
    pub fn input(&self) -> &Tensor {
        &self.x
    }

    /// The request's serving options.
    pub fn opts(&self) -> &RequestOpts {
        &self.opts
    }

    /// Splits the request into its queue-side half (input + guard, owned
    /// by the pool) and the client-side [`Ticket`].
    pub(crate) fn into_parts(self) -> (Tensor, TicketGuard, Ticket) {
        let core = Arc::new(TicketCore::new(self.opts.deadline, self.trace));
        (self.x, TicketGuard(Arc::clone(&core)), Ticket { core })
    }
}

/// Non-blocking view of a ticket's lifecycle stage, from
/// [`Ticket::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TicketStatus {
    /// Queued; no replica has claimed it yet (cancellable).
    Pending,
    /// A replica has claimed it into a micro-batch; the result is
    /// imminent and cancellation is too late.
    Serving,
    /// The result (or cancellation/expiry error) is available;
    /// [`Ticket::wait`] returns without blocking.
    Done,
}

/// What a replica finds when it tries to claim a queued ticket for
/// serving.
pub(crate) enum Claim {
    /// `Pending → Serving`: the request joins the micro-batch.
    Claimed,
    /// The deadline passed while queued; the ticket was completed with
    /// [`EbError::DeadlineExceeded`] and must not occupy a batch slot.
    Expired,
    /// Already done (cancelled, waiter-side expired, or double-drained);
    /// nothing to serve.
    AlreadyDone,
}

/// Internal completion slot: `result` is `Some` from completion until
/// the owning [`Ticket::wait`] takes it.
struct TicketCell {
    status: TicketStatus,
    result: Option<Result<Tensor, EbError>>,
    latency: Option<Duration>,
    /// The request's stage trace, stamped under this cell's lock as the
    /// pool moves the request along (so stamps need no atomics of their
    /// own — they piggyback on lock acquisitions the lifecycle already
    /// performs).
    trace: Option<Trace>,
}

/// State shared between one [`Ticket`] and the pool's queue/worker side.
pub(crate) struct TicketCore {
    cell: Mutex<TicketCell>,
    done: Condvar,
    submitted: Instant,
    deadline: Option<Instant>,
}

impl TicketCore {
    fn new(deadline: Option<Duration>, trace: Option<Trace>) -> Self {
        let submitted = Instant::now();
        Self {
            cell: Mutex::new(TicketCell {
                status: TicketStatus::Pending,
                result: None,
                latency: None,
                trace,
            }),
            done: Condvar::new(),
            submitted,
            // A deadline too far in the future to represent as an
            // Instant is indistinguishable from no deadline.
            deadline: deadline.and_then(|d| submitted.checked_add(d)),
        }
    }

    /// Transitions to `Done` with `result` unless already done. Returns
    /// whether this call completed the ticket.
    fn complete(&self, result: Result<Tensor, EbError>) -> bool {
        let mut cell = lock_recovering(&self.cell);
        if cell.status == TicketStatus::Done {
            return false;
        }
        cell.status = TicketStatus::Done;
        cell.result = Some(result);
        cell.latency = Some(self.submitted.elapsed());
        drop(cell);
        self.done.notify_all();
        true
    }

    /// `Pending → Serving` (or expiry — see [`Claim`]).
    fn claim(&self) -> Claim {
        let mut cell = lock_recovering(&self.cell);
        match cell.status {
            TicketStatus::Done | TicketStatus::Serving => Claim::AlreadyDone,
            TicketStatus::Pending => {
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    cell.status = TicketStatus::Done;
                    cell.result = Some(Err(EbError::DeadlineExceeded));
                    cell.latency = Some(self.submitted.elapsed());
                    drop(cell);
                    self.done.notify_all();
                    Claim::Expired
                } else {
                    cell.status = TicketStatus::Serving;
                    if let Some(trace) = cell.trace.as_mut() {
                        trace.stamp(Stage::Batched);
                    }
                    Claim::Claimed
                }
            }
        }
    }

    /// [`TicketCore::complete`] for the served path: stamps
    /// [`Stage::Executed`] (at the batch-wide `executed` instant) and
    /// [`Stage::Replied`] on the trace, then runs `record` over the
    /// stamped trace — **under the cell lock, before the waiter can
    /// observe completion** — iff this call completed the ticket. The
    /// worker's `record` folds the spans into the pool's telemetry, so
    /// a client holding its result always finds that result already
    /// reflected in a metrics scrape (read-your-own-writes across the
    /// whole pipeline). Returns whether this call completed the ticket.
    fn complete_served(
        &self,
        result: Result<Tensor, EbError>,
        executed: Instant,
        record: impl FnOnce(&Trace),
    ) -> bool {
        let mut cell = lock_recovering(&self.cell);
        if cell.status == TicketStatus::Done {
            return false;
        }
        cell.status = TicketStatus::Done;
        cell.result = Some(result);
        cell.latency = Some(self.submitted.elapsed());
        if let Some(trace) = cell.trace.as_mut() {
            trace.stamp_at(Stage::Executed, executed);
            trace.stamp(Stage::Replied);
            record(trace);
        }
        drop(cell);
        self.done.notify_all();
        true
    }

    /// `Pending → Done(Cancelled)`; `false` once serving has started or
    /// the ticket is already done.
    fn cancel(&self) -> bool {
        let mut cell = lock_recovering(&self.cell);
        if cell.status != TicketStatus::Pending {
            return false;
        }
        cell.status = TicketStatus::Done;
        cell.result = Some(Err(EbError::Cancelled));
        cell.latency = Some(self.submitted.elapsed());
        drop(cell);
        self.done.notify_all();
        true
    }

    /// Blocks until done, enforcing the deadline waiter-side: a ticket
    /// still `Pending` at its deadline is completed with
    /// [`EbError::DeadlineExceeded`] *here*, so the caller's wait is
    /// bounded even when no worker ever drains the queue. A ticket
    /// already `Serving` is past preemption — the wait continues until
    /// its real result lands.
    fn wait_take(&self) -> Result<Tensor, EbError> {
        let mut cell = lock_recovering(&self.cell);
        loop {
            if cell.status == TicketStatus::Done {
                return cell.result.take().unwrap_or_else(|| Err(pool_gone()));
            }
            match (self.deadline, cell.status) {
                (Some(d), TicketStatus::Pending) => {
                    let now = Instant::now();
                    if now >= d {
                        cell.status = TicketStatus::Done;
                        cell.latency = Some(self.submitted.elapsed());
                        drop(cell);
                        self.done.notify_all();
                        return Err(EbError::DeadlineExceeded);
                    }
                    (cell, _) = self
                        .done
                        .wait_timeout(cell, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                _ => {
                    cell = self.done.wait(cell).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// A poll/wait/cancel handle on one submitted request, returned by
/// [`PoolHandle::submit`](crate::PoolHandle::submit).
///
/// The blocking convenience methods
/// ([`PoolHandle::infer`](crate::PoolHandle::infer) and friends) are
/// thin wrappers over `submit(..)` + [`Ticket::wait`], so waiting on a
/// ticket is bit-exact with the blocking path.
pub struct Ticket {
    core: Arc<TicketCore>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("status", &self.poll())
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

impl Ticket {
    /// Non-blocking lifecycle check.
    pub fn poll(&self) -> TicketStatus {
        lock_recovering(&self.core.cell).status
    }

    /// Blocks until the request completes and returns its logits — or
    /// [`EbError::DeadlineExceeded`] / [`EbError::Cancelled`] when the
    /// request ended without being served. The wait itself is
    /// deadline-bounded: even on a jammed queue it returns no later
    /// than the request's deadline (plus the in-flight micro-batch,
    /// if a replica claimed the request in time).
    pub fn wait(self) -> Result<Tensor, EbError> {
        self.core.wait_take()
    }

    /// Requests cancellation: `true` when the ticket was still pending
    /// (its [`Ticket::wait`] then returns [`EbError::Cancelled`] and it
    /// will never occupy a micro-batch slot), `false` when a replica
    /// already claimed or completed it.
    pub fn cancel(&self) -> bool {
        self.core.cancel()
    }

    /// Time since submission.
    pub fn elapsed(&self) -> Duration {
        self.core.submitted.elapsed()
    }

    /// Submission-to-completion latency, once done (served, cancelled,
    /// or expired).
    pub fn latency(&self) -> Option<Duration> {
        lock_recovering(&self.core.cell).latency
    }

    /// The request's stage [`Trace`] — attached via [`Request::trace`]
    /// or begun by the pool at enqueue, and fully stamped once the
    /// request is served. Every ticket a pool hands back carries one.
    pub fn trace(&self) -> Option<Trace> {
        lock_recovering(&self.core.cell).trace
    }
}

/// The queue-side half of a ticket, owned by the pool while the request
/// is queued/served. Dropping an unfinished guard (scuttled queue,
/// panicked worker, torn-down pool) completes the ticket with a
/// pool-gone error so waiters observe the failure instead of hanging.
pub(crate) struct TicketGuard(Arc<TicketCore>);

impl TicketGuard {
    /// See [`TicketCore::claim`].
    pub(crate) fn claim(&self) -> Claim {
        self.0.claim()
    }

    /// Publishes a served result, stamping the trace's final stages and
    /// running `record` over it before the waiter can observe
    /// completion — see [`TicketCore::complete_served`].
    pub(crate) fn complete_served(
        &self,
        result: Result<Tensor, EbError>,
        executed: Instant,
        record: impl FnOnce(&Trace),
    ) -> bool {
        self.0.complete_served(result, executed, record)
    }

    /// Stamps [`Stage::Enqueued`] on the request's trace — called by the
    /// pool as it admits the request to its queue
    /// (and again on a hot-swap re-offer, which re-enqueues for real).
    /// When the request carries no trace (direct pool submission, no
    /// HTTP frontend upstream), one is begun here so every served
    /// request contributes to the queue/batch/execute/reply histograms.
    pub(crate) fn stamp_enqueued(&self) {
        let mut cell = lock_recovering(&self.0.cell);
        match cell.trace.as_mut() {
            Some(trace) => trace.stamp(Stage::Enqueued),
            None => {
                let mut trace = Trace::begin();
                trace.stamp(Stage::Enqueued);
                cell.trace = Some(trace);
            }
        }
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        // No-op on the normal path (already Done); the safety net for
        // every abnormal one.
        self.0.complete(Err(pool_gone()));
    }
}

impl fmt::Debug for TicketGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketGuard")
            .field("status", &lock_recovering(&self.0.cell).status)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn submit_only(opts: RequestOpts) -> (TicketGuard, Ticket) {
        let (_, guard, ticket) = Request::with_opts(Tensor::zeros(&[1]), opts).into_parts();
        (guard, ticket)
    }

    #[test]
    fn ticket_completes_and_reports_latency() {
        let (guard, ticket) = submit_only(RequestOpts::default());
        assert_eq!(ticket.poll(), TicketStatus::Pending);
        assert!(ticket.latency().is_none());
        assert!(matches!(guard.claim(), Claim::Claimed));
        assert_eq!(ticket.poll(), TicketStatus::Serving);
        guard.0.complete(Ok(Tensor::zeros(&[2])));
        assert_eq!(ticket.poll(), TicketStatus::Done);
        assert!(ticket.latency().is_some());
        assert_eq!(ticket.wait().unwrap(), Tensor::zeros(&[2]));
    }

    #[test]
    fn cancel_wins_only_while_pending() {
        let (guard, ticket) = submit_only(RequestOpts::default());
        assert!(ticket.cancel());
        assert!(!ticket.cancel(), "second cancel is a no-op");
        assert!(matches!(guard.claim(), Claim::AlreadyDone));
        assert!(matches!(ticket.wait(), Err(EbError::Cancelled)));

        let (guard, ticket) = submit_only(RequestOpts::default());
        assert!(matches!(guard.claim(), Claim::Claimed));
        assert!(!ticket.cancel(), "too late once serving");
        guard.0.complete(Ok(Tensor::zeros(&[1])));
        assert!(ticket.wait().is_ok(), "claimed requests deliver results");
    }

    #[test]
    fn expired_ticket_is_skipped_at_claim_time() {
        let (guard, ticket) = submit_only(RequestOpts {
            deadline: Some(Duration::ZERO),
            priority: Priority::Normal,
        });
        assert!(matches!(guard.claim(), Claim::Expired));
        assert!(matches!(ticket.wait(), Err(EbError::DeadlineExceeded)));
    }

    #[test]
    fn waiter_side_deadline_bounds_the_wait_without_any_worker() {
        let (guard, ticket) = submit_only(RequestOpts {
            deadline: Some(Duration::from_millis(30)),
            priority: Priority::Normal,
        });
        let started = Instant::now();
        assert!(matches!(ticket.wait(), Err(EbError::DeadlineExceeded)));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wait must be deadline-bounded, not indefinite"
        );
        // The worker later finds it done and must skip it.
        assert!(matches!(guard.claim(), Claim::AlreadyDone));
    }

    #[test]
    fn dropping_the_guard_fails_the_waiter_instead_of_hanging() {
        let (guard, ticket) = submit_only(RequestOpts::default());
        let waiter = thread::spawn(move || ticket.wait());
        drop(guard);
        assert!(matches!(waiter.join().unwrap(), Err(EbError::Config(_))));
    }

    #[test]
    fn priority_lanes_are_ordered_high_to_low() {
        let lanes: Vec<usize> = Priority::all().iter().map(|p| p.lane()).collect();
        assert_eq!(lanes, vec![0, 1, 2]);
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
