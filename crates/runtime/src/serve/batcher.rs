//! [`DynamicBatcher`] — the bounded, priority-laned, request-coalescing
//! queue at the heart of [`ServePool`](crate::ServePool).

use crate::error::EbError;
use crate::serve::lock_recovering;
use crate::serve::ticket::Priority;
use eb_telemetry::{Gauge, Histogram};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The one "no new requests" error every closed-queue path reports.
pub(crate) fn closed_error() -> EbError {
    EbError::Config("serving pool is shut down; no new requests accepted".into())
}

/// Why [`DynamicBatcher::try_offer`] refused an item. Both variants
/// hand the item back so callers can shed, retry elsewhere, or report
/// without having cloned it.
#[derive(Debug)]
pub enum Rejected<T> {
    /// The queue was at capacity — the load-shedding signal. A blocking
    /// [`DynamicBatcher::offer`] would have parked the caller instead.
    Full(T),
    /// The batcher is closed; no submission can ever succeed again.
    Closed(T),
}

impl<T> Rejected<T> {
    /// The rejected item, however it was refused.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(item) | Self::Closed(item) => item,
        }
    }
}

/// State behind the [`DynamicBatcher`] mutex: one FIFO lane per
/// [`Priority`] class, drained highest class first.
struct BatcherState<T> {
    lanes: [VecDeque<T>; Priority::COUNT],
    closed: bool,
}

impl<T> BatcherState<T> {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Pops the oldest item of the highest non-empty class.
    fn pop_front(&mut self) -> Option<T> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// A bounded multi-producer queue whose consumers drain in coalesced
/// groups: `next_batch` takes the first waiting item, lingers up to
/// `max_wait` for more, and returns up to `max_batch` items at once —
/// higher-[`Priority`] items first, FIFO within a class.
///
/// This is the request-coalescing heart of [`ServePool`](crate::ServePool),
/// exposed as a standalone generic component: producers call
/// [`DynamicBatcher::submit`] / [`DynamicBatcher::submit_at`] (blocking
/// while the queue is full — backpressure), consumers loop on
/// [`DynamicBatcher::next_batch`] until it returns `None` (closed *and*
/// drained; pending items are always served before shutdown completes),
/// topping short batches up with [`DynamicBatcher::try_pop`].
pub struct DynamicBatcher<T> {
    state: Mutex<BatcherState<T>>,
    /// Signalled on submit and on close.
    not_empty: Condvar,
    /// Signalled on drain and on close.
    not_full: Condvar,
    capacity: usize,
    max_batch: usize,
    max_wait: Duration,
    /// Queue-depth gauge, updated under the state lock after every
    /// mutation so a scrape never sees a depth the queue never had.
    depth: Gauge,
    /// Coalescing-window histogram (first item taken → batch handed
    /// out), recorded once per [`DynamicBatcher::next_batch`].
    linger: Histogram,
}

impl<T> fmt::Debug for DynamicBatcher<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = lock_recovering(&self.state);
        f.debug_struct("DynamicBatcher")
            .field("queued", &st.len())
            .field("closed", &st.closed)
            .field("capacity", &self.capacity)
            .field("max_batch", &self.max_batch)
            .field("max_wait", &self.max_wait)
            .finish()
    }
}

impl<T> DynamicBatcher<T> {
    /// A batcher holding at most `capacity` queued items, coalescing up
    /// to `max_batch` of them per [`DynamicBatcher::next_batch`] after
    /// lingering at most `max_wait` (both clamped to be at least
    /// 1 item / zero wait). `depth` tracks the queued item count (set
    /// under the queue lock after every mutation) and `linger` records
    /// each batch's coalescing window in microseconds; pass detached
    /// [`Gauge::new`] / [`Histogram::new`] handles when nobody scrapes
    /// them.
    pub fn new(
        capacity: usize,
        max_batch: usize,
        max_wait: Duration,
        depth: Gauge,
        linger: Histogram,
    ) -> Self {
        Self {
            state: Mutex::new(BatcherState {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            max_wait,
            depth,
            linger,
        }
    }

    /// Publishes `st.len()` to the depth gauge; call before releasing
    /// the state lock so the gauge only ever shows real depths.
    fn publish_depth(&self, st: &BatcherState<T>) {
        self.depth.set(st.len() as f64);
    }

    /// The per-micro-batch coalescing bound this batcher was built with.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Enqueues one [`Priority::Normal`] item, blocking while the queue
    /// is at capacity.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the batcher is closed; the item
    /// is never enqueued in that case.
    pub fn submit(&self, item: T) -> Result<(), EbError> {
        self.submit_at(item, Priority::Normal)
    }

    /// Enqueues one item into `priority`'s lane, blocking while the
    /// queue is at capacity. Consumers drain higher classes first, so a
    /// [`Priority::High`] item overtakes everything queued below it.
    ///
    /// # Errors
    ///
    /// Returns [`EbError::Config`] when the batcher is closed; the item
    /// is never enqueued in that case.
    pub fn submit_at(&self, item: T, priority: Priority) -> Result<(), EbError> {
        self.offer(item, priority).map_err(|_| closed_error())
    }

    /// Like [`DynamicBatcher::submit_at`], but hands the item back when
    /// the batcher is closed instead of dropping it into an error — how
    /// a [`ModelHandle`](crate::ModelHandle) resubmits a request to a
    /// swapped model's new pool without cloning it.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the batcher is closed; the item is
    /// never enqueued in that case.
    pub fn offer(&self, item: T, priority: Priority) -> Result<(), T> {
        let mut st = lock_recovering(&self.state);
        while st.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            return Err(item);
        }
        st.lanes[priority.lane()].push_back(item);
        self.publish_depth(&st);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking [`DynamicBatcher::offer`]: enqueues the item if the
    /// queue has room, otherwise hands it straight back — never parks
    /// the caller. This is the load-shedding submission path: a network
    /// edge calls this so a saturated queue turns into an immediate
    /// [`Rejected::Full`] (→ 503) instead of backpressure that stalls
    /// the acceptor.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected::Full`] when the queue is at capacity and
    /// [`Rejected::Closed`] when the batcher is closed; the item is
    /// never enqueued in either case.
    pub fn try_offer(&self, item: T, priority: Priority) -> Result<(), Rejected<T>> {
        let mut st = lock_recovering(&self.state);
        if st.closed {
            return Err(Rejected::Closed(item));
        }
        if st.len() >= self.capacity {
            return Err(Rejected::Full(item));
        }
        st.lanes[priority.lane()].push_back(item);
        self.publish_depth(&st);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next micro-batch: waits for a first item, lingers
    /// up to `max_wait` (or until `max_batch` items are waiting), then
    /// drains up to `max_batch` items, highest priority class first.
    /// The returned batch is never empty; `None` means the batcher is
    /// closed **and** fully drained.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let mut st = lock_recovering(&self.state);
        loop {
            // Phase 1: wait for the first request (or close + drained).
            while st.len() == 0 {
                if st.closed {
                    return None;
                }
                st = self
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // First item present: the coalescing window opens here.
            let linger_from = Instant::now();
            // Phase 2: linger for coalescing partners.
            if self.max_wait > Duration::ZERO && st.len() < self.max_batch && !st.closed {
                // A linger too long to represent as an Instant (e.g.
                // Duration::MAX) is clamped to an hour per round rather
                // than panicking the worker.
                let deadline = Instant::now()
                    .checked_add(self.max_wait)
                    .unwrap_or_else(|| Instant::now() + Duration::from_secs(3600));
                loop {
                    let now = Instant::now();
                    if now >= deadline || st.len() >= self.max_batch || st.closed {
                        break;
                    }
                    let (next, timeout) = self
                        .not_empty
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            // With several consumers on one batcher, a sibling may have
            // drained the queue while this one lingered without the lock
            // (the condvar waits release it) — start over rather than
            // hand back an empty batch.
            let take = st.len().min(self.max_batch);
            if take == 0 {
                continue;
            }
            let mut batch = Vec::with_capacity(take);
            while batch.len() < take {
                match st.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            self.publish_depth(&st);
            drop(st);
            self.not_full.notify_all();
            self.linger.record(linger_from.elapsed().as_micros() as u64);
            return Some(batch);
        }
    }

    /// Pops the single highest-priority queued item without waiting or
    /// coalescing — how a worker tops a micro-batch back up after
    /// discarding cancelled/expired members, so dead requests never
    /// shrink the group actually served.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = lock_recovering(&self.state);
        let item = st.pop_front();
        if item.is_some() {
            self.publish_depth(&st);
        }
        drop(st);
        if item.is_some() {
            self.not_full.notify_all();
        }
        item
    }

    /// Closes the batcher: pending items remain drainable via
    /// [`DynamicBatcher::next_batch`], new submissions fail, blocked
    /// producers and consumers wake.
    pub fn close(&self) {
        lock_recovering(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Immediately removes and returns everything queued, without
    /// waiting or coalescing bounds — the abandon-ship counterpart of
    /// [`DynamicBatcher::next_batch`], used when no consumer is left to
    /// serve the items (dropping them lets their owners observe the
    /// failure instead of waiting forever).
    pub fn drain_now(&self) -> Vec<T> {
        let mut st = lock_recovering(&self.state);
        let mut drained = Vec::with_capacity(st.len());
        while let Some(item) = st.pop_front() {
            drained.push(item);
        }
        self.publish_depth(&st);
        drop(st);
        self.not_full.notify_all();
        drained
    }

    /// Items currently queued (drained batches excluded).
    pub fn len(&self) -> usize {
        lock_recovering(&self.state).len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`DynamicBatcher::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_recovering(&self.state).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// A batcher with detached depth/linger instruments.
    fn batcher<T>(capacity: usize, max_batch: usize, max_wait: Duration) -> DynamicBatcher<T> {
        DynamicBatcher::new(
            capacity,
            max_batch,
            max_wait,
            Gauge::new(),
            Histogram::new(),
        )
    }

    #[test]
    fn batcher_coalesces_up_to_max_batch() {
        let b = batcher(16, 4, Duration::from_millis(200));
        for i in 0..6 {
            b.submit(i).unwrap();
        }
        // All six are already queued: the first batch takes max_batch
        // without lingering, the second takes the remainder.
        assert_eq!(b.next_batch().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(b.next_batch().unwrap(), vec![4, 5]);
        assert!(b.is_empty());
    }

    #[test]
    fn higher_priority_classes_drain_first_fifo_within_class() {
        let b = batcher(16, 8, Duration::ZERO);
        b.submit_at("low-1", Priority::Low).unwrap();
        b.submit_at("normal-1", Priority::Normal).unwrap();
        b.submit_at("high-1", Priority::High).unwrap();
        b.submit_at("normal-2", Priority::Normal).unwrap();
        b.submit_at("high-2", Priority::High).unwrap();
        assert_eq!(
            b.next_batch().unwrap(),
            vec!["high-1", "high-2", "normal-1", "normal-2", "low-1"]
        );
    }

    #[test]
    fn try_pop_takes_highest_priority_without_blocking() {
        let b = batcher(8, 8, Duration::ZERO);
        assert_eq!(b.try_pop(), None, "empty queue pops nothing");
        b.submit_at(1, Priority::Low).unwrap();
        b.submit_at(2, Priority::High).unwrap();
        assert_eq!(b.try_pop(), Some(2));
        assert_eq!(b.try_pop(), Some(1));
        assert_eq!(b.try_pop(), None);
    }

    #[test]
    fn try_offer_sheds_on_full_and_reports_closed() {
        let b = batcher(2, 8, Duration::ZERO);
        assert!(b.try_offer(1, Priority::Normal).is_ok());
        assert!(b.try_offer(2, Priority::High).is_ok());
        // Full: the item comes back instantly instead of blocking.
        match b.try_offer(3, Priority::Normal) {
            Err(Rejected::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining frees a slot again.
        assert_eq!(b.next_batch().unwrap(), vec![2, 1]);
        assert!(b.try_offer(4, Priority::Normal).is_ok());
        b.close();
        match b.try_offer(5, Priority::Normal) {
            Err(r @ Rejected::Closed(_)) => assert_eq!(r.into_inner(), 5),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Close wins over full: a closed batcher never reports Full.
        assert_eq!(b.next_batch().unwrap(), vec![4]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn batcher_close_drains_then_ends() {
        let b = batcher(8, 8, Duration::ZERO);
        b.submit("pending").unwrap();
        b.close();
        assert!(b.is_closed());
        assert!(b.submit("rejected").is_err());
        // The pending item is still served before the stream ends.
        assert_eq!(b.next_batch().unwrap(), vec!["pending"]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn batcher_backpressure_blocks_until_drained() {
        let b = Arc::new(batcher(1, 1, Duration::ZERO));
        b.submit(0u32).unwrap();
        let submitted = Arc::new(AtomicUsize::new(0));
        let producer = {
            let b = Arc::clone(&b);
            let submitted = Arc::clone(&submitted);
            thread::spawn(move || {
                for i in 1..=3u32 {
                    b.submit(i).unwrap();
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // Capacity 1: the producer cannot run ahead of the consumer by
        // more than one queued item.
        let mut seen = Vec::new();
        while seen.len() < 4 {
            let batch = b.next_batch().unwrap();
            assert!(submitted.load(Ordering::SeqCst) <= seen.len() + 2);
            seen.extend(batch);
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batcher_multi_consumer_never_yields_empty_batches() {
        // Several consumers share one batcher; a consumer whose linger
        // window ends after a sibling drained the queue must loop back
        // instead of handing out an empty batch.
        let b = Arc::new(batcher(64, 4, Duration::from_millis(5)));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let mut taken = 0usize;
                    while let Some(batch) = b.next_batch() {
                        assert!(!batch.is_empty(), "next_batch must never yield empty");
                        taken += batch.len();
                    }
                    taken
                })
            })
            .collect();
        for i in 0..40 {
            b.submit(i).unwrap();
        }
        b.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 40, "every item served exactly once");
    }
}
