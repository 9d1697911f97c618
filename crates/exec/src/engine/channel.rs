//! The engine's one bounded channel: the buffer between mappers and
//! reducers ([`BoundedQueue`](super::BoundedQueue), carrying
//! [`Delivery`](super::Delivery) messages) and between chained operators
//! ([`Exchange`](super::Exchange), carrying [`ColumnBatch`]es) are both a
//! [`Channel`], and the transport's credit window admits by the same
//! [`admits`] rule.
//!
//! The bound is in *tuples* — the unit that actually occupies memory — as
//! reported by each item's [`Weighted::weight`]; bounding in items would
//! let many small fragments pile up unchecked. A consumer that falls
//! behind exerts *backpressure*: the pushing task parks, and the time it
//! spent blocked is charged to the channel's [`BlockedTime`] so runs can
//! report where the pipeline stalled.
//!
//! Engine tasks run on the shared worker-pool runtime and use the
//! non-blocking [`Channel::try_push`] / [`Channel::try_pop`] with a
//! [`Waker`]: a task that cannot make progress registers its waker and
//! returns [`Poll::Pending`](super::runtime::Poll) instead of parking an
//! OS thread. Registration happens under the same mutex as the failed try,
//! so a transition racing the registration can never be lost: whoever
//! frees capacity (a pop) or delivers data (a push) drains the matching
//! waiter list and wakes every parked task, and [`Channel::close`] /
//! [`Channel::abandon`] wake both sides. The blocking [`Channel::push`] /
//! [`Channel::pop`] serve client threads outside the pool (socket readers,
//! test producers); they wake parked tasks the same way.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use super::runtime::Waker;

/// What a [`Channel`] carries: anything that knows how many tuples of
/// memory it occupies while queued.
pub trait Weighted {
    /// Tuples this item charges against the channel bound. Zero-weight
    /// items (control messages) bypass the bound entirely.
    fn weight(&self) -> usize;

    /// Whether a push drops the item instead of queueing it (an empty
    /// exchange batch carries nothing downstream).
    fn is_void(&self) -> bool {
        false
    }
}

/// The admission rule of every bounded edge in the engine — the local
/// channel and the wire's credit window alike: an item of weight `w`
/// enters a window holding `used` of `capacity` tuples unless it would
/// overrun a non-empty window. Zero-weight control messages always pass
/// (late coordination can never deadlock behind a full buffer), and an
/// item larger than the whole capacity is admitted once the window is
/// empty (it could never fit otherwise).
pub(crate) fn admits(used: usize, w: usize, capacity: usize) -> bool {
    w == 0 || used == 0 || used + w <= capacity
}

/// Nanoseconds producers spent blocked on a full window: the backpressure
/// account every bounded edge reports.
#[derive(Debug, Default)]
pub(crate) struct BlockedTime(AtomicU64);

impl BlockedTime {
    /// Charges a stall observed outside the window (a pool task that
    /// parked on a bounced try reports it once the push lands).
    pub(crate) fn note(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn secs(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Blocks on `freed` while `full` holds, charging the wait only when
    /// there was one: an uncontended push reports no backpressure.
    pub(crate) fn wait_while<'a, S>(
        &self,
        freed: &Condvar,
        mut guard: MutexGuard<'a, S>,
        mut full: impl FnMut(&mut S) -> bool,
    ) -> MutexGuard<'a, S> {
        if !full(&mut guard) {
            return guard;
        }
        let start = Instant::now();
        let guard = freed.wait_while(guard, full).expect("channel poisoned");
        self.note(start.elapsed().as_nanos() as u64);
        guard
    }
}

/// One observation from the non-blocking [`Channel::try_pop`].
#[derive(Debug)]
pub enum Pop<T> {
    /// The next item.
    Item(T),
    /// Momentarily empty but still open; a caller that passed a waker is
    /// woken by the next push (or close/abandon).
    Empty,
    /// Closed and drained — the end of the stream. A delivery channel is
    /// never closed (its end of stream is an in-band control message), so
    /// only exchanges report this.
    Closed,
}

/// A bounded MPMC FIFO of weighted items.
#[derive(Debug)]
pub struct Channel<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity_tuples: usize,
    blocked: BlockedTime,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    /// Tuples currently queued.
    used: usize,
    /// Items ever queued (stable once `closed`).
    pushed: u64,
    /// Producer-side end of stream: nothing will be pushed again.
    closed: bool,
    /// The consumer is gone (its stage unwound): producers must never
    /// block again, and their pushes are discarded.
    abandoned: bool,
    /// Tasks parked on an empty channel; woken by any push and by
    /// close/abandon.
    consumers: Vec<Waker>,
    /// Tasks parked on a full channel; woken by any pop and by
    /// close/abandon.
    producers: Vec<Waker>,
}

fn wake(waiters: Vec<Waker>) {
    for w in &waiters {
        w.wake();
    }
}

impl<T: Weighted> Channel<T> {
    pub fn new(capacity_tuples: usize) -> Self {
        Channel {
            state: Mutex::new(State {
                items: VecDeque::new(),
                used: 0,
                pushed: 0,
                closed: false,
                abandoned: false,
                consumers: Vec::new(),
                producers: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity_tuples: capacity_tuples.max(1),
            blocked: BlockedTime::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("channel poisoned")
    }

    /// Blocking bounded push for client threads outside the pool: waits
    /// while the channel is too full to admit the item, charging the wait
    /// to [`blocked_secs`](Self::blocked_secs).
    ///
    /// Memory-accounting contract for exchanges: the producer charges the
    /// batch to the **consuming engine's** [`MemGauge`](super::MemGauge)
    /// *before* pushing (the reducer-side [`StageSink`](super::StageSink)
    /// path does this), and the consuming mapper releases it after routing
    /// — which is why a chained plan must share one gauge across all its
    /// stages.
    pub fn push(&self, item: T) {
        if item.is_void() {
            return;
        }
        let w = item.weight();
        let state = self.blocked.wait_while(&self.not_full, self.lock(), |s| {
            !s.abandoned && !admits(s.used, w, self.capacity_tuples)
        });
        self.enqueue(state, item);
    }

    /// Non-blocking bounded push: queues the item, or hands it back when
    /// the channel is full. With a `waker`, a bounce also registers it to
    /// be woken by the next pop (or close/abandon) — under the same lock
    /// as the failed attempt, so the freeing transition can never race
    /// past unobserved; `Err` then means "parked: return `Pending`". A
    /// pool task must use this rather than [`push`](Self::push): with
    /// every stage multiplexed onto one fixed pool, a blocking push could
    /// suspend the very worker the consumer needs. Void items and pushes
    /// after [`abandon`](Self::abandon) are discarded and reported `Ok`,
    /// so the producer runs to completion.
    pub fn try_push(&self, item: T, waker: Option<&Waker>) -> Result<(), T> {
        if item.is_void() {
            return Ok(());
        }
        let mut state = self.lock();
        if !state.abandoned && !admits(state.used, item.weight(), self.capacity_tuples) {
            if let Some(waker) = waker {
                waker.register_in(&mut state.producers);
            }
            return Err(item);
        }
        self.enqueue(state, item);
        Ok(())
    }

    /// Non-blocking push that ignores the bound (weight is still
    /// accounted). Used for reducer → reducer traffic — forwarded
    /// fragments and migration handshakes — where a bounded push could
    /// form a cycle of reducers waiting on each other's full channels, and
    /// for frames a socket reader has already received.
    pub fn push_unbounded(&self, item: T) {
        if !item.is_void() {
            self.enqueue(self.lock(), item);
        }
    }

    fn enqueue(&self, mut state: MutexGuard<'_, State<T>>, item: T) {
        debug_assert!(!state.closed, "push after close");
        if state.abandoned {
            // The consumer unwound; discard so the producer can run to
            // completion and the failure propagates at the joins instead
            // of deadlocking. (Gauge accounting is best-effort on this
            // path — the query is already failing.)
            return;
        }
        state.used += item.weight();
        state.pushed += 1;
        state.items.push_back(item);
        let waiters = std::mem::take(&mut state.consumers);
        drop(state);
        self.not_empty.notify_one();
        wake(waiters);
    }

    /// Non-blocking pop. With a `waker`, an empty-but-open channel also
    /// registers it to be woken by the next push or by close/abandon;
    /// [`Pop::Empty`] then means "parked: return `Pending`".
    pub fn try_pop(&self, waker: Option<&Waker>) -> Pop<T> {
        let mut state = self.lock();
        match state.items.pop_front() {
            Some(item) => Pop::Item(self.dequeued(state, item)),
            None if state.closed => Pop::Closed,
            None => {
                if let Some(waker) = waker {
                    waker.register_in(&mut state.consumers);
                }
                Pop::Empty
            }
        }
    }

    /// Blocking pop: the next item, or `None` once the channel is closed
    /// and drained. A delivery channel never closes — its consumer stops
    /// at the in-band `Finish` / `Abort` message the
    /// orchestration layer guarantees to deliver.
    pub fn pop(&self) -> Option<T> {
        let mut state = self
            .not_empty
            .wait_while(self.lock(), |s| s.items.is_empty() && !s.closed)
            .expect("channel poisoned");
        let item = state.items.pop_front()?;
        Some(self.dequeued(state, item))
    }

    fn dequeued(&self, mut state: MutexGuard<'_, State<T>>, item: T) -> T {
        state.used -= item.weight();
        // Freed capacity can unblock every parked producer whose item now
        // fits — wake them all; those still blocked re-register.
        let waiters = std::mem::take(&mut state.producers);
        drop(state);
        self.not_full.notify_all();
        wake(waiters);
        item
    }

    /// Marks the stream complete: nothing will be pushed again. Wakes
    /// every blocked consumer so it can observe the end of stream.
    pub fn close(&self) {
        self.release_all(|s| s.closed = true);
    }

    /// Consumer-side teardown: marks the consumer as gone, waking and
    /// unblocking every producer (their future pushes are discarded). Safe
    /// to call after normal completion too — a drained, closed exchange
    /// never sees another push. This is what keeps a panicking downstream
    /// stage from deadlocking its upstream producer mid-push.
    pub fn abandon(&self) {
        self.release_all(|s| s.abandoned = true);
    }

    fn release_all(&self, mark: impl FnOnce(&mut State<T>)) {
        let mut state = self.lock();
        mark(&mut state);
        let mut waiters = std::mem::take(&mut state.producers);
        waiters.append(&mut state.consumers);
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        wake(waiters);
    }

    /// Is the stream complete *and* has the consumer processed every item?
    /// `routed` is the consumer's count of items it finished — the
    /// downstream seal protocol's end-of-relation test.
    pub fn drained(&self, routed: u64) -> bool {
        let state = self.lock();
        state.closed && state.items.is_empty() && routed == state.pushed
    }

    /// Tuples currently queued — the queue-depth heartbeat the migration
    /// coordinator reads when hunting for stragglers.
    pub fn used_tuples(&self) -> usize {
        self.lock().used
    }

    /// Charges producer-side blocked time observed *outside* the channel —
    /// a pool task that parked on a bounced [`try_push`](Self::try_push)
    /// reports the stall here once it unblocks, keeping
    /// [`blocked_secs`](Self::blocked_secs) meaningful under cooperative
    /// scheduling.
    pub fn note_blocked(&self, nanos: u64) {
        self.blocked.note(nanos);
    }

    /// Total time producers spent blocked on this channel.
    pub fn blocked_secs(&self) -> f64 {
        self.blocked.secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::runtime::{EngineRuntime, Poll};
    use ewh_core::ColumnBatch;
    use std::sync::atomic::AtomicBool;

    fn batch(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for i in 0..n {
            b.push(i as i64, i as u64);
        }
        b
    }

    #[test]
    fn close_and_abandon_wake_tasks_parked_on_either_side() {
        let rt = EngineRuntime::new(2);
        let (empty, full) = (Channel::<ColumnBatch>::new(4), Channel::new(4));
        full.push(batch(4));
        // Set once each task has registered its waker and is about to
        // return `Pending`: close/abandon then race only against the park
        // itself, so the waker lists are what must end both tasks.
        let (consumer_parked, producer_parked) = (AtomicBool::new(false), AtomicBool::new(false));
        let (saw_close, pushed) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|threads| {
            threads.spawn(|| {
                while !(consumer_parked.load(Ordering::Acquire)
                    && producer_parked.load(Ordering::Acquire))
                {
                    std::thread::yield_now();
                }
                empty.close();
                full.abandon();
            });
            rt.scope(|s| {
                let (empty, parked, saw_close) = (&empty, &consumer_parked, &saw_close);
                s.spawn(move |cx| match empty.try_pop(Some(cx.waker())) {
                    Pop::Closed => {
                        saw_close.store(true, Ordering::Relaxed);
                        Poll::Ready
                    }
                    Pop::Empty => {
                        parked.store(true, Ordering::Release);
                        Poll::Pending
                    }
                    Pop::Item(_) => unreachable!("nothing was pushed"),
                });
                let (full, parked, pushed) = (&full, &producer_parked, &pushed);
                s.spawn(move |cx| match full.try_push(batch(1), Some(cx.waker())) {
                    Ok(()) => {
                        pushed.store(true, Ordering::Relaxed);
                        Poll::Ready
                    }
                    Err(_) => {
                        parked.store(true, Ordering::Release);
                        Poll::Pending
                    }
                });
            });
        });
        assert!(saw_close.into_inner() && pushed.into_inner());
        assert_eq!(full.used_tuples(), 4, "the post-abandon push was discarded");
    }
}
