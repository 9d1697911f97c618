//! Delivery messages: what travels mapper → reducer (and reducer →
//! reducer) on the engine's bounded queues — the engine's stand-in for a
//! network channel.
//!
//! Each reducer owns one queue; mappers push per-region tuple batches into
//! the queue of the reducer owning the target region (resolved through the
//! shared [`ewh_core::RoutingTable`] at push time). The queue is a
//! [`Channel`] bounded in tuples, so a reducer that falls behind exerts
//! backpressure on the pushing mappers. Control traffic — seals,
//! migration handshakes, finish/abort — weighs nothing and so bypasses the
//! bound, and reducer → reducer forwards use
//! [`Channel::push_unbounded`]: coordination can never deadlock behind a
//! full queue.

use ewh_core::{ColumnBatch, Rel};

use super::channel::{Channel, Weighted};
use super::spill::SpillRun;

/// One message on a reducer's queue.
#[derive(Debug)]
pub enum Delivery {
    /// Tuples of one relation routed to one region.
    Batch(RegionBatch),
    /// Every `R1` tuple of every morsel has been enqueued (broadcast by the
    /// mapper that routes the last `R1` morsel). Regions may merge their
    /// sorted `R1` runs and start sweeping probe chunks.
    SealR1,
    /// Coordinator → current region owner: pack the region's state and ship
    /// it to the routing table's (already updated) new owner.
    Migrate { region: u32 },
    /// Old owner → new owner: the packed state of a migrated region.
    Adopt {
        region: u32,
        state: Box<MigratedRegion>,
    },
    /// Coordinator → every reducer: the run is quiescent (mappers done, no
    /// data or migration state in flight) — flush, report, exit.
    Finish,
    /// The run was cancelled: discard all region state and exit.
    Abort,
}

/// A routed fragment: the tuples of one relation that one morsel sent to one
/// region.
#[derive(Debug)]
pub struct RegionBatch {
    pub region: u32,
    pub rel: Rel,
    /// Routing epoch observed when the owning reducer was resolved — the
    /// engine's per-region migration fence (see `reducer.rs`).
    pub epoch: u64,
    /// The fragment's tuples, in columnar layout end to end: gathered from
    /// the morsel's columns by the mapper, sorted and swept column-wise by
    /// the reducer.
    pub tuples: ColumnBatch,
}

/// The shipped state of one migrated region: the sealed, sorted build side,
/// any probe tuples buffered below a chunk, and the region's running
/// tallies. Produced by the old owner on [`Delivery::Migrate`], installed by
/// the new owner on [`Delivery::Adopt`].
#[derive(Debug, Default)]
pub struct MigratedRegion {
    pub build: ColumnBatch,
    pub pending: ColumnBatch,
    /// Descriptors of the region's spilled build runs: the files travel
    /// with the region (the per-query spill directory is shared by every
    /// reducer of the query, so paths stay valid across owners).
    pub spilled_build: Vec<SpillRun>,
    /// Descriptors of the region's spilled pre-seal probe runs.
    pub spilled_pending: Vec<SpillRun>,
    pub sealed: bool,
    pub input: u64,
    pub output: u64,
    pub checksum: u64,
}

impl MigratedRegion {
    /// Resident tuples shipped with this message. Spilled runs are
    /// descriptors only — they occupy disk, not queue memory, so they are
    /// deliberately excluded from both the queue weight and the engine's
    /// `in_flight` accounting.
    pub fn tuples(&self) -> u64 {
        (self.build.len() + self.pending.len()) as u64
    }
}

/// A reducer's bounded delivery queue. Multiple producers (mappers, and
/// reducers forwarding), one logical consumer (the owning reducer).
pub type BoundedQueue = Channel<Delivery>;

impl Weighted for Delivery {
    fn weight(&self) -> usize {
        match self {
            // An empty batch still occupies a queue slot's worth of space.
            Delivery::Batch(b) => b.tuples.len().max(1),
            // Shipped migration state is real resident memory in the queue.
            Delivery::Adopt { state, .. } => state.tuples() as usize,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::channel::Pop;
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::thread;

    /// A columnar batch of `n` identical tuples.
    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for _ in 0..n {
            b.push(1, 2);
        }
        b
    }

    #[test]
    fn fifo_order_and_backpressure() {
        let q = Arc::new(BoundedQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..50u32 {
                    q.push(Delivery::Batch(RegionBatch {
                        region: i,
                        rel: Rel::R1,
                        epoch: 0,
                        tuples: ColumnBatch::new(),
                    }));
                }
                q.push(Delivery::Finish);
            })
        };
        let mut next = 0u32;
        loop {
            match q.pop().expect("a delivery queue never closes") {
                Delivery::Batch(b) => {
                    assert_eq!(b.region, next, "FIFO violated");
                    next += 1;
                }
                Delivery::Finish => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(next, 50);
        producer.join().unwrap();
        // With capacity 2 and a fast producer, some blocking is all but
        // guaranteed; the accounting must at least be non-negative and
        // finite.
        assert!(q.blocked_secs() >= 0.0 && q.blocked_secs().is_finite());
    }

    #[test]
    fn control_messages_bypass_the_bound() {
        let q = BoundedQueue::new(1);
        q.push(Delivery::Batch(RegionBatch {
            region: 0,
            rel: Rel::R2,
            epoch: 0,
            tuples: ColumnBatch::new(),
        }));
        // A second data push would block; a control message must not.
        q.push(Delivery::Finish);
        assert!(matches!(q.pop(), Some(Delivery::Batch(_))));
        assert!(matches!(q.pop(), Some(Delivery::Finish)));
    }

    #[test]
    fn unbounded_push_skips_backpressure_but_keeps_accounting() {
        let q = BoundedQueue::new(1);
        for i in 0..5 {
            q.push_unbounded(Delivery::Batch(RegionBatch {
                region: i,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(3),
            }));
        }
        assert_eq!(q.used_tuples(), 15);
        for _ in 0..5 {
            assert!(matches!(q.pop(), Some(Delivery::Batch(_))));
        }
        assert_eq!(q.used_tuples(), 0);
    }

    #[test]
    fn try_push_bounces_at_capacity_and_try_pop_drains() {
        let q = BoundedQueue::new(4);
        let batch = |n: usize| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(n),
            })
        };
        assert!(q.try_push(batch(3), None).is_ok());
        // 3 + 3 > 4 with a non-empty queue: bounced, item handed back.
        let bounced = q.try_push(batch(3), None);
        assert!(matches!(bounced, Err(Delivery::Batch(ref b)) if b.tuples.len() == 3));
        // Control always passes; empty queue admits oversized batches.
        assert!(q.try_push(Delivery::SealR1, None).is_ok());
        assert!(matches!(q.try_pop(None), Pop::Item(_)));
        assert!(matches!(q.try_pop(None), Pop::Item(_)));
        assert!(matches!(q.try_pop(None), Pop::Empty));
        assert!(q.try_push(batch(99), None).is_ok(), "oversized on empty");
        q.note_blocked(5_000_000);
        assert!(q.blocked_secs() >= 0.005);
    }

    #[test]
    fn parked_producers_and_consumers_are_woken_by_the_opposite_side() {
        use super::super::runtime::{EngineRuntime, Poll};
        let rt = EngineRuntime::new(2);
        let q = BoundedQueue::new(2);
        let batch = |n: usize| {
            Delivery::Batch(RegionBatch {
                region: 0,
                rel: Rel::R2,
                epoch: 0,
                tuples: cols(n),
            })
        };
        // Fill the queue so the producer task must park, then have a
        // consumer task drain everything; both sides finish only if the
        // cross wakes (pop→producer, push→consumer) actually fire.
        assert!(q.try_push(batch(2), None).is_ok());
        let pushed = std::sync::atomic::AtomicUsize::new(0);
        let popped = std::sync::atomic::AtomicUsize::new(0);
        rt.scope(|s| {
            {
                let (q, pushed) = (&q, &pushed);
                let mut left = 3usize;
                s.spawn(move |cx| {
                    while left > 0 {
                        match q.try_push(batch(2), Some(cx.waker())) {
                            Ok(()) => {
                                left -= 1;
                                pushed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => return Poll::Pending,
                        }
                    }
                    Poll::Ready
                });
            }
            let (q, popped) = (&q, &popped);
            s.spawn(move |cx| match q.try_pop(Some(cx.waker())) {
                Pop::Item(_) => {
                    if popped.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
                        Poll::Ready
                    } else {
                        Poll::Yielded
                    }
                }
                Pop::Empty | Pop::Closed => Poll::Pending,
            });
        });
        assert_eq!(pushed.into_inner(), 3);
        assert_eq!(popped.into_inner(), 4);
    }

    #[test]
    fn adopt_messages_carry_their_tuple_weight() {
        let q = BoundedQueue::new(4);
        q.push_unbounded(Delivery::Adopt {
            region: 3,
            state: Box::new(MigratedRegion {
                build: cols(7),
                pending: cols(2),
                sealed: true,
                input: 9,
                ..Default::default()
            }),
        });
        assert_eq!(q.used_tuples(), 9);
        assert!(matches!(q.pop(), Some(Delivery::Adopt { .. })));
        assert_eq!(q.used_tuples(), 0);
    }
}
