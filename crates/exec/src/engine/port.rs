//! The `FragmentPort` trait: the delivery surface mapper, reducer, and
//! coordinator code speak, so they never name a concrete carrier.
//!
//! Two carriers implement it:
//!
//! * [`BoundedQueue`] — the in-process mapper→reducer [`Channel`].
//! * [`RemoteQueue`](super::RemoteQueue) — the same contract carried over
//!   a framed byte stream, with a credit window standing in for the
//!   shared-memory bound (see [`super::transport`]).
//!
//! Both admit by the one [`admits`](super::channel::admits) rule, and a
//! delivery port's lifecycle is in-band (`Finish` / `Abort`),
//! so its pop never reports an end of stream: `None` only means "empty
//! for now". A bounced push hands the item back untouched, and a failed
//! try with a waker registered it *under the same lock* as the attempt,
//! so the freeing transition can never race past unobserved.

use super::channel::{Channel, Pop};
use super::queue::{BoundedQueue, Delivery};
use super::runtime::Waker;

/// A bounded MPMC delivery channel: the engine's abstraction over local
/// queues and framed network links.
pub trait FragmentPort: Send + Sync {
    /// Non-blocking bounded push; hands the item back when at capacity.
    /// With a `waker`, a bounce also registers it to be woken by the next
    /// freeing transition — `Err` then means "parked: return `Pending`".
    fn try_push(&self, item: Delivery, waker: Option<&Waker>) -> Result<(), Delivery>;

    /// Non-blocking push that bypasses the capacity bound (weight still
    /// accounted) — for control traffic and reducer→reducer forwarding
    /// where blocking could form a waiting cycle.
    fn push_unbounded(&self, item: Delivery);

    /// Non-blocking pop. With a `waker`, an empty port also registers it to
    /// be woken by the next push — `None` then means "parked: return
    /// `Pending`".
    fn try_pop(&self, waker: Option<&Waker>) -> Option<Delivery>;

    /// Tuples currently occupying the port — the queue-depth heartbeat the
    /// migration coordinator reads when hunting for stragglers. For a
    /// remote port this includes tuples in flight on the wire (sent but
    /// not yet credited back), so backpressure accounting stays
    /// end-to-end.
    fn used_tuples(&self) -> usize;

    /// Charges producer-side blocked time observed outside the port.
    fn note_blocked(&self, nanos: u64);

    /// Total time producers spent blocked on this port.
    fn blocked_secs(&self) -> f64;
}

impl FragmentPort for BoundedQueue {
    fn try_push(&self, item: Delivery, waker: Option<&Waker>) -> Result<(), Delivery> {
        Channel::try_push(self, item, waker)
    }

    fn push_unbounded(&self, item: Delivery) {
        Channel::push_unbounded(self, item);
    }

    fn try_pop(&self, waker: Option<&Waker>) -> Option<Delivery> {
        match Channel::try_pop(self, waker) {
            Pop::Item(item) => Some(item),
            Pop::Empty | Pop::Closed => None,
        }
    }

    fn used_tuples(&self) -> usize {
        Channel::used_tuples(self)
    }

    fn note_blocked(&self, nanos: u64) {
        Channel::note_blocked(self, nanos);
    }

    fn blocked_secs(&self) -> f64 {
        Channel::blocked_secs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ewh_core::{ColumnBatch, Rel};

    fn cols(n: usize) -> ColumnBatch {
        let mut b = ColumnBatch::with_capacity(n);
        for i in 0..n {
            b.push(i as i64, i as u64);
        }
        b
    }

    fn delivery(n: usize) -> Delivery {
        Delivery::Batch(super::super::queue::RegionBatch {
            region: 0,
            rel: Rel::R2,
            epoch: 0,
            tuples: cols(n),
        })
    }

    #[test]
    fn the_port_surface_matches_the_queue_semantics() {
        let q = BoundedQueue::new(4);
        let port: &dyn FragmentPort = &q;
        assert!(port.try_push(delivery(3), None).is_ok());
        assert!(
            port.try_push(delivery(3), None).is_err(),
            "bounced at capacity"
        );
        port.push_unbounded(delivery(9));
        assert_eq!(port.used_tuples(), 12);
        assert!(port.try_pop(None).is_some());
        assert!(port.try_pop(None).is_some());
        assert!(port.try_pop(None).is_none(), "empty, never closed");
        port.note_blocked(2_000_000);
        assert!(port.blocked_secs() >= 0.002);
    }
}
