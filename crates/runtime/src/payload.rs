//! The per-thread free list behind [`FlowData`](crate::FlowData)
//! payloads: persistent halo buffers instead of one `Vec` + one `Arc`
//! allocation per strip per task.
//!
//! The contract, in full:
//!
//! * **What is recycled.** A whole `Arc<Vec<f64>>` — control block and
//!   buffer — so a recycled payload costs no allocation at all. A
//!   `FlowData` hands its payload back when it is dropped as the payload's
//!   *unique* owner (`Arc::get_mut` succeeds);
//!   [`FlowData::filled`](crate::FlowData::filled) takes one out. Both
//!   happen on the calling thread's own list, without locks: the consumer
//!   of a strip drops it on the worker that runs the consumer, and that
//!   worker's next extract reuses it.
//! * **No aliasing.** A payload that any live clone can still read is not
//!   unique, so it is never put on the list; uniqueness is checked again
//!   when a buffer is taken out.
//! * **Bounded.** A thread's list never holds more than
//!   [`POOL_MAX_BYTES`] of buffer capacity; a payload that would exceed
//!   the bound is freed instead. The list dies with its thread, so a run's
//!   worker threads leave nothing behind.
//! * **Bucketed by capacity.** Bucket `k` holds buffers with capacity in
//!   `[2^k, 2^(k+1))`, and a request for `len` values is served from
//!   bucket `⌈log2 len⌉` only — every buffer there is large enough, and a
//!   corner-sized request can never pin a strip-sized buffer. Fresh
//!   buffers are allocated at the bucket's power-of-two capacity.

use std::cell::RefCell;
use std::sync::Arc;

/// Most buffer capacity, in bytes, one thread's free list may hold.
pub const POOL_MAX_BYTES: usize = 1 << 20;

/// Buckets `0..BUCKETS`: capacities up to `2^BUCKETS − 1` values are
/// pooled, larger payloads are always freed.
const BUCKETS: usize = 32;

type Payload = Arc<Vec<f64>>;

struct Pool {
    buckets: [Vec<Payload>; BUCKETS],
    bytes: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            buckets: [const { Vec::new() }; BUCKETS],
            bytes: 0,
        })
    };
}

fn capacity_bytes(payload: &Payload) -> usize {
    payload.capacity() * std::mem::size_of::<f64>()
}

/// A uniquely owned payload with room for `len` values: recycled when the
/// calling thread's list has one of the right size class, fresh otherwise.
/// Its contents are unspecified; the caller clears and fills it.
pub(crate) fn take(len: usize) -> Payload {
    let bucket = len.max(1).next_power_of_two().trailing_zeros() as usize;
    let recycled = POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            let payload = pool.buckets.get_mut(bucket)?.pop()?;
            pool.bytes -= capacity_bytes(&payload);
            Some(payload)
        })
        .ok()
        .flatten();
    recycled.unwrap_or_else(|| Arc::new(Vec::with_capacity(1 << bucket)))
}

/// Return a uniquely owned payload to the calling thread's list, or free
/// it when the list is at its bound (or the thread is shutting down).
pub(crate) fn give_back(payload: Payload) {
    let capacity = payload.capacity();
    if capacity == 0 {
        return;
    }
    let bucket = capacity.ilog2() as usize;
    let bytes = capacity_bytes(&payload);
    // `try_with` hands the payload back when the thread-local is already
    // destroyed; dropping it then frees it the ordinary way.
    let _ = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        if bucket < BUCKETS && pool.bytes + bytes <= POOL_MAX_BYTES {
            pool.bytes += bytes;
            pool.buckets[bucket].push(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowData;

    /// Buffer capacity, in bytes, held by the calling thread's free list.
    fn pooled_bytes() -> usize {
        POOL.with(|pool| pool.borrow().bytes)
    }

    fn ptr(flow: &FlowData) -> *const f64 {
        flow.expect_values().as_ptr()
    }

    #[test]
    fn a_dropped_unique_payload_is_the_next_one_taken() {
        let first = FlowData::filled(100, |v| v.extend((0..100).map(f64::from)));
        let addr = ptr(&first);
        drop(first);
        let second = FlowData::filled(100, |v| v.push(7.0));
        assert_eq!(ptr(&second), addr, "same buffer, recycled");
        assert_eq!(second.expect_values(), &[7.0], "handed over empty");
        assert_eq!(second.bytes, 8);
    }

    #[test]
    fn a_payload_with_a_live_clone_is_not_recycled() {
        let a = FlowData::filled(16, |v| v.extend([1.0, 2.0, 3.0]));
        let b = a.clone();
        let addr = ptr(&a);
        drop(a);
        let fresh = FlowData::filled(16, |v| v.push(9.0));
        assert_ne!(ptr(&fresh), addr, "the clone still reads that buffer");
        assert_eq!(b.expect_values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_small_request_never_takes_a_larger_buffer() {
        let strip = FlowData::filled(512, |v| v.push(1.0));
        let addr = ptr(&strip);
        drop(strip);
        let corner = FlowData::filled(25, |v| v.push(2.0));
        assert_ne!(ptr(&corner), addr);
        let again = FlowData::filled(400, |v| v.push(3.0));
        assert_eq!(ptr(&again), addr, "same size class reuses it");
    }

    #[test]
    fn the_list_is_bounded_in_bytes() {
        // 3 MB of unique payloads dropped on this thread: the list keeps
        // at most its bound and frees the rest.
        let flows: Vec<FlowData> = (0..96)
            .map(|_| FlowData::filled(4096, |v| v.push(0.0)))
            .collect();
        drop(flows);
        assert!(pooled_bytes() <= POOL_MAX_BYTES, "{}", pooled_bytes());
        assert!(pooled_bytes() >= POOL_MAX_BYTES / 2, "{}", pooled_bytes());
    }

    #[test]
    fn recycling_never_aliases_a_surviving_clone() {
        // Each round: one clone of a payload crosses to another thread,
        // which drops it while it keeps producing payloads of the same
        // size class itself; this thread does the same around its own
        // clone. Whichever drop comes last may recycle the buffer, but
        // nobody may be handed it while the survivor still reads it.
        const LEN: usize = 64;
        let pattern = |round: usize| move |v: &mut Vec<f64>| v.resize(LEN, round as f64);
        let (to_peer, from_main) = std::sync::mpsc::channel::<FlowData>();
        let (to_main, from_peer) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for clone in from_main {
                    let noise = FlowData::filled(LEN, |v| v.resize(LEN, -1.0));
                    drop(clone);
                    let more = FlowData::filled(LEN, |v| v.resize(LEN, -2.0));
                    drop((noise, more));
                    to_main.send(()).unwrap();
                }
            });
            for round in 0..2_000 {
                let survivor = FlowData::filled(LEN, pattern(round));
                to_peer.send(survivor.clone()).unwrap();
                let noise: Vec<FlowData> = (0..4)
                    .map(|_| FlowData::filled(LEN, |v| v.resize(LEN, -3.0)))
                    .collect();
                assert!(
                    survivor.expect_values().iter().all(|&x| x == round as f64),
                    "round {round}: the survivor's buffer was handed out again"
                );
                drop(noise);
                from_peer.recv().unwrap();
                assert!(survivor.expect_values().iter().all(|&x| x == round as f64));
            }
            drop(to_peer);
        });
    }

    #[test]
    fn caller_supplied_vectors_join_the_list_by_capacity() {
        let v = Vec::with_capacity(100);
        let addr = v.as_ptr();
        drop(FlowData::values(v));
        // capacity 100 sits in bucket 6 (64..128): a 64-value request fits
        let reused = FlowData::filled(64, |v| v.push(1.0));
        assert_eq!(ptr(&reused), addr);
        drop(FlowData::values(Vec::new())); // zero capacity: nothing to pool
    }
}
