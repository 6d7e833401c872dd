//! The event loop: a typed, deterministic discrete-event engine.
//!
//! A simulation is a [`Model`] (your state) plus an [`Engine`] that owns the
//! pending-event queue and the virtual clock. The model handles one event at
//! a time and schedules future events through the [`Scheduler`] handle it is
//! given. Events at equal timestamps are delivered in the order they were
//! scheduled (a monotone sequence number breaks ties), so a given model and
//! input always replays identically.

use crate::time::{VirtualDuration, VirtualTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation state machine: holds the model-specific state and reacts to
/// its own event type.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle `event` occurring at `now`, scheduling any follow-up events
    /// on `sched`.
    fn handle(&mut self, now: VirtualTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Low bits of a queue key that name the event's slot. The sequence
/// number sits in the 40 bits above them and the timestamp in the upper
/// 64, so keys order by `(time, sequence)` and the slot never decides.
const SLOT_BITS: u32 = 24;

/// Handle through which a [`Model`] schedules future events.
///
/// Separated from [`Engine`] so that `Model::handle` can borrow the model
/// mutably while still enqueueing events.
pub struct Scheduler<E> {
    now: VirtualTime,
    /// Pending events as packed `(time, sequence, slot)` keys, earliest
    /// first. The payloads live in `events`, so the heap sifts 16-byte
    /// keys whatever the size of `E`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Event payloads by slot; `free` lists the empty slots for reuse.
    events: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    events_processed: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: VirtualTime::ZERO,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
            events_processed: 0,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: VirtualDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time. Panics if `at` is in the past —
    /// a model that rewinds the clock is a bug, not a recoverable state.
    pub fn schedule_at(&mut self, at: VirtualTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at}, now={now}",
            at = at,
            now = self.now
        );
        assert!(
            self.seq < 1 << (64 - SLOT_BITS),
            "event sequence numbers exhausted"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.events.len() as u32;
                assert!(slot < 1 << SLOT_BITS, "more than 2^24 pending events");
                self.events.push(Some(event));
                slot
            }
        };
        let tie = self.seq << SLOT_BITS | u64::from(slot);
        self.seq += 1;
        self.heap
            .push(Reverse(u128::from(at.as_nanos()) << 64 | u128::from(tie)));
    }

    /// Schedule `event` to fire immediately (at the current time, after any
    /// events already queued for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let at = VirtualTime((key >> 64) as u64);
        let slot = (key as u32) & ((1 << SLOT_BITS) - 1);
        debug_assert!(at >= self.now, "event heap yielded a past event");
        self.now = at;
        self.events_processed += 1;
        self.free.push(slot);
        let event = self.events[slot as usize].take();
        Some((at, event.expect("a queued key names a filled slot")))
    }
}

/// The simulation driver: owns a model and its scheduler.
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
}

impl<M: Model> Engine<M> {
    /// Create an engine around `model` with an empty event queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Seed the queue with an initial event at time zero.
    pub fn prime(&mut self, event: M::Event) {
        self.sched.schedule_at(VirtualTime::ZERO, event);
    }

    /// Seed the queue with an initial event at an arbitrary time.
    pub fn prime_at(&mut self, at: VirtualTime, event: M::Event) {
        self.sched.schedule_at(at, event);
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sched.now()
    }

    /// Deliver the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, event)) => {
                self.model.handle(at, event, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> VirtualTime {
        while self.step() {}
        self.now()
    }

    /// Consume the engine, returning the model (for result extraction).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Total number of events delivered.
    pub fn events_processed(&self) -> u64 {
        self.sched.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records (time, tag) pairs in delivery order.
    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    enum Ev {
        Tag(u32),
        Chain { tag: u32, next_in: u64, count: u32 },
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: VirtualTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(t) => self.log.push((now.as_nanos(), t)),
                Ev::Chain {
                    tag,
                    next_in,
                    count,
                } => {
                    self.log.push((now.as_nanos(), tag));
                    if count > 0 {
                        sched.schedule_in(
                            VirtualDuration::from_nanos(next_in),
                            Ev::Chain {
                                tag: tag + 1,
                                next_in,
                                count: count - 1,
                            },
                        );
                    }
                }
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { log: Vec::new() })
    }

    #[test]
    fn delivers_in_time_order() {
        let mut e = engine();
        e.prime_at(VirtualTime(30), Ev::Tag(3));
        e.prime_at(VirtualTime(10), Ev::Tag(1));
        e.prime_at(VirtualTime(20), Ev::Tag(2));
        e.run();
        assert_eq!(e.model().log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn equal_times_delivered_fifo() {
        let mut e = engine();
        for i in 0..100 {
            e.prime_at(VirtualTime(5), Ev::Tag(i));
        }
        e.run();
        let tags: Vec<u32> = e.model().log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut e = engine();
        e.prime(Ev::Chain {
            tag: 0,
            next_in: 7,
            count: 4,
        });
        let end = e.run();
        assert_eq!(end.as_nanos(), 28);
        assert_eq!(e.model().log.len(), 5);
        assert_eq!(e.events_processed(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        enum BadEv {
            Go,
        }
        impl Model for Bad {
            type Event = BadEv;
            fn handle(&mut self, _: VirtualTime, _: BadEv, sched: &mut Scheduler<BadEv>) {
                sched.schedule_at(VirtualTime::ZERO, BadEv::Go);
            }
        }
        let mut e = Engine::new(Bad);
        e.prime_at(VirtualTime(10), BadEv::Go);
        e.run();
    }

    #[test]
    fn schedule_now_runs_after_current_instant_queue() {
        struct M {
            order: Vec<u32>,
        }
        enum E2 {
            First,
            Second,
            Injected,
        }
        impl Model for M {
            type Event = E2;
            fn handle(&mut self, _: VirtualTime, ev: E2, sched: &mut Scheduler<E2>) {
                match ev {
                    E2::First => {
                        self.order.push(1);
                        sched.schedule_now(E2::Injected);
                    }
                    E2::Second => self.order.push(2),
                    E2::Injected => self.order.push(3),
                }
            }
        }
        let mut e = Engine::new(M { order: vec![] });
        e.prime(E2::First);
        e.prime(E2::Second);
        e.run();
        // Injected was scheduled at the same instant but after Second.
        assert_eq!(e.model().order, vec![1, 2, 3]);
    }

    #[test]
    fn reused_slots_keep_fifo_ties() {
        // `Early` frees slot 0 and its follow-up reuses it, tying at t=10
        // with `Late`, which was scheduled first and holds slot 1.
        struct M {
            order: Vec<u32>,
        }
        enum E3 {
            Early,
            Late,
            FollowUp,
        }
        impl Model for M {
            type Event = E3;
            fn handle(&mut self, _: VirtualTime, ev: E3, sched: &mut Scheduler<E3>) {
                match ev {
                    E3::Early => sched.schedule_at(VirtualTime(10), E3::FollowUp),
                    E3::Late => self.order.push(1),
                    E3::FollowUp => self.order.push(2),
                }
            }
        }
        let mut e = Engine::new(M { order: vec![] });
        e.prime_at(VirtualTime(5), E3::Early);
        e.prime_at(VirtualTime(10), E3::Late);
        e.run();
        assert_eq!(e.model().order, vec![1, 2]);
    }

    #[test]
    fn empty_engine_runs_to_zero() {
        let mut e = engine();
        assert_eq!(e.run(), VirtualTime::ZERO);
        assert!(!e.step());
    }
}
