//! Loom model tests for the shared scheduling state.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see `ci.sh`). With the
//! real `loom` crate these closures are re-executed under every schedulable
//! interleaving; with the vendored stub they run once as a plain
//! concurrency smoke test. Either way they pin down the invariants the
//! executors rely on:
//!
//! * [`PendingTable::deliver`] hands a task to **exactly one** caller
//!   when the deliveries of its input flows race for its entry, with
//!   every slot filled and every box accounted for.
//! * [`ReadyQueue`] conserves tasks: everything pushed is popped exactly
//!   once, under every [`SchedulerPolicy`].
//! * [`StealDeque`] conserves tasks between the owner's bottom end and a
//!   concurrent thief: every push is claimed exactly once, by exactly one
//!   side.
//! * [`Parker`]'s sleeper-gated notify loses no wake-up: one push racing
//!   one park always ends with the consumer holding the task, without
//!   waiting out its timeout — also when the push is a cross-lane release
//!   into the parking lane's inbox ([`NodeQueues`]).

use crate::deque::{Steal, StealDeque};
use crate::dispatch::{NodeQueues, Parker, WorkerRng};
use crate::pending::{PendingTable, ReadyTask, SpareTasks};
use crate::ready_queue::ReadyQueue;
use crate::scheduler::SchedulerPolicy;
use crate::task::testutil::{prioritized, ExplicitDag};
use crate::task::{FlowData, TaskGraph, TaskKey};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::HashMap;

fn two_input_graph() -> TaskGraph {
    let mut g = TaskGraph::new();
    g.add_class(std::sync::Arc::new(ExplicitDag {
        name: "t".into(),
        bound: [2, 1, 1, 1],
        edges: HashMap::new(),
        indeg: [(1, 2)].into_iter().collect(),
        node: HashMap::new(),
        cost: 0.0,
        bytes: 8,
    }));
    g
}

#[test]
fn racing_deliveries_fire_their_consumer_exactly_once() {
    loom::model(|| {
        let graph = std::sync::Arc::new(two_input_graph());
        let table = Arc::new(PendingTable::new(&graph));
        let consumer = TaskKey::new(0, [1, 0, 0, 0]);

        // Two threads, each with one spare box, deliver the consumer's two
        // flows: both race the claim CAS on its still-empty entry, and
        // whichever arrives first installs its box.
        let handles: Vec<_> = (0..2usize)
            .map(|slot| {
                let table = Arc::clone(&table);
                let graph = std::sync::Arc::clone(&graph);
                thread::spawn(move || {
                    let mut spares = SpareTasks::new();
                    spares.recycle(Box::new(ReadyTask {
                        key: consumer,
                        inputs: Vec::new(),
                    }));
                    let ready =
                        table.deliver(&graph, consumer, slot, FlowData::sized(8), &mut spares);
                    (ready, spares.len())
                })
            })
            .collect();

        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let fired: Vec<&ReadyTask> = outcomes.iter().filter_map(|(r, _)| r.as_deref()).collect();
        assert_eq!(
            fired.len(),
            1,
            "exactly one deliverer must receive the task"
        );
        assert_eq!(fired[0].key, consumer);
        assert!(
            fired[0].inputs.iter().all(Option::is_some),
            "both slots filled"
        );
        let spare: usize = outcomes.iter().map(|&(_, n)| n).sum();
        assert_eq!(spare, 1, "one box became the task, the other stayed spare");
        assert!(table.is_empty(), "fired task must leave the table");
    });
}

#[test]
fn ready_queue_conserves_tasks_under_concurrent_pushes() {
    loom::model(|| {
        // Give the producers' keys distinct priorities, so the priority
        // policy exercises its heap path.
        let graph = prioritized(&[(0, 0), (1, 1)]);
        for policy in [
            SchedulerPolicy::Fifo,
            SchedulerPolicy::Lifo,
            SchedulerPolicy::Priority,
        ] {
            let queue = Arc::new(Mutex::new(ReadyQueue::new(
                policy,
                std::sync::Arc::clone(&graph),
            )));
            let handles: Vec<_> = (0..2i32)
                .map(|producer| {
                    let queue = Arc::clone(&queue);
                    thread::spawn(move || {
                        for i in 0..2i32 {
                            let task = Box::new(ReadyTask {
                                key: TaskKey::new(0, [producer, i, 0, 0]),
                                inputs: Vec::new(),
                            });
                            queue.lock().unwrap().push(task);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            let mut queue = queue.lock().unwrap();
            assert_eq!(queue.len(), 4);
            let mut seen: Vec<[i32; 4]> = Vec::new();
            while let Some(t) = queue.pop() {
                seen.push(t.key.params);
            }
            assert!(queue.is_empty());
            seen.sort();
            let mut expect: Vec<[i32; 4]> = (0..2)
                .flat_map(|p| (0..2).map(move |i| [p, i, 0, 0]))
                .collect();
            expect.sort();
            assert_eq!(seen, expect, "every pushed task pops exactly once");
        }
    });
}

#[test]
fn deque_conserves_elements_between_owner_and_thief() {
    // Kept deliberately tiny (2 elements, 1 thief) so the real loom can
    // enumerate every interleaving of the push/pop/steal orderings —
    // including the single-element race where the owner's `pop` and the
    // thief's `steal` CAS-duel over `top`.
    loom::model(|| {
        let d = Arc::new(StealDeque::with_capacity(4));
        for i in 0..2u64 {
            d.push(Box::new(i)).unwrap();
        }

        let thief = {
            let d = Arc::clone(&d);
            thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..2 {
                    match d.steal() {
                        Steal::Success(v) => got.push(*v),
                        Steal::Retry | Steal::Empty => {}
                    }
                }
                got
            })
        };

        let mut owner_got = Vec::new();
        while let Some(v) = d.pop() {
            owner_got.push(*v);
        }
        let mut all = thief.join().unwrap();
        all.extend(owner_got);
        // Drain stragglers the thief's bounded attempts left behind.
        while let Some(v) = d.pop() {
            all.push(*v);
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1], "each element claimed exactly once");
    });
}

#[test]
fn one_push_racing_one_park_loses_no_wakeup() {
    // The producer publishes a task and runs its half of the handshake
    // (fence, read the sleeper count, notify only if somebody is parked);
    // the consumer parks whenever the deque looks empty. If the notify
    // could fall between the consumer's emptiness check and its wait, the
    // consumer would sit out the whole timeout: under real loom that
    // interleaving blocks the model, under the stub it trips the clock.
    loom::model(|| {
        const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
        let deque = Arc::new(StealDeque::with_capacity(2));
        let parker = Arc::new(Parker::new());
        let start = std::time::Instant::now();

        let consumer = {
            let deque = Arc::clone(&deque);
            let parker = Arc::clone(&parker);
            thread::spawn(move || loop {
                match deque.steal() {
                    Steal::Success(v) => return *v,
                    Steal::Retry => {}
                    Steal::Empty => parker.park(TIMEOUT, || !deque.is_empty()),
                }
            })
        };

        deque.push(Box::new(7u64)).unwrap();
        parker.unpark_one();

        assert_eq!(consumer.join().unwrap(), 7);
        assert!(start.elapsed() < TIMEOUT, "the park slept through a push");
    });
}

#[test]
fn cross_lane_push_racing_the_home_lanes_park_loses_no_wakeup() {
    // Lane 0 releases a task whose home is lane 1: it lands in lane 1's
    // inbox, not in a queue lane 0 owns. Lane 1, with nothing queued,
    // parks whenever its sweep comes up empty. The park's re-check must
    // count the inbox, and the push must see the sleeper, or lane 1 sits
    // out its whole timeout.
    loom::model(|| {
        const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
        let queues = Arc::new(NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 2));
        let start = std::time::Instant::now();

        let home = {
            let queues = Arc::clone(&queues);
            thread::spawn(move || {
                let mut rng = WorkerRng::new(1, 1);
                loop {
                    if let Some(t) = queues.next_task(1, &mut rng) {
                        return t.key.params[0];
                    }
                    queues.park(TIMEOUT, || false);
                }
            })
        };

        // `testutil::Prioritized` homes task `[_, h, ..]` on lane `h - 1`.
        queues.push_released(
            0,
            Box::new(ReadyTask {
                key: TaskKey::new(0, [7, 2, 0, 0]),
                inputs: Vec::new(),
            }),
        );

        assert_eq!(home.join().unwrap(), 7);
        assert!(start.elapsed() < TIMEOUT, "the park slept through a push");
        assert_eq!(queues.totals().steals, 0, "the task was lane 1's own");
    });
}
