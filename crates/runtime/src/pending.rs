//! Activation counting: the dynamic DAG-unfolding bookkeeping every
//! engine shares.
//!
//! A task is *pending* from the moment its first input flow arrives until
//! all of its inputs have arrived, at which point it becomes *ready* and
//! leaves the table. This mirrors PaRSEC's activation counters: a task's
//! counter is found from its parameters ([`TaskGraph::slot`]), never by
//! hashing, and no graph is ever built.
//!
//! [`PendingTable`] is one dense table per run with an entry per slot of
//! the program's [`TaskGraph`]: a `u32` count of the flows that arrived
//! and a pointer to the task's box while it waits. Its memory is therefore
//! 12 bytes per task of the program, fixed when the run starts — 0.8 MB
//! for 64 × 64 tiles × 16 iterates, 7.8 MB at the paper's 100-sweep
//! Figure 8 size — where a hash table keyed by task grew with the
//! wavefront. The threaded engine's workers and comm threads share one
//! table; the simulator uses the same table on its one thread.
//!
//! A [`ReadyTask`] is born boxed and stays in its box: the table fills the
//! box's input slots in place, the ready queues and deques pass the box
//! along, and once the task has run the executor hands the box (and its
//! slot vector) back through [`SpareTasks`] for the next pending task —
//! so steady-state activation counting allocates nothing.

use crate::task::{FlowData, TaskGraph, TaskKey};
#[cfg(loom)]
use loom::{
    sync::atomic::{AtomicPtr, AtomicU32, Ordering},
    thread::yield_now,
};
use std::ptr;
#[cfg(not(loom))]
use std::{
    sync::atomic::{AtomicPtr, AtomicU32, Ordering},
    thread::yield_now,
};

/// A task whose inputs are all present, ready for dispatch.
///
/// Invariant: `inputs.len()` equals the class's declared
/// `num_input_slots`, and — when produced by [`PendingTable::deliver`] —
/// every slot a producer references is `Some` (root tasks keep their
/// declared slots all-`None`).
pub struct ReadyTask {
    /// The task.
    pub key: TaskKey,
    /// Input slots, indexed as the producers' [`crate::task::OutputDep::slot`]s.
    pub inputs: Vec<Option<FlowData>>,
}

impl std::fmt::Debug for ReadyTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReadyTask({:?}, {} inputs)", self.key, self.inputs.len())
    }
}

/// Boxes of tasks that have already run, kept by their executor for the
/// next pending tasks: [`PendingTable::deliver`] takes one (box and slot
/// vector) whenever a task's first flow arrives, instead of allocating.
/// Bounded — a worker that retires more tasks than it discovers frees the
/// excess.
#[derive(Default)]
// The boxes are the point: it is the heap allocation that gets reused.
#[allow(clippy::vec_box)]
pub struct SpareTasks(Vec<Box<ReadyTask>>);

impl SpareTasks {
    /// Most boxes kept; beyond this, retired tasks are simply freed.
    const MAX: usize = 64;

    /// No spares yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retire a task that has run: whatever inputs its body left behind
    /// are dropped here, the box is kept for reuse.
    pub fn recycle(&mut self, mut task: Box<ReadyTask>) {
        task.inputs.clear();
        if self.0.len() < Self::MAX {
            self.0.push(task);
        }
    }

    /// A task for `key` with `slots` empty input slots.
    fn fresh(&mut self, key: TaskKey, slots: usize) -> Box<ReadyTask> {
        let mut task = self.0.pop().unwrap_or_else(|| {
            Box::new(ReadyTask {
                key,
                inputs: Vec::new(),
            })
        });
        task.key = key;
        task.inputs.resize_with(slots, || None);
        task
    }

    /// Boxes kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

/// The box pointer of an entry some deliverer has claimed.
const CLAIMED: *mut ReadyTask = ptr::dangling_mut();

/// The activation table: one entry per slot of the program's
/// [`TaskGraph`], shared by every thread that delivers flows.
///
/// An entry's box pointer doubles as its lock. A delivery of one flow
/// into `consumer`'s input `slot`:
///
/// 1. *claims* the consumer's entry, swapping its pointer — null before
///    the first arrival, the parked box after — for a claimed mark by
///    CAS; a delivery that finds the mark spins until it is released;
/// 2. on the first arrival, takes a box from the deliverer's
///    [`SpareTasks`]; later arrivals use the parked one;
/// 3. fills its own input slot and counts itself;
/// 4. *releases* the entry: parks the box again — or, on the delivery
///    that brought the count to the activation count, leaves the entry
///    empty and returns the box ready.
///
/// Invariants:
///
/// * **one entry per task** — [`TaskGraph::slot`] maps the task to it,
///   and panics on a task outside its class's parameter box;
/// * **exactly once** — the count changes only under the claim, so
///   exactly one delivery sees it reach the activation count;
/// * **loud failure** — an out-of-range slot, a slot delivered twice, a
///   flow beyond the activation count and a flow into a zero-input task
///   panic, and the claim is released on the way out. Every check runs
///   while the deliverer alone holds the box, so an inconsistent graph
///   can never make two threads write one box;
/// * **batch order** — [`PendingTable::deliver_batch`] releases ready
///   tasks, once the whole batch is counted, in the order the completing
///   task declared its outputs: the order the FIFO dispatch contract keys
///   on.
///
/// [`PendingTable::len`], [`PendingTable::is_empty`] and
/// [`PendingTable::waiting`] scan the whole table: the engines call them
/// at quiescence, at a stall, or when the live sampler ticks.
///
/// # Example
///
/// A two-input task becomes ready exactly when its second flow lands:
///
/// ```
/// use runtime::{DtdBuilder, FlowData, PendingTable, SpareTasks, TaskKey};
///
/// let mut b = DtdBuilder::new();
/// let a = b.insert(0, 0.0, &[]);
/// let c = b.insert(0, 0.0, &[]);
/// let _join = b.insert(0, 0.0, &[a, c]); // task 2, two input slots
/// let program = b.build();
///
/// let table = PendingTable::new(&program.graph);
/// let mut spares = SpareTasks::new();
/// let join = TaskKey::new(0, [2, 0, 0, 0]);
/// assert!(table
///     .deliver(&program.graph, join, 0, FlowData::sized(8), &mut spares)
///     .is_none());
/// let ready = table
///     .deliver(&program.graph, join, 1, FlowData::sized(8), &mut spares)
///     .expect("second flow completes the activation count");
/// assert_eq!(ready.key, join);
/// assert!(table.is_empty());
/// ```
pub struct PendingTable {
    /// Flows delivered so far, per slot.
    arrived: Box<[AtomicU32]>,
    /// Per slot: null until the task's first flow arrives, then its box
    /// (or [`CLAIMED`] while a delivery holds the entry), null again once
    /// the task fired.
    parked: Box<[AtomicPtr<ReadyTask>]>,
}

/// An entry one delivery has claimed, with the box it took out of it.
/// Dropping the claim releases the entry — parking the box again, or
/// leaving the entry empty once the box was taken — also when a check
/// panics, so a failed delivery never leaves its entry claimed.
struct Claim<'t> {
    entry: &'t AtomicPtr<ReadyTask>,
    task: Option<Box<ReadyTask>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let parked = self.task.take().map_or(ptr::null_mut(), Box::into_raw);
        // Release: the box's filled slots and the count are visible to
        // the next claim, which acquires this store.
        self.entry.store(parked, Ordering::Release);
    }
}

impl PendingTable {
    /// An empty table with one entry per slot of `graph`.
    pub fn new(graph: &TaskGraph) -> Self {
        let n = graph.num_slots() as usize;
        PendingTable {
            arrived: (0..n).map(|_| AtomicU32::new(0)).collect(),
            parked: (0..n).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
        }
    }

    /// Deliver one flow into `consumer`'s input `slot`. Returns the ready
    /// task when this was the last missing input. A consumer's first flow
    /// takes its box from `spares`.
    ///
    /// Panics if the consumer lies outside its class's parameter box,
    /// declares zero inputs, or already received all of them, or if the
    /// slot is out of range or already filled — each indicates an
    /// inconsistent task graph (see [`crate::unfold`]).
    pub fn deliver(
        &self,
        graph: &TaskGraph,
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        spares: &mut SpareTasks,
    ) -> Option<Box<ReadyTask>> {
        let class = graph.class(consumer.class);
        let need = class.activation_count(consumer.params);
        assert!(
            need > 0,
            "{consumer:?} received a flow but declares zero inputs"
        );
        let at = graph.slot(consumer) as usize;
        let mut claim = self.claim(at);
        // The count changes only under the claim; the claim's acquire
        // makes the previous holder's store visible.
        let arrived = self.arrived[at].load(Ordering::Relaxed) as usize + 1;
        assert!(
            arrived <= need,
            "{consumer:?}: flow {arrived} arrived but it declares {need} inputs"
        );
        let task = claim
            .task
            .get_or_insert_with(|| spares.fresh(consumer, class.num_input_slots(consumer.params)));
        let inputs = &mut task.inputs;
        assert!(
            slot < inputs.len(),
            "{consumer:?}: slot {slot} out of range ({} slots)",
            inputs.len()
        );
        assert!(
            inputs[slot].is_none(),
            "{consumer:?}: slot {slot} delivered twice"
        );
        inputs[slot] = Some(data);
        self.arrived[at].store(arrived as u32, Ordering::Relaxed);
        // Taking the box leaves the entry empty when the claim drops.
        (arrived == need).then(|| claim.task.take().expect("filled above"))
    }

    /// Deliver a completing task's whole output batch, draining `batch`,
    /// then hand the tasks it made ready to `on_ready` in batch order, all
    /// together: a wide fan-out is released in one burst, not one task
    /// per delivery.
    pub fn deliver_batch(
        &self,
        graph: &TaskGraph,
        batch: &mut DeliveryBatch,
        on_ready: impl FnMut(Box<ReadyTask>),
    ) {
        let DeliveryBatch {
            batch,
            ready,
            spares,
        } = batch;
        for d in batch.drain(..) {
            ready.extend(self.deliver(graph, d.consumer, d.slot, d.data, spares));
        }
        ready.drain(..).for_each(on_ready);
    }

    /// Make a root task (zero activation count) ready directly.
    pub fn root(graph: &TaskGraph, key: TaskKey) -> Box<ReadyTask> {
        let class = graph.class(key.class);
        assert_eq!(
            class.activation_count(key.params),
            0,
            "{key:?} is not a root (activation count nonzero)"
        );
        SpareTasks::new().fresh(key, class.num_input_slots(key.params))
    }

    /// Claim entry `at`, spinning while another delivery holds it (for a
    /// handful of stores; a holder that was descheduled is waited for by
    /// yielding).
    fn claim(&self, at: usize) -> Claim<'_> {
        let entry = &self.parked[at];
        let mut spins = 0u32;
        loop {
            let seen = entry.load(Ordering::Relaxed);
            if seen != CLAIMED
                && entry
                    .compare_exchange_weak(seen, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                let task = (!seen.is_null()).then(|| {
                    // SAFETY: a non-null, unclaimed entry holds a box that
                    // `Claim::drop` parked with `Box::into_raw`; the CAS
                    // replaced it by the claimed mark, so this delivery is
                    // the only one that can reach the box until its own
                    // claim drops, and the acquire makes the releasing
                    // claim's writes to it visible.
                    unsafe { Box::from_raw(seen) }
                });
                return Claim { entry, task };
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Slots holding a task that waits for more inputs.
    fn waiting_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(self.parked.iter())
            .filter(|(_, entry)| !entry.load(Ordering::Relaxed).is_null())
            .map(|(slot, _)| slot)
    }

    /// Number of tasks currently waiting for more inputs (a scan).
    pub fn len(&self) -> usize {
        self.waiting_slots().count()
    }

    /// True when no task is waiting (a scan).
    pub fn is_empty(&self) -> bool {
        self.waiting_slots().next().is_none()
    }

    /// Keys of the tasks waiting for more inputs, in slot order (a scan;
    /// the stall diagnostics and the per-node live gauge).
    pub fn waiting<'a>(&'a self, graph: &'a TaskGraph) -> impl Iterator<Item = TaskKey> + 'a {
        self.waiting_slots().map(|slot| graph.key_at(slot))
    }
}

impl Drop for PendingTable {
    fn drop(&mut self) {
        for entry in self.parked.iter() {
            let parked = entry.load(Ordering::Relaxed);
            if !parked.is_null() && parked != CLAIMED {
                // SAFETY: a non-null, unclaimed entry holds a box parked
                // with `Box::into_raw`, and `&mut self` rules out any
                // delivery still reaching it.
                drop(unsafe { Box::from_raw(parked) });
            }
        }
    }
}

/// One flow bound for a consumer's input slot — the unit of
/// [`PendingTable::deliver_batch`].
pub struct Delivery {
    /// The consuming task.
    pub consumer: TaskKey,
    /// Its input slot (the producer's [`crate::task::OutputDep::slot`]).
    pub slot: usize,
    /// The flow payload.
    pub data: FlowData,
}

/// One worker's reusable delivery state: the batch being assembled for
/// [`PendingTable::deliver_batch`], the tasks it made ready, and the
/// worker's [`SpareTasks`]. Everything keeps its capacity from one task to
/// the next.
#[derive(Default)]
pub struct DeliveryBatch {
    batch: Vec<Delivery>,
    // The boxes move on to the ready queues as they are.
    #[allow(clippy::vec_box)]
    ready: Vec<Box<ReadyTask>>,
    spares: SpareTasks,
}

impl DeliveryBatch {
    /// Empty batch, no spares.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one delivery to the batch.
    pub fn push(&mut self, delivery: Delivery) {
        self.batch.push(delivery);
    }

    /// True when the batch holds no delivery.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Hand a task that has run back for reuse (see [`SpareTasks`]).
    pub fn recycle(&mut self, task: Box<ReadyTask>) {
        self.spares.recycle(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::ExplicitDag;
    use rand::{Rng, StdRng};
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn graph_with_indeg(indeg: &[(i32, usize)]) -> TaskGraph {
        let tasks = indeg.iter().map(|&(i, _)| i as u32 + 1).max().unwrap_or(0);
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
            bound: [tasks, 1, 1, 1],
            edges: Map::new(),
            indeg: indeg.iter().copied().collect(),
            node: Map::new(),
            cost: 0.0,
            bytes: 8,
        }));
        g
    }

    fn key(i: i32) -> TaskKey {
        TaskKey::new(0, [i, 0, 0, 0])
    }

    /// `PendingTable::deliver` of a sized flow, with no spares to reuse.
    fn deliver(t: &PendingTable, g: &TaskGraph, i: i32, slot: usize) -> Option<Box<ReadyTask>> {
        t.deliver(g, key(i), slot, FlowData::sized(8), &mut SpareTasks::new())
    }

    /// Deliver `flows` (consumer index, slot) as one batch; the keys that
    /// became ready, each with every slot filled, in release order.
    fn deliver_all(
        t: &PendingTable,
        g: &TaskGraph,
        batch: &mut DeliveryBatch,
        flows: &[(i32, usize)],
    ) -> Vec<i32> {
        for &(consumer, slot) in flows {
            batch.push(Delivery {
                consumer: key(consumer),
                slot,
                data: FlowData::sized(8),
            });
        }
        let mut order = Vec::new();
        t.deliver_batch(g, batch, |r| {
            assert!(r.inputs.iter().all(Option::is_some), "{r:?} fired early");
            order.push(r.key.params[0]);
        });
        assert!(batch.is_empty(), "delivery drains the batch");
        order
    }

    #[test]
    fn task_fires_when_all_inputs_arrive() {
        let g = graph_with_indeg(&[(1, 3)]);
        let t = PendingTable::new(&g);
        assert!(deliver(&t, &g, 1, 0).is_none());
        assert!(deliver(&t, &g, 1, 2).is_none());
        assert_eq!(t.len(), 1);
        let ready = deliver(&t, &g, 1, 1).unwrap();
        assert_eq!(ready.key, key(1));
        assert_eq!(ready.inputs.len(), 3);
        assert!(ready.inputs.iter().all(Option::is_some));
        assert!(t.is_empty());
    }

    #[test]
    fn single_input_task_fires_immediately() {
        let g = graph_with_indeg(&[(7, 1)]);
        let t = PendingTable::new(&g);
        assert!(deliver(&t, &g, 7, 0).is_some());
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_delivery_panics() {
        let g = graph_with_indeg(&[(1, 2)]);
        let t = PendingTable::new(&g);
        let _ = deliver(&t, &g, 1, 0);
        let _ = deliver(&t, &g, 1, 0);
    }

    #[test]
    #[should_panic(expected = "flow 2 arrived but it declares 1 inputs")]
    fn flow_after_firing_panics() {
        let g = graph_with_indeg(&[(1, 1)]);
        let t = PendingTable::new(&g);
        assert!(deliver(&t, &g, 1, 0).is_some());
        let _ = deliver(&t, &g, 1, 0);
    }

    #[test]
    fn a_failed_delivery_releases_its_claim() {
        let g = graph_with_indeg(&[(1, 2)]);
        let t = PendingTable::new(&g);
        assert!(deliver(&t, &g, 1, 0).is_none());
        let twice = std::panic::AssertUnwindSafe(|| deliver(&t, &g, 1, 0));
        assert!(std::panic::catch_unwind(twice).is_err());
        // The entry is usable again: the missing flow still completes it.
        assert!(deliver(&t, &g, 1, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "slot 5 out of range")]
    fn out_of_range_slot_panics() {
        let g = graph_with_indeg(&[(1, 2)]);
        let t = PendingTable::new(&g);
        let _ = deliver(&t, &g, 1, 5);
    }

    #[test]
    #[should_panic(expected = "zero inputs")]
    fn delivering_to_root_panics() {
        let g = graph_with_indeg(&[(1, 0)]);
        let t = PendingTable::new(&g);
        let _ = deliver(&t, &g, 1, 0);
    }

    #[test]
    fn root_constructs_ready_task() {
        let g = graph_with_indeg(&[(4, 0)]);
        let r = PendingTable::root(&g, key(4));
        assert_eq!(r.key, key(4));
        assert!(r.inputs.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a root")]
    fn root_on_dependent_task_panics() {
        let g = graph_with_indeg(&[(4, 2)]);
        let _ = PendingTable::root(&g, key(4));
    }

    #[test]
    fn stuck_tasks_reported() {
        let g = graph_with_indeg(&[(1, 2), (2, 2)]);
        let t = PendingTable::new(&g);
        let _ = deliver(&t, &g, 2, 0);
        let _ = deliver(&t, &g, 1, 0);
        let stuck: Vec<TaskKey> = t.waiting(&g).collect();
        assert_eq!(stuck, vec![key(1), key(2)], "slot order");
    }

    #[test]
    fn batch_delivery_fires_in_batch_order() {
        // Three single-input consumers: all become ready, in the order
        // the batch listed them, not in slot order.
        let g = graph_with_indeg(&[(1, 1), (2, 1), (3, 1)]);
        let t = PendingTable::new(&g);
        let mut batch = DeliveryBatch::new();
        let order = deliver_all(&t, &g, &mut batch, &[(2, 0), (1, 0), (3, 0)]);
        assert_eq!(order, vec![2, 1, 3]);
        assert!(t.is_empty());
    }

    #[test]
    fn retired_tasks_are_reused_for_the_next_pending_entry() {
        let g = graph_with_indeg(&[(1, 1), (2, 1)]);
        let t = PendingTable::new(&g);
        let mut batch = DeliveryBatch::new();
        let mut fired = Vec::new();
        batch.push(Delivery {
            consumer: key(1),
            slot: 0,
            data: FlowData::sized(8),
        });
        t.deliver_batch(&g, &mut batch, |r| fired.push(r));
        let first = fired.pop().expect("single-input task fires");
        let addr: *const ReadyTask = &*first;
        batch.recycle(first);
        assert_eq!(batch.spares.len(), 1);
        batch.push(Delivery {
            consumer: key(2),
            slot: 0,
            data: FlowData::sized(8),
        });
        t.deliver_batch(&g, &mut batch, |r| fired.push(r));
        let second = fired.pop().expect("single-input task fires");
        assert_eq!(second.key, key(2));
        assert!(std::ptr::eq(&*second, addr), "same box, new task");
        assert_eq!(second.inputs.len(), 1);
        assert!(second.inputs[0].is_some());
        assert_eq!(batch.spares.len(), 0);
    }

    #[test]
    fn partial_batches_leave_tasks_pending() {
        let g = graph_with_indeg(&[(1, 2)]);
        let t = PendingTable::new(&g);
        let mut batch = DeliveryBatch::new();
        assert!(deliver_all(&t, &g, &mut batch, &[(1, 0)]).is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.waiting(&g).collect::<Vec<_>>(), vec![key(1)]);
        let ready = deliver(&t, &g, 1, 1).unwrap();
        assert_eq!(ready.key, key(1));
        assert!(t.is_empty());
    }

    #[test]
    fn racing_deliveries_fire_every_consumer_exactly_once() {
        // Round r has one consumer with k inputs, task 10 r + k, for every
        // k in 1..=9. The round's 45 flows are shuffled (the same way on
        // every thread, seeded by the round) and dealt round-robin to four
        // threads that start the round together, so a consumer's flows
        // race from different threads in a different order every round.
        const THREADS: usize = 4;
        const ROUNDS: i32 = 10_000;
        let consumers: Vec<(i32, usize)> = (0..ROUNDS)
            .flat_map(|round| (1..=9).map(move |k| (10 * round + k as i32, k)))
            .collect();
        let g = graph_with_indeg(&consumers);
        let table = PendingTable::new(&g);
        let start = std::sync::Barrier::new(THREADS);
        let fired: Vec<Vec<i32>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (g, table, start) = (&g, &table, &start);
                    s.spawn(move || {
                        let mut batch = DeliveryBatch::new();
                        let mut fired = Vec::new();
                        for round in 0..ROUNDS {
                            let mut flows: Vec<(i32, usize)> = (1..=9)
                                .flat_map(|k| (0..k).map(move |slot| (10 * round + k as i32, slot)))
                                .collect();
                            let mut rng = StdRng::seed_from_u64(round as u64 + 1);
                            for i in (1..flows.len()).rev() {
                                flows.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
                            }
                            let mine: Vec<_> =
                                flows.into_iter().skip(thread).step_by(THREADS).collect();
                            start.wait();
                            fired.extend(deliver_all(table, g, &mut batch, &mine));
                        }
                        fired
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let mut all: Vec<i32> = fired.into_iter().flatten().collect();
        let firings = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!((firings, all.len()), (consumers.len(), consumers.len()));
        assert!(table.is_empty());
    }
}
