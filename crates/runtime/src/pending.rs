//! Activation counting: the dynamic DAG-unfolding bookkeeping shared by
//! both executors.
//!
//! A task is *pending* from the moment its first input flow arrives until
//! all of its inputs have arrived, at which point it becomes *ready* and
//! leaves the table. This mirrors PaRSEC's activation counters: no global
//! graph is ever built, memory is proportional to the wavefront.
//!
//! Two containers implement the bookkeeping:
//!
//! * [`PendingTable`] — the single-threaded table (the simulator's, and
//!   the unit under every invariant test);
//! * [`ShardedPending`] — the real executors' concurrent wrapper: the
//!   key space is split across power-of-two lock shards by task-key
//!   hash, and [`ShardedPending::deliver_batch`] delivers *all* of a
//!   completing task's output flows with one lock acquisition per
//!   touched shard instead of one per flow.
//!
//! A [`ReadyTask`] is born boxed and stays in its box: the table fills the
//! box's input slots in place, the ready queues and deques pass the box
//! along, and once the task has run the executor hands the box (and its
//! slot vector) back through [`SpareTasks`] for the next pending entry —
//! so steady-state activation counting allocates nothing.

use crate::task::{FlowData, TaskGraph, TaskKey};
use parking_lot::Mutex;
use std::collections::HashMap;

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
/// next pending entries: [`PendingTable::deliver`] takes one (box and
/// slot vector) whenever a task's first flow arrives, instead of
/// allocating. Bounded — a worker that retires more tasks than it
/// discovers frees the excess.
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
}

struct Pending {
    remaining: usize,
    task: Box<ReadyTask>,
}

/// The activation table.
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
/// let mut table = PendingTable::new();
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
#[derive(Default)]
pub struct PendingTable {
    map: HashMap<TaskKey, Pending>,
    delivered: u64,
}

impl PendingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deliver one flow into `consumer`'s input `slot`. Returns the ready
    /// task when this was the last missing input. A consumer seen for the
    /// first time takes its box from `spares`.
    ///
    /// Panics if the slot is out of range or already filled — both indicate
    /// an inconsistent task graph (see [`crate::unfold`]).
    pub fn deliver(
        &mut self,
        graph: &TaskGraph,
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        spares: &mut SpareTasks,
    ) -> Option<Box<ReadyTask>> {
        self.delivered += 1;
        let entry = self.map.entry(consumer).or_insert_with(|| {
            let class = graph.class(consumer.class);
            let remaining = class.activation_count(consumer.params);
            assert!(
                remaining > 0,
                "{:?} received a flow but declares zero inputs",
                consumer
            );
            Pending {
                remaining,
                task: spares.fresh(consumer, class.num_input_slots(consumer.params)),
            }
        });
        let inputs = &mut entry.task.inputs;
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
        entry.remaining -= 1;
        if entry.remaining == 0 {
            let p = self.map.remove(&consumer).expect("entry just touched");
            Some(p.task)
        } else {
            None
        }
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

    /// Number of tasks currently waiting for more inputs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no task is waiting.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total flows delivered through this table.
    pub fn flows_delivered(&self) -> u64 {
        self.delivered
    }

    /// Keys of tasks stuck waiting (diagnostics for deadlocked graphs).
    pub fn stuck_tasks(&self) -> Vec<TaskKey> {
        self.map.keys().copied().collect()
    }
}

/// One flow bound for a consumer's input slot — the unit of
/// [`ShardedPending::deliver_batch`].
pub struct Delivery {
    /// The consuming task.
    pub consumer: TaskKey,
    /// Its input slot (the producer's [`crate::task::OutputDep::slot`]).
    pub slot: usize,
    /// The flow payload.
    pub data: FlowData,
}

/// One worker's reusable delivery state: the batch being assembled for
/// [`ShardedPending::deliver_batch`], the working vectors that call needs,
/// and the worker's [`SpareTasks`]. Everything keeps its capacity from one
/// task to the next.
#[derive(Default)]
pub struct DeliveryBatch {
    batch: Vec<Delivery>,
    /// Shard of each delivery; [`Self::DONE`] once delivered.
    shards: Vec<usize>,
    /// The task each delivery made ready, in batch position.
    ready: Vec<Option<Box<ReadyTask>>>,
    spares: SpareTasks,
}

impl DeliveryBatch {
    const DONE: usize = usize::MAX;

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

/// The concurrent activation table of the real executors: a
/// [`PendingTable`] per lock shard, shard chosen by task-key hash.
///
/// Invariants (each inherited per shard from [`PendingTable`], which the
/// loom model in `loom_model.rs` exercises under concurrent delivery):
///
/// * a task's activations all land in the *same* shard — the shard is a
///   pure function of the key — so the exactly-once "last flow fires the
///   task" property is a single-shard property;
/// * [`ShardedPending::deliver_batch`] locks each touched shard exactly
///   once per batch, and releases the newly ready tasks **in batch
///   order** (not shard order), so a completing task releases its
///   successors in the same order the class declared its outputs — the
///   order the FIFO dispatch contract keys on;
/// * aggregate queries ([`ShardedPending::len`],
///   [`ShardedPending::flows_delivered`], …) sum the shards; they are
///   exact only at quiescence, which is when the executors consult them.
pub struct ShardedPending {
    shards: Box<[Mutex<PendingTable>]>,
    mask: u64,
}

impl ShardedPending {
    /// A table with `shards` lock shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedPending {
            shards: (0..n).map(|_| Mutex::new(PendingTable::new())).collect(),
            mask: n as u64 - 1,
        }
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` maps to (pure: same key, same shard).
    pub fn shard_of(&self, key: TaskKey) -> usize {
        // Fibonacci scramble of the stable instance id: cheap,
        // deterministic across runs, spreads consecutive task indices.
        (key.instance_id().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 & self.mask) as usize
    }

    /// Deliver one flow (the comm-thread path). Same contract and panics
    /// as [`PendingTable::deliver`].
    pub fn deliver(
        &self,
        graph: &TaskGraph,
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        spares: &mut SpareTasks,
    ) -> Option<Box<ReadyTask>> {
        self.shards[self.shard_of(consumer)]
            .lock()
            .deliver(graph, consumer, slot, data, spares)
    }

    /// Deliver a completing task's whole output batch, draining `batch`:
    /// one lock acquisition per touched shard, then `on_ready` once per
    /// newly ready task, in batch order and outside every lock (see the
    /// type-level invariants).
    pub fn deliver_batch(
        &self,
        graph: &TaskGraph,
        batch: &mut DeliveryBatch,
        mut on_ready: impl FnMut(Box<ReadyTask>),
    ) {
        let DeliveryBatch {
            batch,
            shards,
            ready,
            spares,
        } = batch;
        shards.clear();
        shards.extend(batch.iter().map(|d| self.shard_of(d.consumer)));
        ready.clear();
        ready.resize_with(batch.len(), || None);
        for first in 0..batch.len() {
            let shard = shards[first];
            if shard == DeliveryBatch::DONE {
                continue;
            }
            let mut table = self.shards[shard].lock();
            for i in first..batch.len() {
                if shards[i] == shard {
                    shards[i] = DeliveryBatch::DONE;
                    let d = &mut batch[i];
                    let data = std::mem::take(&mut d.data);
                    ready[i] = table.deliver(graph, d.consumer, d.slot, data, spares);
                }
            }
        }
        batch.clear();
        ready.drain(..).flatten().for_each(&mut on_ready);
    }

    /// Tasks currently waiting for more inputs, summed over the shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no task is waiting in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Total flows delivered through all shards.
    pub fn flows_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().flows_delivered()).sum()
    }

    /// Keys of tasks stuck waiting, across all shards (deadlock
    /// diagnostics).
    pub fn stuck_tasks(&self) -> Vec<TaskKey> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().stuck_tasks())
            .collect()
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use crate::task::testutil::ExplicitDag;
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn graph_with_indeg(indeg: &[(i32, usize)]) -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
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

    /// Deliver `flows` (consumer index, slot) as one batch; the keys that
    /// became ready, in release order.
    fn deliver_all(
        t: &ShardedPending,
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
        t.deliver_batch(g, batch, |r| order.push(r.key.params[0]));
        assert!(batch.is_empty(), "delivery drains the batch");
        order
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let t = ShardedPending::new(8);
        assert_eq!(t.shard_count(), 8);
        for i in 0..100 {
            let s = t.shard_of(key(i));
            assert!(s < 8);
            assert_eq!(s, t.shard_of(key(i)));
        }
    }

    #[test]
    fn batch_delivery_fires_in_batch_order() {
        // Three single-input consumers: all become ready, in the order
        // the batch listed them, regardless of shard assignment.
        let g = graph_with_indeg(&[(1, 1), (2, 1), (3, 1)]);
        let t = ShardedPending::new(4);
        let mut batch = DeliveryBatch::new();
        let order = deliver_all(&t, &g, &mut batch, &[(2, 0), (1, 0), (3, 0)]);
        assert_eq!(order, vec![2, 1, 3]);
        assert!(t.is_empty());
        assert_eq!(t.flows_delivered(), 3);
    }

    #[test]
    fn retired_tasks_are_reused_for_the_next_pending_entry() {
        let g = graph_with_indeg(&[(1, 1), (2, 1)]);
        let t = ShardedPending::new(1);
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
    }

    #[test]
    fn partial_batches_leave_tasks_pending() {
        let g = graph_with_indeg(&[(1, 2)]);
        let t = ShardedPending::new(2);
        let mut batch = DeliveryBatch::new();
        assert!(deliver_all(&t, &g, &mut batch, &[(1, 0)]).is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.stuck_tasks(), vec![key(1)]);
        let ready = t
            .deliver(&g, key(1), 1, FlowData::sized(8), &mut SpareTasks::new())
            .unwrap();
        assert_eq!(ready.key, key(1));
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_deliveries_fire_each_task_exactly_once() {
        // 64 two-input tasks, the two flows delivered from two racing
        // threads: every task fires exactly once, on whichever thread
        // completed it.
        let g = Arc::new(graph_with_indeg(
            &(0..64).map(|i| (i, 2)).collect::<Vec<_>>(),
        ));
        let t = Arc::new(ShardedPending::new(8));
        let fire = |slot: usize, t: Arc<ShardedPending>, g: Arc<TaskGraph>| {
            std::thread::spawn(move || {
                let mut fired = 0u32;
                let mut batch = DeliveryBatch::new();
                for i in 0..64 {
                    fired += deliver_all(&t, &g, &mut batch, &[(i, slot)]).len() as u32;
                }
                fired
            })
        };
        let a = fire(0, Arc::clone(&t), Arc::clone(&g));
        let b = fire(1, Arc::clone(&t), Arc::clone(&g));
        let total = a.join().unwrap() + b.join().unwrap();
        assert_eq!(total, 64);
        assert!(t.is_empty());
        assert_eq!(t.flows_delivered(), 128);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::ExplicitDag;
    use crate::task::TaskGraph;
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn graph_with_indeg(indeg: &[(i32, usize)]) -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
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
    fn deliver(t: &mut PendingTable, g: &TaskGraph, i: i32, slot: usize) -> Option<Box<ReadyTask>> {
        t.deliver(g, key(i), slot, FlowData::sized(8), &mut SpareTasks::new())
    }

    #[test]
    fn task_fires_when_all_inputs_arrive() {
        let g = graph_with_indeg(&[(1, 3)]);
        let mut t = PendingTable::new();
        assert!(deliver(&mut t, &g, 1, 0).is_none());
        assert!(deliver(&mut t, &g, 1, 2).is_none());
        assert_eq!(t.len(), 1);
        let ready = deliver(&mut t, &g, 1, 1).unwrap();
        assert_eq!(ready.key, key(1));
        assert_eq!(ready.inputs.len(), 3);
        assert!(ready.inputs.iter().all(Option::is_some));
        assert!(t.is_empty());
        assert_eq!(t.flows_delivered(), 3);
    }

    #[test]
    fn single_input_task_fires_immediately() {
        let g = graph_with_indeg(&[(7, 1)]);
        let mut t = PendingTable::new();
        assert!(deliver(&mut t, &g, 7, 0).is_some());
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_delivery_panics() {
        let g = graph_with_indeg(&[(1, 2)]);
        let mut t = PendingTable::new();
        let _ = deliver(&mut t, &g, 1, 0);
        let _ = deliver(&mut t, &g, 1, 0);
    }

    #[test]
    #[should_panic(expected = "slot 5 out of range")]
    fn out_of_range_slot_panics() {
        let g = graph_with_indeg(&[(1, 2)]);
        let mut t = PendingTable::new();
        let _ = deliver(&mut t, &g, 1, 5);
    }

    #[test]
    #[should_panic(expected = "zero inputs")]
    fn delivering_to_root_panics() {
        let g = graph_with_indeg(&[(1, 0)]);
        let mut t = PendingTable::new();
        let _ = deliver(&mut t, &g, 1, 0);
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
        let mut t = PendingTable::new();
        let _ = deliver(&mut t, &g, 1, 0);
        let _ = deliver(&mut t, &g, 2, 0);
        let mut stuck = t.stuck_tasks();
        stuck.sort_by_key(|k| k.params[0]);
        assert_eq!(stuck, vec![key(1), key(2)]);
    }
}
