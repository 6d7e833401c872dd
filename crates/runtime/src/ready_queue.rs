//! The node-local ready queue of one [`SchedulerPolicy`].
//!
//! The queue knows three disciplines — FIFO (breadth-first, fair), LIFO
//! (depth-first, cache-friendly), and priority order (highest
//! [`crate::TaskClass::priority`] first, FIFO within a level); see
//! [`crate::scheduler`].
//!
//! Since the work-stealing overhaul (see `docs/EXECUTOR.md`), the real
//! executors no longer funnel every dispatch through one
//! `Mutex<ReadyQueue>`. The queue survives in two narrower roles:
//!
//! * the per-lane **inbox** — everything another thread hands a lane
//!   (a release homed on it, a program root, an arrival from the comm
//!   thread) and the lane's own local-deque overflow land here, drained
//!   by the owner after its deque and by thieves after the victim's
//!   deque;
//! * the **per-lane priority queue** — priority selection needs a
//!   global best-first view a lock-free deque cannot give, so
//!   `Priority` lanes each hold a small mutex-guarded `ReadyQueue`,
//!   which is also their inbox, that thieves lock to steal the victim's
//!   highest-priority task.
//!
//! The simulator still uses one central `ReadyQueue` per node, which is
//! what keeps its dispatch order — and `BENCH_stencil.json` —
//! bit-identical across the overhaul. Its DAG replay queues bare task
//! indices in the same queue type.

use crate::pending::ReadyTask;
use crate::scheduler::SchedulerPolicy;
use crate::task::{TaskGraph, TaskKey};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

struct Entry<T> {
    rank: i32,
    seq: u64,
    task: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap: higher priority first, FIFO (lower seq) within a level
        self.rank
            .cmp(&other.rank)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A policy-ordered ready queue, by default of boxed tasks (a
/// [`ReadyTask`] keeps its box from discovery to reuse, see
/// [`crate::pending`]). Priorities are
/// read once, at push time — a class's priority is a pure function of
/// the task's parameters, so the value at pop time is identical, and
/// `pop` stays O(log n).
///
/// ```
/// use runtime::ready_queue::ReadyQueue;
/// use runtime::{ReadyTask, SchedulerPolicy, TaskGraph, TaskKey};
/// use std::sync::Arc;
///
/// let mut q = ReadyQueue::new(SchedulerPolicy::Fifo, Arc::new(TaskGraph::new()));
/// for i in 0..3 {
///     let key = TaskKey::new(0, [i, 0, 0, 0]);
///     q.push(Box::new(ReadyTask { key, inputs: Vec::new() }));
/// }
/// // FIFO discipline: pops in push order.
/// assert_eq!(q.pop().unwrap().key.params[0], 0);
/// assert_eq!(q.len(), 2);
/// ```
pub struct ReadyQueue<T = Box<ReadyTask>> {
    policy: SchedulerPolicy,
    graph: Arc<TaskGraph>,
    deque: VecDeque<T>,
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl ReadyQueue {
    /// Enqueue a ready task (see [`ReadyQueue::push_by`]).
    pub fn push(&mut self, task: Box<ReadyTask>) {
        self.push_by(task, |t| t.key);
    }
}

impl<T> ReadyQueue<T> {
    /// Empty queue ordered by `policy`; `Priority` reads each task's
    /// priority from its class in `graph`.
    pub fn new(policy: SchedulerPolicy, graph: Arc<TaskGraph>) -> Self {
        ReadyQueue {
            policy,
            graph,
            deque: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Enqueue a ready task whose key is `key(&task)`. Under `Priority`
    /// the key's class priority is read here, once, and the push is
    /// stamped with a monotone sequence number that breaks priority ties
    /// FIFO. This pair is what makes priority dispatch deterministic for
    /// a fixed arrival order. The other policies never ask for the key.
    pub fn push_by(&mut self, task: T, key: impl FnOnce(&T) -> TaskKey) {
        match self.policy {
            SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => self.deque.push_back(task),
            SchedulerPolicy::Priority => {
                let key = key(&task);
                let rank = self.graph.class(key.class).priority(key.params);
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Entry { rank, seq, task });
            }
        }
    }

    /// Take the next task per the policy: front for FIFO, back for LIFO,
    /// highest priority (lowest seq within a level) for `Priority`.
    pub fn pop(&mut self) -> Option<T> {
        match self.policy {
            SchedulerPolicy::Fifo => self.deque.pop_front(),
            SchedulerPolicy::Lifo => self.deque.pop_back(),
            SchedulerPolicy::Priority => self.heap.pop().map(|e| e.task),
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.deque.is_empty() && self.heap.is_empty()
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.deque.len() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::prioritized;
    use crate::task::TaskKey;

    fn task(i: i32) -> Box<ReadyTask> {
        Box::new(ReadyTask {
            key: TaskKey::new(0, [i, 0, 0, 0]),
            inputs: Vec::new(),
        })
    }

    fn ranked(table: &[(i32, i32)]) -> ReadyQueue {
        ReadyQueue::new(SchedulerPolicy::Priority, prioritized(table))
    }

    fn drain_ids(q: &mut ReadyQueue) -> Vec<i32> {
        let mut out = Vec::new();
        while let Some(t) = q.pop() {
            out.push(t.key.params[0]);
        }
        out
    }

    #[test]
    fn fifo_order() {
        let mut q = ReadyQueue::new(SchedulerPolicy::Fifo, prioritized(&[]));
        for i in 0..4 {
            q.push(task(i));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(drain_ids(&mut q), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn lifo_order() {
        let mut q = ReadyQueue::new(SchedulerPolicy::Lifo, prioritized(&[]));
        for i in 0..4 {
            q.push(task(i));
        }
        assert_eq!(drain_ids(&mut q), vec![3, 2, 1, 0]);
    }

    #[test]
    fn rank_order_with_fifo_ties() {
        let mut q = ranked(&[(0, 0), (1, 5), (2, 0), (3, 5), (4, -1)]);
        for i in 0..5 {
            q.push(task(i));
        }
        assert_eq!(drain_ids(&mut q), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn unranked_tasks_default_to_zero() {
        let mut q = ranked(&[(1, 1)]);
        q.push(task(0)); // not in the table -> priority 0
        q.push(task(1));
        assert_eq!(drain_ids(&mut q), vec![1, 0]);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = ranked(&[]);
        assert!(q.pop().is_none());
    }
}
