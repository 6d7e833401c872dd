//! The node-local ready queue, parameterized by a scheduling oracle.
//!
//! PaRSEC's schedulers differ in which ready task a worker picks; the
//! queue itself only knows three disciplines — FIFO (breadth-first,
//! fair), LIFO (depth-first, cache-friendly), and rank order (highest
//! [`TaskSelector::rank`] first, FIFO within a level). Everything
//! policy-specific — class priorities, HEFT/PEFT upward ranks, lookahead
//! — lives behind the [`TaskSelector`] the queue is built with; see
//! [`crate::scheduler`].
//!
//! Since the work-stealing overhaul (see `docs/EXECUTOR.md`), the real
//! executors no longer funnel every dispatch through one
//! `Mutex<ReadyQueue>`. The queue survives in two narrower roles:
//!
//! * the shared **injector** — externally-released tasks (program
//!   roots, arrivals from the comm thread) and local-deque overflow
//!   spill land here, drained by any worker between deque polls;
//! * the **per-lane rank queue** — rank-order selection needs a global
//!   best-first view a lock-free deque cannot give, so `Rank`-mode
//!   lanes each hold a small mutex-guarded `ReadyQueue` that thieves
//!   lock to steal the victim's best-ranked task.
//!
//! The simulator still uses one central `ReadyQueue` per node, which is
//! what keeps its dispatch order — and `BENCH_stencil.json` —
//! bit-identical across the overhaul.

use crate::pending::ReadyTask;
use crate::scheduler::{SelectMode, TaskSelector};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

struct Entry {
    rank: i64,
    seq: u64,
    task: Box<ReadyTask>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap: higher rank first, FIFO (lower seq) within a level
        self.rank
            .cmp(&other.rank)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A selector-aware ready queue of boxed tasks (a [`ReadyTask`] keeps its
/// box from discovery to reuse, see [`crate::pending`]). Ranks are
/// computed once, at push time —
/// the selector contract (pure, static) makes the value at pop time
/// identical, and it keeps `pop` O(log n) regardless of the selector.
///
/// ```
/// use runtime::ready_queue::ReadyQueue;
/// use runtime::scheduler::FifoSelector;
/// use runtime::{ReadyTask, TaskKey};
/// use std::sync::Arc;
///
/// let mut q = ReadyQueue::new(Arc::new(FifoSelector));
/// for i in 0..3 {
///     let key = TaskKey::new(0, [i, 0, 0, 0]);
///     q.push(Box::new(ReadyTask { key, inputs: Vec::new() }));
/// }
/// // FIFO discipline: pops in push order.
/// assert_eq!(q.pop().unwrap().key.params[0], 0);
/// assert_eq!(q.len(), 2);
/// ```
pub struct ReadyQueue {
    mode: SelectMode,
    selector: Arc<dyn TaskSelector>,
    deque: VecDeque<Box<ReadyTask>>,
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl ReadyQueue {
    /// Empty queue consulting the given selector.
    pub fn new(selector: Arc<dyn TaskSelector>) -> Self {
        ReadyQueue {
            mode: selector.mode(),
            selector,
            deque: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Enqueue a ready task. In `Rank` mode the selector's rank is
    /// computed here, once — the selector is pure and static, so the
    /// rank cannot change between push and pop — and the push is
    /// stamped with a monotone sequence number that breaks rank ties
    /// FIFO. This pair is what makes rank-mode dispatch deterministic
    /// for a fixed arrival order.
    pub fn push(&mut self, task: Box<ReadyTask>) {
        match self.mode {
            SelectMode::Fifo | SelectMode::Lifo => self.deque.push_back(task),
            SelectMode::Rank => {
                let rank = self.selector.rank(task.key);
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Entry { rank, seq, task });
            }
        }
    }

    /// Take the next task per the selector's discipline: front for
    /// FIFO, back for LIFO, highest rank (lowest seq within a rank
    /// level) for rank mode.
    pub fn pop(&mut self) -> Option<Box<ReadyTask>> {
        match self.mode {
            SelectMode::Fifo => self.deque.pop_front(),
            SelectMode::Lifo => self.deque.pop_back(),
            SelectMode::Rank => self.heap.pop().map(|e| e.task),
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
    use crate::scheduler::{FifoSelector, LifoSelector, StaticRanks};
    use crate::task::TaskKey;
    use std::collections::HashMap;

    fn task(i: i32) -> Box<ReadyTask> {
        Box::new(ReadyTask {
            key: TaskKey::new(0, [i, 0, 0, 0]),
            inputs: Vec::new(),
        })
    }

    fn ranked(ranks: &[(i32, i64)]) -> Arc<dyn TaskSelector> {
        let table: HashMap<TaskKey, i64> = ranks
            .iter()
            .map(|&(i, r)| (TaskKey::new(0, [i, 0, 0, 0]), r))
            .collect();
        Arc::new(StaticRanks::new(table))
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
        let mut q = ReadyQueue::new(Arc::new(FifoSelector));
        for i in 0..4 {
            q.push(task(i));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(drain_ids(&mut q), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn lifo_order() {
        let mut q = ReadyQueue::new(Arc::new(LifoSelector));
        for i in 0..4 {
            q.push(task(i));
        }
        assert_eq!(drain_ids(&mut q), vec![3, 2, 1, 0]);
    }

    #[test]
    fn rank_order_with_fifo_ties() {
        let mut q = ReadyQueue::new(ranked(&[(0, 0), (1, 5), (2, 0), (3, 5), (4, -1)]));
        for i in 0..5 {
            q.push(task(i));
        }
        assert_eq!(drain_ids(&mut q), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn unranked_tasks_default_to_zero() {
        let mut q = ReadyQueue::new(ranked(&[(1, 1)]));
        q.push(task(0)); // not in the table -> rank 0
        q.push(task(1));
        assert_eq!(drain_ids(&mut q), vec![1, 0]);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = ReadyQueue::new(ranked(&[]));
        assert!(q.pop().is_none());
    }
}
