//! Explicit enumeration of the unfolded task DAG.
//!
//! The executors never materialize the graph — tasks are discovered when
//! their first input arrives (see [`crate::pending`]). Static analysis
//! needs the opposite: the whole DAG as data. [`UnfoldedDag::enumerate`]
//! walks the parameterized declarations breadth-first from the roots and
//! records every task and every producer→consumer edge, collecting the
//! structural inconsistencies the old `validate` pass checked for
//! ([`StructuralFault`]) along the way.
//!
//! Tasks are found as the executors find them, by their dense
//! [`TaskGraph::slot`]: a transient `u32` per slot holds each discovered
//! task's index, and only keys outside their class's parameter box (which
//! only faulty programs produce) go to a side map. Edge sizes come with
//! the declarations ([`crate::OutputDep::bytes`]), so no hash table is
//! touched per task or per edge.
//!
//! The DAG is stored in compressed-sparse-row form: one flat list of
//! 16-byte [`EdgeRef`]s, grouped by producer (the walk visits producers
//! in task order), and one `u32` offset per task into it, so
//! [`UnfoldedDag::out_edges`] is a slice. In-edges are a counting sort of
//! that list by consumer ([`UnfoldedDag::in_edges`]), built on demand and
//! never stored; it also finds repeated input slots. The peak heap,
//! counting both blocks of every reallocation, is about 150–170 B per
//! task at the `tooling_lint_doctor` size and 215 at `sim_nacl16`'s
//! (`tests/tests/alloc_unfold.rs` holds both under 240), and 180 at the
//! 100-sweep Figure 8 size, mostly the edge list grown by doubling.
//!
//! This module is the substrate of the `analyze` crate's passes (cycle
//! detection, write races, communication volume, critical path) and the
//! graph that the `insight` crate joins dynamic trace spans against via
//! [`crate::TaskKey::instance_id`].

use crate::task::{Program, TaskGraph, TaskKey};
use netsim::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default cap on enumerated tasks: large enough for every program in
/// this workspace (the paper's biggest REPRO_FAST workload unfolds to
/// ~700 k tasks), small enough to stop a runaway (cyclic-in-parameters)
/// class from exhausting memory.
pub const DEFAULT_TASK_LIMIT: usize = 8_000_000;

/// One producer→consumer dependence in the unfolded DAG, in 16 bytes.
/// Indices refer to [`UnfoldedDag::tasks`]; [`UnfoldedDag::enumerate`]
/// panics on a value too wide for its field rather than truncate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Index of the producing task.
    pub producer: u32,
    /// Index of the consuming task.
    pub consumer: u32,
    /// The producer's output flow feeding this edge.
    pub flow: u16,
    /// The consumer's input slot receiving it.
    pub slot: u16,
    /// Wire size of the flow ([`crate::task::OutputDep::bytes`]; 0 when
    /// the flow is out of range).
    pub bytes: u32,
}

const _: () = assert!(std::mem::size_of::<EdgeRef>() == 16);

/// A structural inconsistency discovered while unfolding the DAG: the
/// same invariants the old `validate` pass checked, kept as data so the
/// analyzer can report them uniformly with its own diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralFault {
    /// An `OutputDep` names a flow index at or beyond the producer's
    /// declared `num_output_flows`.
    FlowOutOfRange {
        /// The producing task.
        task: TaskKey,
        /// The referenced flow.
        flow: usize,
        /// The producer's declared flow count.
        flows: usize,
    },
    /// An `OutputDep` names a slot at or beyond the consumer's declared
    /// `num_input_slots`.
    SlotOutOfRange {
        /// The consuming task.
        task: TaskKey,
        /// The referenced slot.
        slot: usize,
        /// The consumer's declared slot count.
        slots: usize,
    },
    /// Two producer flows target the same input slot of the same task.
    SlotCollision {
        /// The consuming task.
        task: TaskKey,
        /// The contended slot.
        slot: usize,
    },
    /// A task's declared activation count differs from the number of
    /// flows actually targeting it. `declared > actual` deadlocks the run
    /// (the task can never fire); `declared < actual` double-delivers.
    IndegreeMismatch {
        /// The inconsistent task.
        task: TaskKey,
        /// What `activation_count` declares.
        declared: usize,
        /// How many producer flows target the task.
        actual: usize,
    },
    /// The number of reachable tasks differs from `Program::total_tasks`
    /// (termination is detected by counting completions, so this hangs or
    /// truncates the run).
    TotalMismatch {
        /// What the program declares.
        declared: u64,
        /// How many tasks are reachable from the roots.
        reachable: u64,
    },
    /// Enumeration stopped at the task limit; every count and edge list
    /// is a lower bound and downstream passes are unsound.
    Truncated {
        /// The limit that was hit.
        limit: usize,
    },
    /// A reachable task lies outside its class's
    /// [`crate::TaskClass::param_box`], so it has no slot in the
    /// executors' activation table: a run panics on its first flow.
    OutsideBox {
        /// The task.
        key: TaskKey,
        /// Its class's parameter box.
        bound: [u32; 4],
    },
}

impl std::fmt::Display for StructuralFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralFault::FlowOutOfRange { task, flow, flows } => {
                write!(f, "{task:?}: flow {flow} out of range (has {flows})")
            }
            StructuralFault::SlotOutOfRange { task, slot, slots } => {
                write!(f, "{task:?}: slot {slot} out of range (has {slots})")
            }
            StructuralFault::SlotCollision { task, slot } => {
                write!(f, "{task:?}: input slot {slot} fed by multiple flows")
            }
            StructuralFault::IndegreeMismatch {
                task,
                declared,
                actual,
            } => write!(
                f,
                "{task:?}: declares {declared} inputs but {actual} flows target it"
            ),
            StructuralFault::TotalMismatch {
                declared,
                reachable,
            } => write!(
                f,
                "program declares {declared} tasks but {reachable} are reachable"
            ),
            StructuralFault::Truncated { limit } => {
                write!(f, "enumeration truncated at {limit} tasks")
            }
            StructuralFault::OutsideBox { key, bound } => {
                write!(f, "{key:?}: outside its class's parameter box {bound:?}")
            }
        }
    }
}

/// The fully unfolded DAG of one [`Program`]: every reachable task, every
/// edge, and the structural faults found while enumerating.
pub struct UnfoldedDag {
    /// The class registry the tasks refer to.
    pub graph: Arc<TaskGraph>,
    /// Every reachable task, in BFS discovery order (roots first).
    pub tasks: Vec<TaskKey>,
    /// Indices of the program's root tasks within [`UnfoldedDag::tasks`].
    pub roots: Vec<usize>,
    /// Every producer→consumer edge, grouped by producer in task order
    /// (see [`UnfoldedDag::out_edges`]).
    pub edges: Vec<EdgeRef>,
    /// Structural inconsistencies found (empty = consistent).
    pub faults: Vec<StructuralFault>,
    /// `out_start[i]..out_start[i + 1]` is task `i`'s group in `edges`.
    out_start: Vec<u32>,
}

/// The in-edges of every task, grouped by consumer: a counting sort of
/// [`UnfoldedDag::edges`], built on demand by [`UnfoldedDag::in_edges`]
/// and never stored in the DAG.
pub struct InEdges {
    /// `start[c]..start[c + 1]` is consumer `c`'s group in `edges`.
    start: Vec<u32>,
    /// Indices into [`UnfoldedDag::edges`], each group in edge order.
    edges: Vec<u32>,
}

impl InEdges {
    /// Indices into [`UnfoldedDag::edges`] of the edges into task `c`, in
    /// edge order.
    pub fn of(&self, c: usize) -> &[u32] {
        &self.edges[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// `value` narrowed to an edge field's width `T`; a wider value panics,
/// naming the task it belongs to.
fn narrow<T: TryFrom<usize>>(value: usize, what: &str, task: TaskKey) -> T {
    T::try_from(value).unwrap_or_else(|_| {
        let width = std::any::type_name::<T>();
        panic!("{task:?}: {what} {value} exceeds {width}::MAX")
    })
}

/// The tasks discovered so far and the transient index that finds them:
/// one `u32` per slot of the task graph (the task's index plus one, 0 while
/// undiscovered), and a side map for keys outside their class's parameter
/// box, which have no slot. Only faulty programs reach such keys.
struct Discovered<'g> {
    graph: &'g TaskGraph,
    limit: usize,
    tasks: Vec<TaskKey>,
    by_slot: Vec<u32>,
    outside: HashMap<TaskKey, u32>,
}

impl Discovered<'_> {
    /// Index of `key`, discovering it if new; `None` when it is new but
    /// the limit is reached.
    fn discover(&mut self, key: TaskKey) -> Option<u32> {
        let slot = self.graph.try_slot(key).map(|slot| slot as usize);
        let known = match slot {
            Some(slot) => self.by_slot[slot].checked_sub(1),
            None => self.outside.get(&key).copied(),
        };
        if known.is_some() || self.tasks.len() >= self.limit {
            return known;
        }
        let count: u32 = narrow(self.tasks.len() + 1, "task count", key);
        self.tasks.push(key);
        match slot {
            Some(slot) => self.by_slot[slot] = count,
            None => _ = self.outside.insert(key, count - 1),
        }
        Some(count - 1)
    }
}

impl UnfoldedDag {
    /// Enumerate `program` with the [`DEFAULT_TASK_LIMIT`].
    pub fn enumerate(program: &Program) -> Self {
        Self::enumerate_with_limit(program, DEFAULT_TASK_LIMIT)
    }

    /// Enumerate `program`, stopping (with a
    /// [`StructuralFault::Truncated`]) after discovering `limit` tasks.
    ///
    /// # Panics
    ///
    /// On a flow or slot index over `u16::MAX`, a flow over `u32::MAX`
    /// bytes, or more than `u32::MAX` tasks or edges: the message names
    /// the task and the value.
    pub fn enumerate_with_limit(program: &Program, limit: usize) -> Self {
        let graph = Arc::clone(&program.graph);
        // Size the task list for the declared total once, not by doubling;
        // a wrong total only costs a regrowth. The box bounds the hint.
        let declared = usize::try_from(program.total_tasks).unwrap_or(usize::MAX);
        let capacity = declared.min(limit).min(graph.num_slots() as usize);
        let mut found = Discovered {
            graph: &graph,
            limit,
            tasks: Vec::with_capacity(capacity),
            by_slot: vec![0; graph.num_slots() as usize],
            outside: HashMap::new(),
        };
        let mut edges: Vec<EdgeRef> = Vec::new();
        let mut out_start = vec![0u32];
        let mut faults: Vec<StructuralFault> = Vec::new();
        let mut truncated = false;

        let mut roots = Vec::with_capacity(program.roots.len());
        for &root in &program.roots {
            match found.discover(root) {
                Some(i) => roots.push(i as usize),
                None => truncated = true,
            }
        }

        // Tasks are appended in discovery order, so visiting them by index
        // is the breadth-first walk, and `edges` comes out grouped by
        // producer in task order.
        let mut deps = Vec::new();
        let mut pi = 0;
        while let Some(&key) = found.tasks.get(pi) {
            let producer = narrow(pi, "task index", key);
            let class = graph.class(key.class);
            let flows = class.num_output_flows(key.params);
            class.outputs(key.params, &mut deps);
            for dep in deps.drain(..) {
                if dep.flow >= flows {
                    faults.push(StructuralFault::FlowOutOfRange {
                        task: key,
                        flow: dep.flow,
                        flows,
                    });
                }
                let cclass = graph.class(dep.consumer.class);
                let slots = cclass.num_input_slots(dep.consumer.params);
                if dep.slot >= slots {
                    faults.push(StructuralFault::SlotOutOfRange {
                        task: dep.consumer,
                        slot: dep.slot,
                        slots,
                    });
                }
                let flow = narrow(dep.flow, "flow index", key);
                let slot = narrow(dep.slot, "input slot", dep.consumer);
                let bytes = if dep.flow < flows {
                    narrow(dep.bytes, "flow bytes", key)
                } else {
                    0
                };
                // A consumer the limit turns away stays undiscovered (the
                // task list only grows), so its edge is dropped for good.
                match found.discover(dep.consumer) {
                    Some(consumer) => edges.push(EdgeRef {
                        producer,
                        consumer,
                        flow,
                        slot,
                        bytes,
                    }),
                    None => truncated = true,
                }
            }
            out_start.push(narrow(edges.len(), "edge count", key));
            pi += 1;
        }

        let Discovered { tasks, outside, .. } = found;
        let mut outside: Vec<u32> = outside.into_values().collect();
        outside.sort_unstable();
        faults.extend(outside.into_iter().map(|i| {
            let key = tasks[i as usize];
            StructuralFault::OutsideBox {
                key,
                bound: graph.class(key.class).param_box(),
            }
        }));
        let mut dag = UnfoldedDag {
            graph,
            tasks,
            roots,
            edges,
            faults,
            out_start,
        };
        if truncated {
            dag.faults.push(StructuralFault::Truncated { limit });
        } else {
            // Skipped on truncation: partial in-edge counts would all look
            // mismatched.
            dag.check_inputs();
            if dag.len() as u64 != program.total_tasks {
                dag.faults.push(StructuralFault::TotalMismatch {
                    declared: program.total_tasks,
                    reachable: dag.len() as u64,
                });
            }
        }
        dag
    }

    /// Cross-check every task's declared activation count against its
    /// in-edges, then report input slots fed more than once. The in-edge
    /// index groups the edges by consumer, so each consumer's handful of
    /// slots is checked on its own.
    fn check_inputs(&mut self) {
        let inputs = self.in_edges();
        for (c, &task) in self.tasks.iter().enumerate() {
            let declared = self.graph.class(task.class).activation_count(task.params);
            let actual = inputs.of(c).len();
            if declared != actual {
                let fault = StructuralFault::IndegreeMismatch {
                    task,
                    declared,
                    actual,
                };
                self.faults.push(fault);
            }
        }
        let mut slots: Vec<u16> = Vec::new();
        for (c, &task) in self.tasks.iter().enumerate() {
            slots.clear();
            slots.extend(inputs.of(c).iter().map(|&ei| self.edges[ei as usize].slot));
            slots.sort_unstable();
            let repeats = slots.chunk_by(|a, b| a == b).filter(|run| run.len() > 1);
            let faults = repeats.map(|run| StructuralFault::SlotCollision {
                task,
                slot: run[0].into(),
            });
            self.faults.extend(faults);
        }
    }

    /// Number of enumerated tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task was enumerated.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// True when enumeration found no structural fault.
    pub fn is_consistent(&self) -> bool {
        self.faults.is_empty()
    }

    /// Owning node of task `i`.
    pub fn node_of(&self, i: usize) -> NodeId {
        let key = self.tasks[i];
        self.graph.class(key.class).node_of(key.params)
    }

    /// Service time of task `i` under the program's cost model.
    pub fn cost_of(&self, i: usize) -> f64 {
        let key = self.tasks[i];
        self.graph.class(key.class).cost(key.params)
    }

    /// Task `i`'s out-edges, in the order its class declared them: a
    /// slice of [`UnfoldedDag::edges`].
    pub fn out_edges(&self, i: usize) -> &[EdgeRef] {
        &self.edges[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// Per-task in-degrees (counted from the enumerated edges, not the
    /// declarations).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut indeg = vec![0u32; self.len()];
        for e in &self.edges {
            indeg[e.consumer as usize] += 1;
        }
        indeg
    }

    /// Every task's in-edges: a counting sort of the edges by consumer,
    /// stable, so each group keeps edge order.
    pub fn in_edges(&self) -> InEdges {
        // `start[c]` is where consumer c's group begins.
        let mut start = Vec::with_capacity(self.len() + 1);
        start.push(0u32);
        start.extend(self.in_degrees().iter().scan(0, |end, &d| {
            *end += d;
            Some(*end)
        }));
        // Placing an edge advances its consumer's cursor: afterwards
        // `start[c]` is where c's group ends and c + 1's begins.
        let mut edges = vec![0u32; self.edges.len()];
        for (ei, e) in (0u32..).zip(&self.edges) {
            let at = &mut start[e.consumer as usize];
            edges[*at as usize] = ei;
            *at += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        InEdges { start, edges }
    }

    /// A topological order of the tasks (Kahn), or `None` when the
    /// enumerated edges contain a cycle.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let mut indeg = self.in_degrees();
        let mut order = Vec::with_capacity(self.len());
        let mut queue: VecDeque<usize> = (0..self.len()).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for e in self.out_edges(i) {
                let c = e.consumer as usize;
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }
}

/// Enumerate `program` and panic with a readable report on any structural
/// fault. Runtime-internal tests use this; application code should prefer
/// the richer `analyze::assert_clean`.
pub fn assert_consistent(program: &Program) {
    let dag = UnfoldedDag::enumerate(program);
    if !dag.is_consistent() {
        let report: Vec<String> = dag.faults.iter().take(20).map(|e| e.to_string()).collect();
        panic!(
            "task graph is inconsistent ({} faults):\n  {}",
            dag.faults.len(),
            report.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::ExplicitDag;
    use crate::task::TaskGraph;
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn program(
        edges: &[(i32, i32, usize)],
        indeg: &[(i32, usize)],
        roots: &[i32],
        total: u64,
    ) -> Program {
        program_with_bytes(edges, indeg, roots, total, 8)
    }

    /// [`program`] with `bytes` on every flow.
    fn program_with_bytes(
        edges: &[(i32, i32, usize)],
        indeg: &[(i32, usize)],
        roots: &[i32],
        total: u64,
        bytes: usize,
    ) -> Program {
        let mut edge_map: Map<i32, Vec<(i32, usize)>> = Map::new();
        for &(from, to, slot) in edges {
            edge_map.entry(from).or_default().push((to, slot));
        }
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
            bound: [total as u32, 1, 1, 1],
            edges: edge_map,
            indeg: indeg.iter().copied().collect(),
            node: Map::new(),
            cost: 1.0,
            bytes,
        }));
        Program {
            graph: Arc::new(g),
            roots: roots
                .iter()
                .map(|&i| TaskKey::new(0, [i, 0, 0, 0]))
                .collect(),
            total_tasks: total,
        }
    }

    #[test]
    fn diamond_enumerates_in_bfs_order() {
        let p = program(
            &[(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1)],
            &[(1, 1), (2, 1), (3, 2)],
            &[0],
            4,
        );
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag.is_consistent(), "{:?}", dag.faults);
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.edges.len(), 4);
        assert_eq!(dag.roots, vec![0]);
        assert_eq!(dag.tasks[3], TaskKey::new(0, [3, 0, 0, 0]));
        let topo = dag.topo_order().expect("acyclic");
        assert_eq!(topo.len(), 4);
        assert_eq!(topo[0], 0);
        assert_consistent(&p);
    }

    #[test]
    fn indegree_mismatch_is_a_fault() {
        let p = program(&[(0, 1, 0)], &[(1, 2)], &[0], 2);
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag.faults.iter().any(|f| matches!(
            f,
            StructuralFault::IndegreeMismatch {
                declared: 2,
                actual: 1,
                ..
            }
        )));
    }

    #[test]
    fn slot_collision_is_a_fault() {
        let p = program(&[(0, 1, 0), (0, 1, 0)], &[(1, 2)], &[0], 2);
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag
            .faults
            .iter()
            .any(|f| matches!(f, StructuralFault::SlotCollision { slot: 0, .. })));
    }

    #[test]
    fn total_mismatch_is_a_fault() {
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[0], 5);
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag.faults.iter().any(|f| matches!(
            f,
            StructuralFault::TotalMismatch {
                declared: 5,
                reachable: 2
            }
        )));
    }

    #[test]
    fn task_outside_the_box_is_a_fault() {
        // The helper sizes the box by the declared total: 2 of 3 tasks.
        let p = program(&[(0, 1, 0), (1, 2, 0)], &[(1, 1), (2, 1)], &[0], 2);
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag.faults.contains(&StructuralFault::OutsideBox {
            key: TaskKey::new(0, [2, 0, 0, 0]),
            bound: [2, 1, 1, 1],
        }));
    }

    #[test]
    fn cycle_defeats_topo_order_but_not_enumeration() {
        // 0 -> 1 -> 2 -> 1: task 1 is in a cycle with 2
        let p = program(
            &[(0, 1, 0), (1, 2, 0), (2, 1, 1)],
            &[(1, 2), (2, 1)],
            &[0],
            3,
        );
        let dag = UnfoldedDag::enumerate(&p);
        assert_eq!(dag.len(), 3);
        assert!(dag.is_consistent(), "{:?}", dag.faults);
        assert!(dag.topo_order().is_none());
    }

    #[test]
    fn limit_truncates_with_fault() {
        // an unbounded chain: i -> i+1 forever would loop; emulate with a
        // long chain and a tiny limit
        let edges: Vec<(i32, i32, usize)> = (0..100).map(|i| (i, i + 1, 0)).collect();
        let indeg: Vec<(i32, usize)> = (1..=100).map(|i| (i, 1)).collect();
        let p = program(&edges, &indeg, &[0], 101);
        let dag = UnfoldedDag::enumerate_with_limit(&p, 10);
        assert_eq!(dag.len(), 10);
        assert!(dag
            .faults
            .iter()
            .any(|f| matches!(f, StructuralFault::Truncated { limit: 10 })));
    }

    #[test]
    fn costs_and_nodes_are_exposed() {
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[0], 2);
        let dag = UnfoldedDag::enumerate(&p);
        assert_eq!(dag.cost_of(0), 1.0);
        assert_eq!(dag.node_of(0), 0);
        assert_eq!(dag.in_degrees(), vec![0, 1]);
        assert_eq!(dag.out_edges(0), &dag.edges[..1]);
        assert_eq!(dag.in_edges().of(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "flow index 65536 exceeds u16::MAX")]
    fn a_flow_index_past_u16_panics() {
        // Task 0 feeds tasks 1..=65537 on flows 0..=65536.
        let flows = i32::from(u16::MAX) + 2;
        let edges: Vec<(i32, i32, usize)> = (1..=flows).map(|c| (0, c, 0)).collect();
        UnfoldedDag::enumerate(&program(&edges, &[], &[0], flows as u64 + 1));
    }

    #[test]
    #[should_panic(expected = "flow bytes 4294967296 exceeds u32::MAX")]
    fn a_flow_past_u32_bytes_panics() {
        let bytes = u32::MAX as usize + 1;
        UnfoldedDag::enumerate(&program_with_bytes(&[(0, 1, 0)], &[(1, 1)], &[0], 2, bytes));
    }

    #[test]
    #[should_panic(expected = "task graph is inconsistent")]
    fn assert_consistent_panics_on_fault() {
        let p = program(&[(0, 1, 0)], &[(1, 3)], &[0], 2);
        assert_consistent(&p);
    }

    #[test]
    #[should_panic(expected = "unknown task class 1")]
    fn root_of_an_unknown_class_panics() {
        let mut p = program(&[], &[], &[0], 1);
        p.roots.push(TaskKey::new(1, [0; 4]));
        UnfoldedDag::enumerate(&p);
    }

    /// What [`oracle`] finds: an [`UnfoldedDag`]'s data without its index.
    struct Oracle {
        tasks: Vec<TaskKey>,
        roots: Vec<usize>,
        edges: Vec<EdgeRef>,
        faults: Vec<StructuralFault>,
    }

    /// The hash-indexed enumeration this module used before tasks were
    /// found by slot, kept as the reference the dense index must match.
    fn oracle(program: &Program, limit: usize) -> Oracle {
        let graph = Arc::clone(&program.graph);
        let mut tasks: Vec<TaskKey> = Vec::new();
        let mut index: Map<TaskKey, usize> = Map::new();
        let mut edges: Vec<EdgeRef> = Vec::new();
        let mut faults: Vec<StructuralFault> = Vec::new();
        let mut staged: Vec<(usize, TaskKey, usize, usize, usize)> = Vec::new();
        let edge =
            |producer: usize, consumer: usize, flow: usize, slot: usize, bytes: usize| EdgeRef {
                producer: producer as u32,
                consumer: consumer as u32,
                flow: flow as u16,
                slot: slot as u16,
                bytes: bytes as u32,
            };
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut truncated = false;
        let discover = |key: TaskKey,
                        tasks: &mut Vec<TaskKey>,
                        index: &mut Map<TaskKey, usize>,
                        queue: &mut VecDeque<usize>|
         -> Option<usize> {
            if let Some(&i) = index.get(&key) {
                return Some(i);
            }
            if tasks.len() >= limit {
                return None;
            }
            let i = tasks.len();
            tasks.push(key);
            index.insert(key, i);
            queue.push_back(i);
            Some(i)
        };
        let mut roots = Vec::new();
        for &root in &program.roots {
            match discover(root, &mut tasks, &mut index, &mut queue) {
                Some(i) => roots.push(i),
                None => truncated = true,
            }
        }
        let mut deps = Vec::new();
        while let Some(pi) = queue.pop_front() {
            let key = tasks[pi];
            let class = graph.class(key.class);
            let flows = class.num_output_flows(key.params);
            class.outputs(key.params, &mut deps);
            for dep in deps.drain(..) {
                if dep.flow >= flows {
                    faults.push(StructuralFault::FlowOutOfRange {
                        task: key,
                        flow: dep.flow,
                        flows,
                    });
                }
                let slots = graph
                    .class(dep.consumer.class)
                    .num_input_slots(dep.consumer.params);
                if dep.slot >= slots {
                    faults.push(StructuralFault::SlotOutOfRange {
                        task: dep.consumer,
                        slot: dep.slot,
                        slots,
                    });
                }
                let bytes = if dep.flow < flows { dep.bytes } else { 0 };
                match discover(dep.consumer, &mut tasks, &mut index, &mut queue) {
                    Some(ci) => edges.push(edge(pi, ci, dep.flow, dep.slot, bytes)),
                    None => {
                        truncated = true;
                        staged.push((pi, dep.consumer, dep.flow, dep.slot, bytes));
                    }
                }
            }
        }
        for (pi, consumer, flow, slot, bytes) in staged {
            if let Some(&ci) = index.get(&consumer) {
                edges.push(edge(pi, ci, flow, slot, bytes));
            }
        }
        faults.extend(
            tasks
                .iter()
                .filter(|&&key| graph.try_slot(key).is_none())
                .map(|&key| StructuralFault::OutsideBox {
                    key,
                    bound: graph.class(key.class).param_box(),
                }),
        );
        if truncated {
            faults.push(StructuralFault::Truncated { limit });
        } else {
            let mut indeg = vec![0usize; tasks.len()];
            let mut slot_seen: Map<(usize, usize), usize> = Map::new();
            for e in &edges {
                indeg[e.consumer as usize] += 1;
                *slot_seen
                    .entry((e.consumer as usize, e.slot as usize))
                    .or_default() += 1;
            }
            for (i, &key) in tasks.iter().enumerate() {
                let declared = graph.class(key.class).activation_count(key.params);
                if declared != indeg[i] {
                    faults.push(StructuralFault::IndegreeMismatch {
                        task: key,
                        declared,
                        actual: indeg[i],
                    });
                }
            }
            let mut collisions: Vec<(usize, usize)> = slot_seen
                .into_iter()
                .filter(|&(_, count)| count > 1)
                .map(|(at, _)| at)
                .collect();
            collisions.sort_unstable();
            for (ti, slot) in collisions {
                faults.push(StructuralFault::SlotCollision {
                    task: tasks[ti],
                    slot,
                });
            }
            if tasks.len() as u64 != program.total_tasks {
                faults.push(StructuralFault::TotalMismatch {
                    declared: program.total_tasks,
                    reachable: tasks.len() as u64,
                });
            }
        }
        Oracle {
            tasks,
            roots,
            edges,
            faults,
        }
    }

    #[test]
    fn dense_index_matches_the_hash_oracle_on_random_programs() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        // How often each injected fault showed up across the corpus.
        let mut seen: Map<&str, usize> = Map::new();
        for _ in 0..2_000 {
            let n = 2 + next(30) as i32;
            let density = 1 + next(4);
            let mut edges = Vec::new();
            let mut indeg = vec![0usize; n as usize];
            for to in 1..n {
                for from in 0..to {
                    if next(10) < density {
                        edges.push((from, to, indeg[to as usize]));
                        indeg[to as usize] += 1;
                    }
                }
            }
            let roots: Vec<i32> = (0..n).filter(|&t| indeg[t as usize] == 0).collect();
            let mut declared: Vec<(i32, usize)> = (0..n).zip(indeg.iter().copied()).collect();
            let (mut total, mut limit) = (n as u64, DEFAULT_TASK_LIMIT);
            let mut p = match next(6) {
                // a repeated slot (or one past the consumer's slots)
                1 => {
                    for e in &mut edges {
                        if next(4) == 0 {
                            e.2 = next(indeg[e.1 as usize] as u64 + 1) as usize;
                        }
                    }
                    program(&edges, &declared, &roots, total)
                }
                // a wrong activation count
                2 => {
                    let (_, count) = &mut declared[next(n as u64) as usize];
                    *count = if next(2) == 0 {
                        *count + 1
                    } else {
                        count.saturating_sub(1)
                    };
                    program(&edges, &declared, &roots, total)
                }
                // a box one task short
                3 => {
                    let mut p = program(&edges, &declared, &roots, total - 1);
                    p.total_tasks = total;
                    p
                }
                // a limit below the task count
                4 => {
                    limit = 1 + next(n as u64 - 1) as usize;
                    program(&edges, &declared, &roots, total)
                }
                // a wrong total
                5 => {
                    let mut p = program(&edges, &declared, &roots, total);
                    total = if next(2) == 0 { total + 1 } else { total - 1 };
                    p.total_tasks = total;
                    p
                }
                _ => program(&edges, &declared, &roots, total),
            };
            if next(8) == 0 {
                // a root listed twice
                p.roots.push(p.roots[0]);
            }
            let got = UnfoldedDag::enumerate_with_limit(&p, limit);
            let want = oracle(&p, limit);
            assert_eq!(got.tasks, want.tasks);
            assert_eq!(got.roots, want.roots);
            assert_eq!(got.edges, want.edges);
            assert_eq!(got.faults, want.faults);
            assert!(got.edges.is_sorted_by_key(|e| e.producer));
            let mut into: Vec<Vec<u32>> = vec![Vec::new(); got.len()];
            for (i, e) in want.edges.iter().enumerate() {
                into[e.consumer as usize].push(i as u32);
            }
            let in_edges = got.in_edges();
            for (i, into) in into.iter().enumerate() {
                let from: Vec<EdgeRef> = want
                    .edges
                    .iter()
                    .filter(|e| e.producer as usize == i)
                    .copied()
                    .collect();
                assert_eq!(got.out_edges(i), from);
                assert_eq!(in_edges.of(i), into);
            }
            for f in &got.faults {
                let kind = match f {
                    StructuralFault::SlotOutOfRange { .. } => "slot out of range",
                    StructuralFault::SlotCollision { .. } => "slot collision",
                    StructuralFault::IndegreeMismatch { .. } => "indegree",
                    StructuralFault::OutsideBox { .. } => "outside box",
                    StructuralFault::Truncated { .. } => "truncated",
                    StructuralFault::TotalMismatch { .. } => "total",
                    StructuralFault::FlowOutOfRange { .. } => "flow out of range",
                };
                *seen.entry(kind).or_default() += 1;
            }
        }
        for kind in [
            "slot out of range",
            "slot collision",
            "indegree",
            "outside box",
            "truncated",
            "total",
        ] {
            assert!(
                seen.get(kind).copied().unwrap_or(0) >= 20,
                "{kind}: {seen:?}"
            );
        }
    }
}
