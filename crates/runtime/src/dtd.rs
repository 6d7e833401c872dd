//! Dynamic Task Discovery (DTD): PaRSEC's second DSL, an API that inserts
//! tasks sequentially instead of describing a parameterized graph
//! (Hoque et al., ScalA'17; mentioned in the paper's Section III-B).
//!
//! Tasks may only depend on previously inserted tasks, so the result is a
//! DAG by construction. `build()` produces a [`Program`] runnable on either
//! executor.

use crate::task::{FlowData, Footprint, OutputDep, Params, Program, TaskClass, TaskGraph, TaskKey};
use netsim::NodeId;
use std::sync::Arc;

/// Identifier returned by [`DtdBuilder::insert`].
pub type DtdTaskId = usize;

#[derive(Debug, Clone)]
struct DtdTask {
    node: NodeId,
    cost: f64,
    kind: u32,
    output_bytes: usize,
    deps: Vec<DtdTaskId>,
    /// The declared footprint, with each output flow's delivered region
    /// moved here from the consumer that declared it.
    footprint: Footprint,
    /// (successor, slot-in-successor), filled as successors are inserted.
    successors: Vec<(DtdTaskId, usize)>,
}

/// Sequential task-insertion front-end.
#[derive(Debug, Default)]
pub struct DtdBuilder {
    tasks: Vec<DtdTask>,
}

impl DtdBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a task on `node` with the given service time and
    /// dependencies. Each dependency must identify an already-inserted
    /// task. Returns the new task's id.
    pub fn insert(&mut self, node: NodeId, cost: f64, deps: &[DtdTaskId]) -> DtdTaskId {
        self.insert_full(node, cost, 0, 8, deps)
    }

    /// Insert with full control: trace `kind` and per-successor message
    /// size `output_bytes`.
    pub fn insert_full(
        &mut self,
        node: NodeId,
        cost: f64,
        kind: u32,
        output_bytes: usize,
        deps: &[DtdTaskId],
    ) -> DtdTaskId {
        self.insert_with_regions(node, cost, kind, output_bytes, deps, &Footprint::default())
    }

    /// Like [`insert_full`](Self::insert_full), additionally declaring the
    /// task's memory footprint for the `analyze` crate's static passes.
    /// A DTD task does not know its consumers when it is inserted, so
    /// delivered regions are declared on the consumer's side:
    /// `footprint.delivered(k)` is the region of **this** task's space
    /// that the flow arriving from `deps[k]` makes valid. The program
    /// answers [`TaskClass::footprint`] on the producer's side, like any
    /// other class.
    pub fn insert_with_regions(
        &mut self,
        node: NodeId,
        cost: f64,
        kind: u32,
        output_bytes: usize,
        deps: &[DtdTaskId],
        footprint: &Footprint,
    ) -> DtdTaskId {
        let id = self.tasks.len();
        for (slot, &d) in deps.iter().enumerate() {
            assert!(
                d < id,
                "task {id} depends on {d}, which has not been inserted yet"
            );
            // This task is `d`'s next successor, fed by `d`'s next flow.
            let producer = &mut self.tasks[d];
            if let Some((space, rects)) = footprint.delivered(slot) {
                let flow = producer.successors.len();
                producer
                    .footprint
                    .set_delivered(flow, space, rects.iter().copied());
            }
            producer.successors.push((id, slot));
        }
        let mut own = footprint.clone();
        own.clear_delivered();
        self.tasks.push(DtdTask {
            node,
            cost,
            kind,
            output_bytes,
            deps: deps.to_vec(),
            footprint: own,
            successors: Vec::new(),
        });
        id
    }

    /// Number of inserted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Finalize into a runnable [`Program`]. Panics when empty.
    pub fn build(self) -> Program {
        assert!(!self.tasks.is_empty(), "no tasks inserted");
        let roots: Vec<TaskKey> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.deps.is_empty())
            .map(|(i, _)| TaskKey::new(0, [i as i32, 0, 0, 0]))
            .collect();
        assert!(
            !roots.is_empty(),
            "inserted tasks form no roots (every task has dependencies)"
        );
        let total_tasks = self.tasks.len() as u64;
        let mut graph = TaskGraph::new();
        graph.add_class(Arc::new(DtdClass { tasks: self.tasks }));
        Program {
            graph: Arc::new(graph),
            roots,
            total_tasks,
        }
    }
}

struct DtdClass {
    tasks: Vec<DtdTask>,
}

impl DtdClass {
    fn task(&self, p: Params) -> &DtdTask {
        &self.tasks[p[0] as usize]
    }
}

impl TaskClass for DtdClass {
    fn name(&self) -> &str {
        "dtd"
    }
    fn param_box(&self) -> [u32; 4] {
        // Insertion ids are dense already.
        [self.tasks.len() as u32, 1, 1, 1]
    }
    fn node_of(&self, p: Params) -> NodeId {
        self.task(p).node
    }
    fn activation_count(&self, p: Params) -> usize {
        self.task(p).deps.len()
    }
    fn num_output_flows(&self, p: Params) -> usize {
        // one flow per successor (each successor may need distinct data)
        self.task(p).successors.len()
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        let t = self.task(p);
        let successors = t.successors.iter().enumerate();
        out.extend(successors.map(|(flow, &(succ, slot))| OutputDep {
            flow,
            consumer: TaskKey::new(0, [succ as i32, 0, 0, 0]),
            slot,
            bytes: t.output_bytes,
        }));
    }
    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        let t = self.task(p);
        out.resize(t.successors.len(), FlowData::sized(t.output_bytes));
    }
    fn cost(&self, p: Params) -> f64 {
        self.task(p).cost
    }
    fn kind(&self, p: Params) -> u32 {
        self.task(p).kind
    }
    fn footprint(&self, p: Params, fp: &mut Footprint) {
        fp.clone_from(&self.task(p).footprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run, RunConfig};
    use crate::unfold::assert_consistent;
    use machine::MachineProfile;

    #[test]
    fn diamond_runs_and_validates() {
        let mut b = DtdBuilder::new();
        let a = b.insert(0, 1e-3, &[]);
        let l = b.insert(0, 1e-3, &[a]);
        let r = b.insert(0, 1e-3, &[a]);
        let _s = b.insert(0, 1e-3, &[l, r]);
        let p = b.build();
        assert_consistent(&p);
        let report = run(&p, &RunConfig::simulated(MachineProfile::nacl(), 1));
        assert_eq!(report.tasks_executed, 4);
        // critical path: 3 tasks of 1 ms
        assert!((report.makespan - 3e-3).abs() < 1e-8);
    }

    #[test]
    fn cross_node_dtd_counts_messages() {
        let mut b = DtdBuilder::new();
        let a = b.insert_full(0, 1e-3, 7, 4096, &[]);
        let _c = b.insert(1, 1e-3, &[a]);
        let p = b.build();
        let report = run(&p, &RunConfig::simulated(MachineProfile::nacl(), 2));
        assert_eq!(report.counter(obs::names::MESSAGES_SENT), 1);
        assert_eq!(report.counter(obs::names::BYTES_SENT), 4096);
    }

    #[test]
    #[should_panic(expected = "not been inserted yet")]
    fn forward_dependency_rejected() {
        let mut b = DtdBuilder::new();
        let _ = b.insert(0, 1e-3, &[3]);
    }

    #[test]
    #[should_panic(expected = "no tasks inserted")]
    fn empty_build_rejected() {
        DtdBuilder::new().build();
    }

    #[test]
    fn wide_dtd_graph_parallelizes() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 1e-4, &[]);
        let mids: Vec<_> = (0..44).map(|_| b.insert(0, 1e-3, &[root])).collect();
        let _sink = b.insert(0, 1e-4, &mids);
        let p = b.build();
        assert_consistent(&p);
        let report = run(&p, &RunConfig::simulated(MachineProfile::nacl(), 1));
        // 44 tasks of 1 ms over 11 lanes = 4 ms, plus the endpoints.
        assert!(
            (report.makespan - 4.2e-3).abs() < 1e-6,
            "{}",
            report.makespan
        );
    }
}
