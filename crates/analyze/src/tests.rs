//! Seeded-bug suite: hand-built programs, each broken in exactly one way,
//! prove every diagnostic kind fires with the right witness — plus clean
//! fixtures locking in the accounting and critical-path numbers.

use super::*;
use runtime::{FlowData, OutputDep, Params, Rect, TaskClass, TaskGraph, TaskKey, WriteRegion};
use std::collections::HashMap;
use std::sync::Arc;

/// Explicit single-class DAG over `params[0]`, with optional per-task
/// placement, write regions, and redundant-flop declarations.
#[derive(Default)]
struct TestDag {
    edges: HashMap<i32, Vec<(i32, usize)>>,
    indeg: HashMap<i32, usize>,
    node: HashMap<i32, u32>,
    writes: HashMap<i32, WriteRegion>,
    redundant: HashMap<i32, u64>,
    cost: f64,
    bytes: usize,
}

impl TestDag {
    /// DAG from (producer, consumer, slot) edges with cost 1.0 / 8-byte
    /// flows; in-degrees derived from the edges (consistent by default).
    fn new(edges: &[(i32, i32, usize)]) -> Self {
        let mut dag = TestDag {
            cost: 1.0,
            bytes: 8,
            ..TestDag::default()
        };
        for &(from, to, slot) in edges {
            dag.edges.entry(from).or_default().push((to, slot));
            *dag.indeg.entry(to).or_default() += 1;
        }
        dag
    }
}

impl TaskClass for TestDag {
    fn name(&self) -> &str {
        "t"
    }
    fn node_of(&self, p: Params) -> u32 {
        *self.node.get(&p[0]).unwrap_or(&0)
    }
    fn activation_count(&self, p: Params) -> usize {
        *self.indeg.get(&p[0]).unwrap_or(&0)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        self.edges.get(&p[0]).map_or(0, Vec::len)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        let edges = self.edges.get(&p[0]).into_iter().flatten();
        out.extend(edges.enumerate().map(|(flow, &(c, slot))| OutputDep {
            flow,
            consumer: TaskKey::new(0, [c, 0, 0, 0]),
            slot,
        }));
    }
    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        out.resize(self.num_output_flows(p), FlowData::sized(self.bytes));
    }
    fn output_bytes(&self, _p: Params, _flow: usize) -> usize {
        self.bytes
    }
    fn cost(&self, _p: Params) -> f64 {
        self.cost
    }
    fn write_region(&self, p: Params) -> Option<WriteRegion> {
        self.writes.get(&p[0]).copied()
    }
    fn redundant_flops(&self, p: Params) -> u64 {
        *self.redundant.get(&p[0]).unwrap_or(&0)
    }
}

fn program_of(dag: TestDag, roots: &[i32], total: u64) -> Program {
    let mut g = TaskGraph::new();
    g.add_class(Arc::new(dag));
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
fn clean_diamond_is_clean() {
    let p = program_of(
        TestDag::new(&[(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1)]),
        &[0],
        4,
    );
    let a = assert_clean(&p);
    assert_eq!((a.tasks, a.edges), (4, 4));
    assert!(a.is_clean());
    assert_eq!(a.report(), "clean");
    let path = a.path.expect("acyclic");
    // longest chain 0 -> 1 -> 3 at unit cost
    assert_eq!(path.critical_path, 3.0);
    // all on node 0, 1 lane: work bound 4.0 dominates
    assert_eq!(path.makespan_lower_bound, 4.0);
}

#[test]
fn two_cycle_deadlock_fires_with_minimal_witness() {
    // 0 -> 1 -> 2 -> 1: shortest cycle is 1 <-> 2
    let p = program_of(TestDag::new(&[(0, 1, 0), (1, 2, 0), (2, 1, 1)]), &[0], 3);
    let a = analyze_program(&p, &AnalyzeConfig::new());
    let cycle = a
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::Deadlock { cycle } => Some(cycle.clone()),
            _ => None,
        })
        .expect("deadlock diagnostic must fire");
    assert_eq!(cycle.len(), 2, "minimal witness, got {cycle:?}");
    assert!(cycle.contains(&"t(1,0,0,0)".to_string()), "{cycle:?}");
    assert!(cycle.contains(&"t(2,0,0,0)".to_string()), "{cycle:?}");
    assert!(a.path.is_none(), "no critical path on a cyclic graph");
}

#[test]
fn wrong_activation_count_fires_structural() {
    let mut dag = TestDag::new(&[(0, 1, 0)]);
    dag.indeg.insert(1, 2); // declares 2 inputs, only 1 flow targets it
    let a = analyze_program(&program_of(dag, &[0], 2), &AnalyzeConfig::new());
    assert!(
        a.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Structural(runtime::StructuralFault::IndegreeMismatch {
                declared: 2,
                actual: 1,
                ..
            })
        )),
        "{}",
        a.report()
    );
}

#[test]
fn overlapping_unordered_writes_race() {
    // fork: 1 and 2 both write space 5, overlapping rects, no path between
    let mut dag = TestDag::new(&[(0, 1, 0), (0, 2, 0)]);
    dag.writes.insert(
        1,
        WriteRegion {
            space: 5,
            rect: Rect::new(0, 0, 4, 4),
        },
    );
    dag.writes.insert(
        2,
        WriteRegion {
            space: 5,
            rect: Rect::new(2, 2, 4, 4),
        },
    );
    let p = program_of(dag, &[0], 3);
    let a = analyze_program(&p, &AnalyzeConfig::new());
    match &a.diagnostics[..] {
        [Diagnostic::WriteRace {
            first,
            second,
            space: 5,
        }] => {
            assert_eq!(first, "t(1,0,0,0)");
            assert_eq!(second, "t(2,0,0,0)");
        }
        other => panic!("expected exactly one write race, got {other:?}"),
    }
    // the race pass can be opted out for bench-scale graphs
    let quiet = analyze_program(&p, &AnalyzeConfig::new().without_races());
    assert!(quiet.is_clean());
}

#[test]
fn ordered_overlapping_writes_do_not_race() {
    // chain: same overlapping writes as above, but 1 -> 2 orders them
    let mut dag = TestDag::new(&[(0, 1, 0), (1, 2, 0)]);
    dag.writes.insert(
        1,
        WriteRegion {
            space: 5,
            rect: Rect::new(0, 0, 4, 4),
        },
    );
    dag.writes.insert(
        2,
        WriteRegion {
            space: 5,
            rect: Rect::new(2, 2, 4, 4),
        },
    );
    assert_clean(&program_of(dag, &[0], 3));
}

#[test]
fn distinct_spaces_do_not_race() {
    // fork again, same global rect, but each task writes its own space —
    // the CA halo-recompute pattern (private ghost rings)
    let mut dag = TestDag::new(&[(0, 1, 0), (0, 2, 0)]);
    for (task, space) in [(1, 5), (2, 6)] {
        dag.writes.insert(
            task,
            WriteRegion {
                space,
                rect: Rect::new(0, 0, 4, 4),
            },
        );
    }
    assert_clean(&program_of(dag, &[0], 3));
}

#[test]
fn comm_accounting_splits_local_and_cross() {
    // 0 on node 0 feeds 1 (node 0, local) and 2, 3 (node 1, cross)
    let mut dag = TestDag::new(&[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
    dag.bytes = 100;
    dag.node.insert(2, 1);
    dag.node.insert(3, 1);
    let a = assert_clean(&program_of(dag, &[0], 4));
    assert_eq!(a.comm.cross_messages, 2);
    assert_eq!(a.comm.cross_bytes, 200);
    assert_eq!(a.comm.local_messages, 1);
    assert_eq!(a.comm.local_bytes, 100);
    assert_eq!(a.comm.total_messages(), 3);

    let expected = a.expected_counters();
    assert_eq!(expected.get(obs::names::TASKS_EXECUTED), Some(4));
    assert_eq!(expected.get(obs::names::MESSAGES_SENT), Some(2));
    assert_eq!(expected.get(obs::names::BYTES_SENT), Some(200));
    assert_eq!(expected.get(obs::names::REDUNDANT_FLOPS), Some(0));
}

#[test]
fn lanes_tighten_the_work_bound() {
    // root feeding 4 children: chain length 2, node work 5
    let dag = TestDag::new(&[(0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0)]);
    let p = program_of(dag, &[0], 5);
    let one_lane = analyze_program(&p, &AnalyzeConfig::new()).path.unwrap();
    assert_eq!(one_lane.critical_path, 2.0);
    assert_eq!(one_lane.node_work, vec![5.0]);
    assert_eq!(one_lane.makespan_lower_bound, 5.0);
    let four_lanes = analyze_program(&p, &AnalyzeConfig::new().with_lanes(4))
        .path
        .unwrap();
    // 5.0 work / 4 lanes = 1.25 < chain 2.0: the chain now binds
    assert_eq!(four_lanes.makespan_lower_bound, 2.0);
    assert_eq!(four_lanes.lanes, 4);
}

#[test]
fn redundant_flops_summed_over_tasks() {
    let mut dag = TestDag::new(&[(0, 1, 0), (1, 2, 0)]);
    dag.redundant.insert(1, 10);
    dag.redundant.insert(2, 5);
    let a = assert_clean(&program_of(dag, &[0], 3));
    assert_eq!(a.flops.redundant, 15);
    assert_eq!(
        a.expected_counters().get(obs::names::REDUNDANT_FLOPS),
        Some(15)
    );
}

#[test]
fn truncation_skips_ordering_passes() {
    let edges: Vec<(i32, i32, usize)> = (0..50).map(|i| (i, i + 1, 0)).collect();
    let p = program_of(TestDag::new(&edges), &[0], 51);
    let a = analyze_program(&p, &AnalyzeConfig::new().with_task_limit(5));
    assert!(a.diagnostics.iter().any(|d| matches!(
        d,
        Diagnostic::Structural(runtime::StructuralFault::Truncated { limit: 5 })
    )));
    assert!(a.path.is_none(), "truncated DAG has no sound critical path");
    assert_eq!(a.tasks, 5);
}

#[test]
#[should_panic(expected = "failed static analysis")]
fn assert_clean_panics_with_report() {
    let mut dag = TestDag::new(&[(0, 1, 0)]);
    dag.indeg.insert(1, 3);
    assert_clean(&program_of(dag, &[0], 2));
}
