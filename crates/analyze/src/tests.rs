//! Seeded-bug suite: hand-built programs, each broken in exactly one way,
//! prove every diagnostic kind fires with the right witness — plus clean
//! fixtures locking in the accounting and critical-path numbers.

use super::*;
use runtime::{
    FlowData, Footprint, OutputDep, Params, Rect, TaskClass, TaskGraph, TaskKey, UnfoldedDag,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Explicit single-class DAG over `params[0]`, with optional per-task
/// placement, write regions, and redundant-flop declarations.
#[derive(Default)]
struct TestDag {
    /// Task indices lie in `0..tasks`; [`program_of`] sets it to the
    /// program's declared total.
    tasks: u32,
    edges: HashMap<i32, Vec<(i32, usize)>>,
    indeg: HashMap<i32, usize>,
    node: HashMap<i32, u32>,
    /// Written (space, rectangle) per task.
    writes: HashMap<i32, (u64, Rect)>,
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
    fn param_box(&self) -> [u32; 4] {
        [self.tasks, 1, 1, 1]
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
            bytes: self.bytes,
        }));
    }
    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        out.resize(self.num_output_flows(p), FlowData::sized(self.bytes));
    }
    fn cost(&self, _p: Params) -> f64 {
        self.cost
    }
    fn footprint(&self, p: Params, fp: &mut Footprint) {
        if let Some(&(space, rect)) = self.writes.get(&p[0]) {
            fp.set_write(space, rect);
        }
    }
    fn redundant_flops(&self, p: Params) -> u64 {
        *self.redundant.get(&p[0]).unwrap_or(&0)
    }
}

fn program_of(dag: TestDag, roots: &[i32], total: u64) -> Program {
    let mut g = TaskGraph::new();
    g.add_class(Arc::new(TestDag {
        tasks: total as u32,
        ..dag
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
    dag.writes.insert(1, (5, Rect::new(0, 0, 4, 4)));
    dag.writes.insert(2, (5, Rect::new(2, 2, 4, 4)));
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
    dag.writes.insert(1, (5, Rect::new(0, 0, 4, 4)));
    dag.writes.insert(2, (5, Rect::new(2, 2, 4, 4)));
    assert_clean(&program_of(dag, &[0], 3));
}

#[test]
fn distinct_spaces_do_not_race() {
    // fork again, same global rect, but each task writes its own space —
    // the CA halo-recompute pattern (private ghost rings)
    let mut dag = TestDag::new(&[(0, 1, 0), (0, 2, 0)]);
    for (task, space) in [(1, 5), (2, 6)] {
        dag.writes.insert(task, (space, Rect::new(0, 0, 4, 4)));
    }
    assert_clean(&program_of(dag, &[0], 3));
}

/// All-pairs oracle for the race pass: full forward reachability from
/// every writer, with every overlapping later writer of its space checked,
/// in the pass's report order (space, then topological rank).
fn oracle_races(dag: &UnfoldedDag, topo: &[usize]) -> Vec<Diagnostic> {
    let mut rank = vec![0; dag.len()];
    for (r, &i) in topo.iter().enumerate() {
        rank[i] = r;
    }
    let mut groups: std::collections::BTreeMap<u64, Vec<(usize, Rect)>> = Default::default();
    let mut fp = Footprint::default();
    for (i, &key) in dag.tasks.iter().enumerate() {
        fp.clear();
        dag.graph.class(key.class).footprint(key.params, &mut fp);
        if let Some((space, rect)) = fp.write() {
            groups.entry(space).or_default().push((i, rect));
        }
    }
    let mut races = Vec::new();
    for (space, mut members) in groups {
        members.sort_by_key(|&(i, _)| rank[i]);
        for (ai, &(a, ra)) in members.iter().enumerate() {
            let mut reach = std::collections::HashSet::from([a]);
            let mut stack = vec![a];
            while let Some(i) = stack.pop() {
                for e in dag.out_edges(i) {
                    let c = e.consumer as usize;
                    if reach.insert(c) {
                        stack.push(c);
                    }
                }
            }
            for &(b, rb) in &members[ai + 1..] {
                if ra.intersects(&rb) && !reach.contains(&b) {
                    races.push(Diagnostic::WriteRace {
                        first: task_name(dag, a),
                        second: task_name(dag, b),
                        space,
                    });
                }
            }
        }
    }
    races
}

/// Run the race pass and the oracle over `p`'s DAG, assert they agree
/// exactly, and return the pass's diagnostics.
fn races_match_oracle(p: &Program) -> Vec<Diagnostic> {
    let dag = unfold(p, &AnalyzeConfig::new());
    assert!(dag.is_consistent(), "{:?}", dag.faults);
    let topo = dag.topo_order().expect("acyclic");
    let fps = footprint::Footprints::collect(&dag, false);
    let races = race::find_races(&dag, &fps, &topo);
    assert_eq!(races, oracle_races(&dag, &topo));
    races
}

/// Declare `(task, space, rect)` writes on `dag`.
fn with_writes(mut dag: TestDag, writes: &[(i32, u64, Rect)]) -> TestDag {
    for &(task, space, rect) in writes {
        dag.writes.insert(task, (space, rect));
    }
    dag
}

#[test]
fn race_pass_matches_all_pairs_oracle_on_random_dags() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut total = 0;
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
        let spaces = 1 + next(3);
        let mut dag = TestDag::new(&edges);
        for task in 0..n {
            if next(10) < 7 {
                let rect = Rect::new(
                    next(6) as i64,
                    next(6) as i64,
                    1 + next(3) as u32,
                    1 + next(3) as u32,
                );
                dag.writes.insert(task, (next(spaces), rect));
            }
        }
        let roots: Vec<i32> = (0..n).filter(|&t| indeg[t as usize] == 0).collect();
        total += races_match_oracle(&program_of(dag, &roots, n as u64)).len();
    }
    assert!(total > 100, "corpus too tame: {total} races");
}

#[test]
fn ordered_pair_across_a_broken_link_does_not_race() {
    // writers 1, 2, 3 in rank order; 1 -> 2 and 2 -> 3 are both broken
    // links, but the overlapping pair (1, 3) is ordered by 1 -> 3, a path
    // that skips the unordered middle writer (whose rect is disjoint)
    let dag = with_writes(
        TestDag::new(&[(0, 1, 0), (0, 2, 0), (1, 3, 0)]),
        &[
            (1, 5, Rect::new(0, 0, 4, 4)),
            (2, 5, Rect::new(8, 8, 2, 2)),
            (3, 5, Rect::new(2, 2, 4, 4)),
        ],
    );
    let p = program_of(dag, &[0], 4);
    assert!(races_match_oracle(&p).is_empty());
    assert_clean(&p);
}

#[test]
fn unordered_pair_across_a_broken_link_races() {
    // 1 -> 2 is broken, 2 -> 3 holds; the overlapping pair (1, 3) has no
    // path either way
    let dag = with_writes(
        TestDag::new(&[(0, 1, 0), (0, 2, 0), (2, 3, 0)]),
        &[
            (1, 5, Rect::new(0, 0, 4, 4)),
            (2, 5, Rect::new(8, 8, 2, 2)),
            (3, 5, Rect::new(2, 2, 4, 4)),
        ],
    );
    let p = program_of(dag, &[0], 4);
    let expected = vec![Diagnostic::WriteRace {
        first: "t(1,0,0,0)".into(),
        second: "t(3,0,0,0)".into(),
        space: 5,
    }];
    assert_eq!(races_match_oracle(&p), expected);
    assert_eq!(
        analyze_program(&p, &AnalyzeConfig::new()).diagnostics,
        expected
    );
}

#[test]
fn links_through_non_writers_certify_the_chain() {
    // writers 0, 2, 3 all overlap; task 1 writes nothing but carries the
    // only path from 0 to 2, and 4 is an off-chain branch
    let dag = with_writes(
        TestDag::new(&[(0, 1, 0), (0, 4, 0), (1, 2, 0), (2, 3, 0)]),
        &[
            (0, 5, Rect::new(0, 0, 4, 4)),
            (2, 5, Rect::new(1, 1, 4, 4)),
            (3, 5, Rect::new(2, 2, 4, 4)),
        ],
    );
    let p = program_of(dag, &[0], 5);
    assert!(races_match_oracle(&p).is_empty());
    assert_clean(&p);
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
