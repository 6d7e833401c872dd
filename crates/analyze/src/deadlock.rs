//! Cycle detection with a minimal witness.
//!
//! [`runtime::UnfoldedDag::topo_order`] already answers *whether* the DAG
//! is cyclic; this pass answers *where*. Kahn's algorithm leaves exactly
//! the cyclic core (tasks on or downstream-and-upstream of a cycle)
//! unordered, so we BFS inside that core from a few start tasks and keep
//! the shortest cycle found — a witness small enough to read.

use crate::task_name;
use runtime::UnfoldedDag;
use std::collections::{HashSet, VecDeque};

/// How many core tasks to try as BFS starts: enough that a short cycle
/// through any of the first few core members is found, bounded so a huge
/// cyclic core does not turn diagnosis quadratic.
const MAX_STARTS: usize = 16;

/// Find a shortest dependence cycle through the cyclic core, as task
/// names in dependence order. Call only when `topo_order()` returned
/// `None`; returns an empty vector if (impossibly) no cycle is found.
pub(crate) fn find_cycle(dag: &UnfoldedDag) -> Vec<String> {
    // Re-run Kahn to identify the core: tasks never drained.
    let mut indeg = dag.in_degrees();
    let mut queue: VecDeque<usize> = (0..dag.len()).filter(|&i| indeg[i] == 0).collect();
    let mut drained = vec![false; dag.len()];
    while let Some(i) = queue.pop_front() {
        drained[i] = true;
        for e in dag.out_edges(i) {
            let c = e.consumer as usize;
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push_back(c);
            }
        }
    }
    let core: HashSet<usize> = (0..dag.len()).filter(|&i| !drained[i]).collect();

    let mut best: Option<Vec<usize>> = None;
    for &start in core.iter().take(MAX_STARTS) {
        if let Some(cycle) = shortest_cycle_through(dag, &core, start) {
            if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                best = Some(cycle);
            }
        }
    }
    best.unwrap_or_default()
        .into_iter()
        .map(|i| task_name(dag, i))
        .collect()
}

/// BFS from `start` restricted to `core`; the first edge closing back on
/// `start` yields a shortest cycle through it.
fn shortest_cycle_through(
    dag: &UnfoldedDag,
    core: &HashSet<usize>,
    start: usize,
) -> Option<Vec<usize>> {
    let mut parent: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(i) = queue.pop_front() {
        for e in dag.out_edges(i) {
            let c = e.consumer as usize;
            if c == start {
                // unwind: start -> ... -> i, cycle closes i -> start
                let mut path = vec![i];
                let mut cur = i;
                while cur != start {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if core.contains(&c) && !parent.contains_key(&c) && c != start {
                parent.insert(c, i);
                queue.push_back(c);
            }
        }
    }
    None
}
