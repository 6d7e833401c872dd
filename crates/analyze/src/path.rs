//! Critical-path analysis and the makespan lower bound.
//!
//! With per-task service times from [`runtime::TaskClass::cost`], the
//! longest cost-weighted dependence chain bounds the makespan from below
//! no matter how many workers run — and so does the busiest node's total
//! work divided by its worker lanes, since owner-computes placement pins
//! every task to its node. The simulated executor's service times are
//! exactly `cost` and communication only ever delays tasks, so a
//! simulated `RunReport.makespan` can never beat
//! [`PathStats::makespan_lower_bound`].

use runtime::UnfoldedDag;

/// Critical-path statistics of one unfolded DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Length (seconds) of the longest cost-weighted dependence chain.
    pub critical_path: f64,
    /// Total task cost placed on each node, indexed by `NodeId`.
    pub node_work: Vec<f64>,
    /// Worker lanes per node assumed for the work bound.
    pub lanes: u32,
    /// `max(critical_path, max(node_work) / lanes)` — no schedule on this
    /// machine shape can finish faster.
    pub makespan_lower_bound: f64,
}

/// Longest-path DP over a topological order (`topo` must order `dag`).
pub(crate) fn critical_path(dag: &UnfoldedDag, topo: &[usize], lanes: u32) -> PathStats {
    // dist[i] accumulates max-over-predecessors before i is visited, so a
    // single forward sweep adding the task's own cost suffices.
    let mut dist = vec![0.0f64; dag.len()];
    let mut node_work: Vec<f64> = Vec::new();
    let mut critical = 0.0f64;
    for &i in topo {
        let node = dag.node_of(i) as usize;
        if node >= node_work.len() {
            node_work.resize(node + 1, 0.0);
        }
        let cost = dag.cost_of(i);
        node_work[node] += cost;
        dist[i] += cost;
        critical = critical.max(dist[i]);
        for e in dag.out_edges(i) {
            let c = e.consumer as usize;
            if dist[i] > dist[c] {
                dist[c] = dist[i];
            }
        }
    }
    let lanes = lanes.max(1);
    let busiest = node_work.iter().copied().fold(0.0f64, f64::max);
    PathStats {
        critical_path: critical,
        node_work,
        lanes,
        makespan_lower_bound: critical.max(busiest / lanes as f64),
    }
}
