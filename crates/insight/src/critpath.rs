//! Realized critical path: the dependence chain the run actually waited
//! on, reconstructed from dynamic spans.
//!
//! `analyze`'s [`PathStats`](analyze::PathStats) gives the *static* chain
//! under modeled costs. Here the chain is rebuilt from measured spans:
//! start at the last task to finish, hop to the predecessor whose span
//! ended last, repeat to a root. Span time on the chain is "busy";
//! daylight between a predecessor's end and its consumer's start is
//! "wait" (scheduling, queueing, or network transit) — the part of the
//! makespan no kernel speedup can remove.

use crate::Join;
use obs::Trace;
use std::collections::BTreeMap;

/// The chain of spans bounding the measured makespan.
#[derive(Debug, Clone)]
pub struct RealizedPath {
    /// Number of tasks on the chain.
    pub tasks: usize,
    /// DAG task indices on the chain, in execution order.
    pub task_indices: Vec<usize>,
    /// Start of the first span on the chain, nanoseconds.
    pub start_ns: u64,
    /// End of the last span on the chain, nanoseconds.
    pub end_ns: u64,
    /// Time on the chain spent inside task spans.
    pub busy_ns: u64,
    /// Daylight between consecutive chain spans.
    pub wait_ns: u64,
    /// Chain busy time split by span kind.
    pub per_kind_busy_ns: BTreeMap<u32, u64>,
    /// Kind names for rendering, resolved from the trace's registry.
    pub kind_names: BTreeMap<u32, String>,
}

impl RealizedPath {
    /// Fraction of the chain's wall-clock extent spent waiting between
    /// spans rather than computing.
    pub fn wait_fraction(&self) -> f64 {
        let extent = self.end_ns.saturating_sub(self.start_ns);
        if extent == 0 {
            0.0
        } else {
            self.wait_ns as f64 / extent as f64
        }
    }
}

/// Walk the realized critical path backwards from the joined task whose
/// span ends last. Returns `None` when no span joined to the DAG.
pub(crate) fn extract(trace: &Trace, join: &Join, _horizon_ns: u64) -> Option<RealizedPath> {
    let mut cur = (0..join.span_of_task.len())
        .filter(|&ti| join.span_of_task[ti].is_some())
        .max_by_key(|&ti| trace.spans[join.span_of_task[ti].expect("filtered")].end_ns)?;

    let mut chain = Vec::new();
    // The chain length is bounded by the task count; the guard below only
    // protects against a cyclic (already-diagnosed-broken) DAG.
    let mut guard = join.span_of_task.len() + 1;
    loop {
        chain.push(cur);
        guard -= 1;
        let next = join
            .preds(cur)
            .filter_map(|p| join.span_of_task[p].map(|si| (p, trace.spans[si].end_ns)))
            .max_by_key(|&(_, end)| end)
            .map(|(p, _)| p);
        match next {
            Some(p) if guard > 0 => cur = p,
            _ => break,
        }
    }
    chain.reverse();

    let mut busy_ns = 0u64;
    let mut wait_ns = 0u64;
    let mut per_kind_busy_ns: BTreeMap<u32, u64> = BTreeMap::new();
    let mut prev_end: Option<u64> = None;
    for &ti in &chain {
        let s = &trace.spans[join.span_of_task[ti].expect("chain tasks are joined")];
        busy_ns += s.duration_ns();
        *per_kind_busy_ns.entry(s.kind).or_default() += s.duration_ns();
        if let Some(pe) = prev_end {
            wait_ns += s.start_ns.saturating_sub(pe);
        }
        prev_end = Some(s.end_ns);
    }
    let first = &trace.spans[join.span_of_task[chain[0]].expect("joined")];
    let last = &trace.spans[join.span_of_task[*chain.last().expect("nonempty")].expect("joined")];
    let kind_names = per_kind_busy_ns
        .keys()
        .map(|&k| (k, obs::chrome::kind_name(trace, k)))
        .collect();
    Some(RealizedPath {
        tasks: chain.len(),
        start_ns: first.start_ns,
        end_ns: last.end_ns,
        busy_ns,
        wait_ns,
        per_kind_busy_ns,
        kind_names,
        task_indices: chain,
    })
}
