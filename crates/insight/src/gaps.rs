//! Idle-gap attribution: classify every worker-lane gap as comm-wait,
//! dependency-wait, or starvation.
//!
//! A gap on `(node, lane)` ends because some task span starts there. That
//! span is joined back to its DAG task instance; the predecessors' spans
//! then explain the wait:
//!
//! * the latest-ending predecessor ran on a **different node** — the lane
//!   was waiting for data to cross the network: **comm-wait**;
//! * the latest predecessor is local but its span **overlaps the gap** —
//!   the lane was waiting for a local dependency: **dependency-wait**;
//! * every predecessor finished before the gap began, yet remote inputs
//!   exist and the node's comm lane was busy during the gap — the message
//!   was still in flight or queued behind the comm engine: **comm-wait**;
//! * otherwise the task was (as far as the trace shows) runnable while
//!   the lane sat idle — scheduling **starvation**. Trailing gaps (no
//!   following span before the horizon) and gaps before spans that could
//!   not be joined to the DAG also land here unless comm activity
//!   overlaps them.

use crate::Join;
use obs::{SpanRecord, Trace, KIND_COMM};
use runtime::UnfoldedDag;
use std::collections::HashMap;

/// Why a worker lane sat idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GapCause {
    /// Waiting on data from another node (network transit, comm-engine
    /// queueing, or a remote predecessor still computing).
    CommWait,
    /// Waiting on a local predecessor task still running.
    DependencyWait,
    /// No recorded producer explains the gap: the scheduler had nothing
    /// for the lane (ramp-up, drain, or load imbalance).
    Starvation,
}

impl std::fmt::Display for GapCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GapCause::CommWait => "comm-wait",
            GapCause::DependencyWait => "dependency-wait",
            GapCause::Starvation => "starvation",
        })
    }
}

/// One classified idle interval on a worker lane.
#[derive(Debug, Clone)]
pub struct ClassifiedGap {
    /// Node rank.
    pub node: u32,
    /// Worker lane on that node.
    pub lane: u32,
    /// Gap start, nanoseconds.
    pub start_ns: u64,
    /// Gap end (start of the next span, or the horizon), nanoseconds.
    pub end_ns: u64,
    /// Attributed cause.
    pub cause: GapCause,
}

impl ClassifiedGap {
    /// Gap length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy/wait time totals over all worker lanes of all traced nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct GapTotals {
    /// Total lane-time audited: `horizon × lanes × nodes`, nanoseconds.
    pub lane_ns: u64,
    /// Lane-time spent executing task spans.
    pub busy_ns: u64,
    /// Lane-time attributed to [`GapCause::CommWait`].
    pub comm_wait_ns: u64,
    /// Lane-time attributed to [`GapCause::DependencyWait`].
    pub dependency_wait_ns: u64,
    /// Lane-time attributed to [`GapCause::Starvation`].
    pub starvation_ns: u64,
}

impl GapTotals {
    fn frac(&self, part: u64) -> f64 {
        if self.lane_ns == 0 {
            0.0
        } else {
            part as f64 / self.lane_ns as f64
        }
    }

    /// Fraction of audited lane-time spent executing tasks.
    pub fn busy_fraction(&self) -> f64 {
        self.frac(self.busy_ns)
    }

    /// Alias for [`GapTotals::busy_fraction`]: the run's worker occupancy.
    pub fn occupancy(&self) -> f64 {
        self.busy_fraction()
    }

    /// Fraction of audited lane-time waiting on the network.
    pub fn comm_wait_fraction(&self) -> f64 {
        self.frac(self.comm_wait_ns)
    }

    /// Fraction of audited lane-time waiting on local dependencies.
    pub fn dependency_wait_fraction(&self) -> f64 {
        self.frac(self.dependency_wait_ns)
    }

    /// Fraction of audited lane-time with no attributable producer.
    pub fn starvation_fraction(&self) -> f64 {
        self.frac(self.starvation_ns)
    }
}

/// Classify every idle gap on every worker lane (`lane < lanes`) of every
/// node present in `trace`.
pub(crate) fn classify(
    trace: &Trace,
    dag: &UnfoldedDag,
    join: &Join,
    lanes: u32,
    horizon_ns: u64,
) -> Vec<ClassifiedGap> {
    // Invert the task→span join so the span ending a gap can be looked up
    // by its position in `trace.spans`.
    let mut task_of_span: HashMap<usize, usize> = HashMap::new();
    for (ti, si) in join.span_of_task.iter().enumerate() {
        if let Some(si) = *si {
            task_of_span.insert(si, ti);
        }
    }
    // Spans indexed by (node, lane, start) to find the one ending a gap,
    // and comm spans per node for the in-flight fallback.
    let mut span_at: HashMap<(u32, u32, u64), usize> = HashMap::new();
    let mut comm_spans: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
    for (si, s) in trace.spans.iter().enumerate() {
        if s.kind == KIND_COMM {
            comm_spans.entry(s.node).or_default().push(s);
        } else {
            span_at.insert((s.node, s.lane, s.start_ns), si);
        }
    }
    let comm_overlaps = |node: u32, from: u64, to: u64| {
        comm_spans
            .get(&node)
            .is_some_and(|v| v.iter().any(|c| c.start_ns < to && c.end_ns > from))
    };

    let mut out = Vec::new();
    for node in trace.nodes() {
        for lane in 0..lanes {
            for (start_ns, end_ns) in trace.idle_gaps(node, lane, horizon_ns) {
                if end_ns <= start_ns {
                    continue;
                }
                let cause = match span_at.get(&(node, lane, end_ns)) {
                    // trailing gap: the lane drained
                    None => GapCause::Starvation,
                    Some(&si) => match task_of_span.get(&si) {
                        // The span never joined to a DAG instance; fall
                        // back to comm-lane overlap as the only signal.
                        None => {
                            if comm_overlaps(node, start_ns, end_ns) {
                                GapCause::CommWait
                            } else {
                                GapCause::Starvation
                            }
                        }
                        Some(&ti) => {
                            attribute(trace, dag, join, ti, node, start_ns, end_ns, &comm_overlaps)
                        }
                    },
                };
                out.push(ClassifiedGap {
                    node,
                    lane,
                    start_ns,
                    end_ns,
                    cause,
                });
            }
        }
    }
    out
}

/// Attribute the gap `(start_ns, end_ns)` on `node` that ended when DAG
/// task `ti` started, using its predecessors' recorded spans.
#[allow(clippy::too_many_arguments)]
fn attribute(
    trace: &Trace,
    dag: &UnfoldedDag,
    join: &Join,
    ti: usize,
    node: u32,
    start_ns: u64,
    end_ns: u64,
    comm_overlaps: &dyn Fn(u32, u64, u64) -> bool,
) -> GapCause {
    let mut latest: Option<&SpanRecord> = None;
    let mut any_remote = false;
    for p in join.preds(ti) {
        any_remote |= dag.node_of(p) != node;
        if let Some(si) = join.span_of_task[p] {
            let s = &trace.spans[si];
            if latest.is_none_or(|l| s.end_ns > l.end_ns) {
                latest = Some(s);
            }
        }
    }
    let Some(latest) = latest else {
        // Root task, or no predecessor span recorded: nothing to wait on.
        return GapCause::Starvation;
    };
    if latest.node != node {
        return GapCause::CommWait;
    }
    // All recorded predecessors are local. If remote inputs exist and the
    // comm engine was active after the last local producer finished, the
    // remaining wait was for a message.
    if any_remote && comm_overlaps(node, latest.end_ns.max(start_ns), end_ns) {
        return GapCause::CommWait;
    }
    if latest.end_ns > start_ns {
        GapCause::DependencyWait
    } else if any_remote {
        // Remote inputs with no comm-span evidence left: still network.
        GapCause::CommWait
    } else {
        GapCause::Starvation
    }
}

/// Aggregate busy/wait totals: busy time is measured directly from worker
/// spans, wait time from the classified gaps.
pub(crate) fn totals(
    trace: &Trace,
    gaps: &[ClassifiedGap],
    lanes: u32,
    horizon_ns: u64,
) -> GapTotals {
    let nodes = trace.nodes();
    let mut t = GapTotals {
        lane_ns: horizon_ns * lanes as u64 * nodes.len() as u64,
        ..GapTotals::default()
    };
    for g in gaps {
        match g.cause {
            GapCause::CommWait => t.comm_wait_ns += g.duration_ns(),
            GapCause::DependencyWait => t.dependency_wait_ns += g.duration_ns(),
            GapCause::Starvation => t.starvation_ns += g.duration_ns(),
        }
    }
    t.busy_ns = t
        .lane_ns
        .saturating_sub(t.comm_wait_ns + t.dependency_wait_ns + t.starvation_ns);
    t
}
