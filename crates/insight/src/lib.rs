//! Trace-driven performance diagnosis for stencil runs.
//!
//! The paper's Figure 10 makes its communication-avoiding argument
//! *through observability*: the CA schedule wins by raising CPU occupancy
//! even though its median kernel is slower. This crate turns that style
//! of argument into an automated report. Given a drained [`obs::Trace`]
//! (whose task spans carry `TaskKey::instance_id` stamps) and the
//! statically unfolded task graph ([`runtime::UnfoldedDag`], shared with
//! the `analyze` crate via [`analyze::unfold`]), [`diagnose`] produces a
//! [`RunDiagnosis`]:
//!
//! * **Idle-gap attribution** ([`gaps`]) — every worker-lane gap is
//!   classified as comm-wait, dependency-wait, or starvation by joining
//!   the span that ended the gap back to its predecessors in the DAG;
//! * **Realized critical path** ([`critpath`]) — the longest chain of
//!   spans actually walked by the run, with a per-kind time breakdown,
//!   to compare against `analyze`'s static makespan lower bound;
//! * **Duration histograms** — log-bucketed p50/p90/p99 per kind
//!   ([`obs::LogHistogram`]), reproducing the median-kernel-vs-occupancy
//!   story as a first-class report;
//! * **Step-size advice** ([`advisor`]) — a recommended `s` from the
//!   measured comm-wait fraction and redundant-flop counters;
//! * **Regression baselines** ([`baseline`]) — a config identity plus
//!   flat named scalars, written and checked with a per-key band by the
//!   `stencil-doctor` and `stencil-whatif` bench binaries;
//! * **Starvation split** ([`starvation`]) — live-sample counters from
//!   the work-stealing executors divide starved lane-time into
//!   no-work-anywhere (steal sweeps failed) vs dispatch lag (ready work
//!   sat undelivered);
//! * **Causal what-if** ([`whatif`]) — a discrete-event replay of the
//!   realized DAG under perturbed costs (Coz-style virtual speedup),
//!   predicting the makespan effect of faster kernels, a faster fabric,
//!   or a slower injection rate. It charges the simulator's own
//!   `netsim::NetworkModel` on the simulator's own event order, and the
//!   `stencil-whatif` bench binary holds every prediction equal to a
//!   simulator re-run, to the nanosecond.

#![deny(missing_docs)]

pub mod advisor;
pub mod baseline;
pub mod critpath;
pub mod gaps;
pub mod starvation;
pub mod whatif;

#[cfg(test)]
mod tests;

pub use advisor::{advise_step, StepAdvice};
pub use baseline::{Band, Baseline};
pub use critpath::RealizedPath;
pub use gaps::{ClassifiedGap, GapCause, GapTotals};
pub use starvation::{split_starvation, StarvationSplit};
pub use whatif::{Perturbation, Prediction, RankedScenario, WhatIf};

use obs::{DurationSummary, LogHistogram, Trace};
use runtime::UnfoldedDag;
use std::collections::{BTreeMap, HashMap};

/// Internal join of a trace onto an unfolded DAG: `span_of_task[i]` is the
/// index into `trace.spans` of the span recorded for DAG task `i`, and
/// `preds[i]` lists `i`'s predecessor task indices.
pub(crate) struct Join {
    pub span_of_task: Vec<Option<usize>>,
    pub preds: Vec<Vec<usize>>,
    pub joined_spans: usize,
    pub unmatched_task_spans: usize,
}

pub(crate) fn join(trace: &Trace, dag: &UnfoldedDag) -> Join {
    let id_index: HashMap<u64, usize> = dag
        .tasks
        .iter()
        .enumerate()
        .map(|(i, k)| (k.instance_id(), i))
        .collect();
    let mut span_of_task = vec![None; dag.len()];
    let mut joined = 0usize;
    let mut unmatched = 0usize;
    for (si, s) in trace.spans.iter().enumerate() {
        if s.kind == obs::KIND_COMM {
            continue;
        }
        match s.task_instance().and_then(|id| id_index.get(&id)) {
            Some(&ti) => {
                span_of_task[ti] = Some(si);
                joined += 1;
            }
            None => unmatched += 1,
        }
    }
    let mut preds = vec![Vec::new(); dag.len()];
    for e in &dag.edges {
        preds[e.consumer].push(e.producer);
    }
    Join {
        span_of_task,
        preds,
        joined_spans: joined,
        unmatched_task_spans: unmatched,
    }
}

/// Per-kind duration statistics across all nodes.
#[derive(Debug, Clone)]
pub struct KindSummary {
    /// Trace kind tag.
    pub kind: u32,
    /// Registered kind name (or `comm`/`kindN` fallback).
    pub name: String,
    /// p50/p90/p99 digest of the span durations.
    pub summary: DurationSummary,
}

/// Everything [`diagnose`] established about one run.
#[derive(Debug)]
pub struct RunDiagnosis {
    /// Latest span end — the trace's makespan, nanoseconds.
    pub horizon_ns: u64,
    /// Worker lanes per node assumed for gap extraction.
    pub lanes: u32,
    /// Task spans successfully joined to DAG task instances.
    pub joined_spans: usize,
    /// Task spans carrying no (or an unknown) instance id.
    pub unmatched_spans: usize,
    /// Every classified worker-lane gap.
    pub gaps: Vec<ClassifiedGap>,
    /// Busy/wait totals over all worker lanes.
    pub totals: GapTotals,
    /// The realized critical path; `None` when no span joined to the DAG.
    pub critical_path: Option<RealizedPath>,
    /// Duration digests per kind across nodes, ordered by kind.
    pub per_kind: Vec<KindSummary>,
}

impl RunDiagnosis {
    /// The achieved makespan in seconds (the trace horizon).
    pub fn achieved_s(&self) -> f64 {
        self.horizon_ns as f64 / 1e9
    }

    /// Mean worker-lane occupancy over all nodes in the trace.
    pub fn occupancy(&self) -> f64 {
        self.totals.occupancy()
    }

    /// The cross-node digest for `kind`, when any span of it was seen.
    pub fn kind_summary(&self, kind: u32) -> Option<&KindSummary> {
        self.per_kind.iter().find(|k| k.kind == kind)
    }

    /// Render the diagnosis as a terminal report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |x: f64| format!("{:5.1} %", x * 100.0);
        out.push_str(&format!(
            "makespan {:.6} s · occupancy {} over {} lanes/node\n",
            self.achieved_s(),
            pct(self.occupancy()),
            self.lanes
        ));
        out.push_str(&format!(
            "worker time: busy {} · comm-wait {} · dependency-wait {} · starvation {}\n",
            pct(self.totals.busy_fraction()),
            pct(self.totals.comm_wait_fraction()),
            pct(self.totals.dependency_wait_fraction()),
            pct(self.totals.starvation_fraction()),
        ));
        out.push_str(&format!(
            "spans joined to task graph: {} ({} unmatched)\n",
            self.joined_spans, self.unmatched_spans
        ));
        out.push_str("per-kind durations (all nodes):\n");
        for k in &self.per_kind {
            let s = &k.summary;
            out.push_str(&format!(
                "  {:>10}  n={:<7} p50 {:.3} ms · p90 {:.3} ms · p99 {:.3} ms · max {:.3} ms\n",
                k.name,
                s.count,
                s.p50_ns as f64 / 1e6,
                s.p90_ns as f64 / 1e6,
                s.p99_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6,
            ));
        }
        if let Some(cp) = &self.critical_path {
            out.push_str(&format!(
                "realized critical path: {} tasks, busy {:.6} s, inter-task wait {:.6} s\n",
                cp.tasks,
                cp.busy_ns as f64 / 1e9,
                cp.wait_ns as f64 / 1e9
            ));
            for (kind, ns) in &cp.per_kind_busy_ns {
                let name = cp
                    .kind_names
                    .get(kind)
                    .cloned()
                    .unwrap_or_else(|| format!("kind{kind}"));
                out.push_str(&format!("    {:>10}: {:.6} s\n", name, *ns as f64 / 1e9));
            }
        } else {
            out.push_str("realized critical path: no spans joined to the task graph\n");
        }
        out
    }
}

/// Diagnose a run: join `trace`'s task spans onto `dag`, classify every
/// worker-lane idle gap, extract the realized critical path, and digest
/// span durations per kind. `lanes` is the worker-lane count per
/// node (the machine profile's compute threads); spans on lanes at or
/// above it (the comm lane) inform classification but are not themselves
/// attributed. Degenerate inputs (empty trace, spans with no ids) degrade
/// gracefully rather than panic.
pub fn diagnose(trace: &Trace, dag: &UnfoldedDag, lanes: u32) -> RunDiagnosis {
    let lanes = lanes.max(1);
    let horizon_ns = trace.horizon_ns();
    let joined = join(trace, dag);
    let gaps = gaps::classify(trace, dag, &joined, lanes, horizon_ns);
    let totals = gaps::totals(trace, &gaps, lanes, horizon_ns);
    let critical_path = critpath::extract(trace, &joined, horizon_ns);

    let mut per_kind: BTreeMap<u32, LogHistogram> = BTreeMap::new();
    for s in &trace.spans {
        per_kind.entry(s.kind).or_default().record(s.duration_ns());
    }
    let per_kind = per_kind
        .into_iter()
        .map(|(kind, h)| KindSummary {
            kind,
            name: obs::chrome::kind_name(trace, kind),
            summary: h.summary(),
        })
        .collect();

    RunDiagnosis {
        horizon_ns,
        lanes,
        joined_spans: joined.joined_spans,
        unmatched_spans: joined.unmatched_task_spans,
        gaps,
        totals,
        critical_path,
        per_kind,
    }
}
