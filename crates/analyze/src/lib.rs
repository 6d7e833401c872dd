//! Static task-graph verifier for [`runtime`] programs.
//!
//! The executors discover the DAG dynamically and can only tell you a run
//! hung *after* it hung. This crate unfolds the parameterized task graph
//! once ([`runtime::UnfoldedDag`]) and proves properties about every
//! schedule before any run:
//!
//! * **Structural consistency** — the checks the retired
//!   `runtime::validate` pass performed (activation counts, slot wiring,
//!   task totals), reported as [`Diagnostic::Structural`].
//! * **Deadlock freedom** — a dependence cycle means the tasks on it can
//!   never fire; [`Diagnostic::Deadlock`] carries a shortest cycle as a
//!   witness.
//! * **Write-race freedom** — two DAG-unordered tasks writing
//!   intersecting rectangles of one address space (declared by
//!   [`runtime::TaskClass::footprint`]) make the final state
//!   schedule-dependent;
//!   [`Diagnostic::WriteRace`] names the pair. Each space's writers are
//!   certified link by link along their topological chain — O(N + E)
//!   overall when every link is a direct edge, as each stencil tile's
//!   self-flow is — and only a pair across a broken link costs a
//!   rank-bounded search.
//! * **Communication volume** — every cross-node edge is exactly one
//!   runtime message, so [`CommStats`] predicts the dynamic
//!   `obs::names::MESSAGES_SENT`/`BYTES_SENT` counters exactly
//!   ([`Analysis::expected_counters`] packages the prediction for
//!   [`obs::MetricsSnapshot::verify`]).
//! * **Critical path** — the longest cost-weighted chain and the
//!   busiest-node work bound give a makespan no schedule can beat
//!   ([`PathStats`]); the simulated executor's reported makespan must
//!   never be below it.
//!
//! ```
//! # use analyze::{analyze_program, AnalyzeConfig};
//! # let program = analyze::doctest_program();
//! let analysis = analyze_program(&program, &AnalyzeConfig::new());
//! assert!(analysis.is_clean(), "{}", analysis.report());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod comm;
pub mod dataflow;
mod deadlock;
mod diag;
mod footprint;
mod path;
mod race;
pub mod rectset;

pub use comm::{peer_matrix, verify_comm_matrix, CommStats, FlopStats, PeerComm};
pub use dataflow::{DataflowMode, DataflowReport};
pub use diag::Diagnostic;
pub use path::PathStats;
pub use rectset::RectSet;

use obs::ExpectedCounters;
use runtime::{Program, StructuralFault, UnfoldedDag};

/// Knobs for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    lanes: u32,
    task_limit: usize,
    races: bool,
    dataflow: Option<DataflowMode>,
}

impl AnalyzeConfig {
    /// Defaults: one worker lane per node, the runtime's default task
    /// limit, the race pass enabled, and the region-dataflow pass off.
    pub fn new() -> Self {
        AnalyzeConfig {
            lanes: 1,
            task_limit: runtime::unfold::DEFAULT_TASK_LIMIT,
            races: true,
            dataflow: None,
        }
    }

    /// Worker lanes per node, used by the makespan lower bound (match the
    /// machine profile's compute threads).
    pub fn with_lanes(mut self, lanes: u32) -> Self {
        self.lanes = lanes;
        self
    }

    /// Cap on enumerated tasks; exceeding it truncates the analysis with
    /// a [`StructuralFault::Truncated`] diagnostic.
    pub fn with_task_limit(mut self, limit: usize) -> Self {
        self.task_limit = limit;
        self
    }

    /// Disable the write-race pass, so a benchmark can time the other
    /// passes apart from it.
    pub fn without_races(mut self) -> Self {
        self.races = false;
        self
    }

    /// Enable the region-dataflow pass (halo-coverage proof, dead
    /// transfers, steady-state verification) in the given mode. Off by
    /// default: it only makes sense for programs declaring read/delivered
    /// footprints, and [`assert_clean`] deliberately keeps the seed
    /// behavior.
    pub fn with_dataflow(mut self, mode: DataflowMode) -> Self {
        self.dataflow = Some(mode);
        self
    }
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything one analysis run established about a program.
#[derive(Debug)]
pub struct Analysis {
    /// Number of tasks enumerated.
    pub tasks: usize,
    /// Number of dependence edges enumerated.
    pub edges: usize,
    /// Defects found; empty means the program is clean.
    pub diagnostics: Vec<Diagnostic>,
    /// Static message/byte volume by edge class.
    pub comm: CommStats,
    /// Static useful/redundant flop totals.
    pub flops: FlopStats,
    /// Critical-path statistics; `None` when the DAG was cyclic or
    /// truncated (no topological order to sweep).
    pub path: Option<PathStats>,
    /// Region-dataflow results; `None` unless enabled via
    /// [`AnalyzeConfig::with_dataflow`] (and the DAG was acyclic and
    /// untruncated, like the other ordering-sensitive passes).
    pub dataflow: Option<DataflowReport>,
}

impl Analysis {
    /// True when no diagnostic fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable report: one line per diagnostic (capped at 20),
    /// or "clean".
    pub fn report(&self) -> String {
        if self.is_clean() {
            return "clean".to_string();
        }
        let lines: Vec<String> = self
            .diagnostics
            .iter()
            .take(20)
            .map(|d| format!("  {d}"))
            .collect();
        format!(
            "{} diagnostic(s):\n{}",
            self.diagnostics.len(),
            lines.join("\n")
        )
    }

    /// The counter values a dynamic run of the same program must observe,
    /// for [`obs::MetricsSnapshot::verify`]: tasks executed, cross-node
    /// messages and bytes, and redundant flops.
    pub fn expected_counters(&self) -> ExpectedCounters {
        ExpectedCounters::new()
            .expect(obs::names::TASKS_EXECUTED, self.tasks as u64)
            .expect(obs::names::MESSAGES_SENT, self.comm.cross_messages)
            .expect(obs::names::BYTES_SENT, self.comm.cross_bytes)
            .expect(obs::names::REDUNDANT_FLOPS, self.flops.redundant)
    }
}

/// Enumerate `program`'s DAG under `config`'s task limit — the same
/// enumeration [`analyze_program`] starts from, exposed so callers that
/// need the graph itself (e.g. the `insight` crate joining trace spans to
/// task instances) can unfold once and share it with [`analyze_dag`].
pub fn unfold(program: &Program, config: &AnalyzeConfig) -> UnfoldedDag {
    UnfoldedDag::enumerate_with_limit(program, config.task_limit)
}

/// Run every static pass over `program`.
pub fn analyze_program(program: &Program, config: &AnalyzeConfig) -> Analysis {
    analyze_dag(&unfold(program, config), config)
}

/// Run every static pass over an already-enumerated DAG.
pub fn analyze_dag(dag: &UnfoldedDag, config: &AnalyzeConfig) -> Analysis {
    let mut diagnostics: Vec<Diagnostic> = dag
        .faults
        .iter()
        .cloned()
        .map(Diagnostic::Structural)
        .collect();
    let truncated = dag
        .faults
        .iter()
        .any(|f| matches!(f, StructuralFault::Truncated { .. }));

    // A truncated DAG has partial edges: ordering-sensitive passes would
    // report phantom cycles/races, so they are skipped (the Truncated
    // diagnostic already marks the analysis unsound).
    let topo = if truncated { None } else { dag.topo_order() };
    if !truncated && topo.is_none() {
        diagnostics.push(Diagnostic::Deadlock {
            cycle: deadlock::find_cycle(dag),
        });
    }
    // The race and dataflow passes read one table, so each task's
    // footprint is declared at most once per analysis; its read, pinned
    // and delivered regions are kept only for the dataflow pass.
    let mut dataflow_report = None;
    let wants_footprints = config.races || config.dataflow.is_some();
    if let Some(topo) = topo.as_ref().filter(|_| wants_footprints) {
        let fps = footprint::Footprints::collect(dag, config.dataflow.is_some());
        if config.races {
            diagnostics.extend(race::find_races(dag, &fps, topo));
        }
        if let Some(mode) = config.dataflow {
            let (dx, report) = dataflow::run(dag, &fps, topo, mode);
            diagnostics.extend(dx);
            dataflow_report = Some(report);
        }
    }

    Analysis {
        tasks: dag.len(),
        edges: dag.edges.len(),
        diagnostics,
        comm: comm::account_comm(dag),
        flops: comm::account_flops(dag),
        path: topo.map(|t| path::critical_path(dag, &t, config.lanes)),
        dataflow: dataflow_report,
    }
}

/// Analyze with default config and panic with the report on any
/// diagnostic. Drop-in successor of the retired `runtime::assert_valid`;
/// returns the [`Analysis`] for further checks.
pub fn assert_clean(program: &Program) -> Analysis {
    let analysis = analyze_program(program, &AnalyzeConfig::new());
    assert!(
        analysis.is_clean(),
        "program failed static analysis: {}",
        analysis.report()
    );
    analysis
}

/// "class(p0,p1,p2,p3)" — the human-readable task name used in witnesses.
pub(crate) fn task_name(dag: &UnfoldedDag, i: usize) -> String {
    let key = dag.tasks[i];
    let p = key.params;
    format!(
        "{}({},{},{},{})",
        dag.graph.class(key.class).name(),
        p[0],
        p[1],
        p[2],
        p[3]
    )
}

/// A tiny known-clean program for the crate-level doctest. Hidden from
/// docs; not part of the API.
#[doc(hidden)]
pub fn doctest_program() -> Program {
    use std::sync::Arc;
    let mut g = runtime::TaskGraph::new();
    struct Chain;
    impl runtime::TaskClass for Chain {
        fn name(&self) -> &str {
            "chain"
        }
        fn param_box(&self) -> [u32; 4] {
            [3, 1, 1, 1]
        }
        // `runtime`'s NodeId is an alias for u32, so no netsim dependency
        // is needed to implement the trait here.
        fn node_of(&self, _p: runtime::Params) -> u32 {
            0
        }
        fn activation_count(&self, p: runtime::Params) -> usize {
            usize::from(p[0] > 0)
        }
        fn num_output_flows(&self, p: runtime::Params) -> usize {
            usize::from(p[0] < 2)
        }
        fn outputs(&self, p: runtime::Params, out: &mut Vec<runtime::OutputDep>) {
            if p[0] < 2 {
                out.push(runtime::OutputDep {
                    flow: 0,
                    consumer: runtime::TaskKey::new(0, [p[0] + 1, 0, 0, 0]),
                    slot: 0,
                    bytes: 8,
                });
            }
        }
        fn execute(
            &self,
            _p: runtime::Params,
            _inputs: &mut [Option<runtime::FlowData>],
            out: &mut Vec<runtime::FlowData>,
        ) {
            out.push(runtime::FlowData::sized(8));
        }
        fn cost(&self, _p: runtime::Params) -> f64 {
            1e-6
        }
    }
    g.add_class(Arc::new(Chain));
    Program {
        graph: Arc::new(g),
        roots: vec![runtime::TaskKey::new(0, [0, 0, 0, 0])],
        total_tasks: 3,
    }
}

#[cfg(test)]
mod tests;
