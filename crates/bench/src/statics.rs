//! Static-analyzer columns printed alongside measured figures.
//!
//! Figures 8 and 9 report simulated GFLOP/s; next to each point the
//! harness prints what the [`analyze`] crate predicts *without running
//! anything*: the cross-node message count, the redundant flops the CA
//! scheme pays for its ghost recomputation, and the critical-path
//! makespan lower bound. The default analysis runs, write-race pass
//! included: it certifies each tile's writer chain link by link, so it
//! is linear in the DAG at every figure's scale.

use analyze::{analyze_dag, AnalyzeConfig};
use runtime::{Program, UnfoldedDag};
use serde::Serialize;

/// Statically predicted columns for one program.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StaticCols {
    /// Cross-node messages any run of the program must send.
    pub messages: u64,
    /// Redundant flops the task classes declare (CA halo recomputation).
    pub redundant_flops: u64,
    /// Longest cost-weighted dependence chain, seconds.
    pub critical_path: f64,
    /// `max(critical_path, busiest node work / lanes)` — no schedule on
    /// this machine shape finishes faster.
    pub makespan_bound: f64,
}

/// Analyze `program` with `lanes` worker lanes per node (match the
/// machine profile's compute threads) and extract the figure columns.
pub fn predict(program: &Program, lanes: u32) -> StaticCols {
    predict_dag(&analyze::unfold(program, &AnalyzeConfig::new()), lanes)
}

/// [`predict`] over an already-unfolded DAG, so harnesses that also feed
/// the DAG to [`insight::diagnose`] enumerate the graph once.
pub fn predict_dag(dag: &UnfoldedDag, lanes: u32) -> StaticCols {
    let a = analyze_dag(dag, &AnalyzeConfig::new().with_lanes(lanes));
    let (critical_path, makespan_bound) = a
        .path
        .as_ref()
        .map(|p| (p.critical_path, p.makespan_lower_bound))
        .unwrap_or((f64::NAN, f64::NAN));
    StaticCols {
        messages: a.comm.cross_messages,
        redundant_flops: a.flops.redundant,
        critical_path,
        makespan_bound,
    }
}
