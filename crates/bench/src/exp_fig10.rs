//! Figure 10: one node's execution trace — base vs CA on 16 NaCL nodes at
//! kernel ratio 0.4 — showing that CA achieves higher CPU occupancy, and
//! that its kernels are slightly *slower* individually (extra ghost
//! copies) yet the run is faster overall.

use crate::{iterations, paper_workload, statics};
use analyze::AnalyzeConfig;
use ca_stencil::{
    build_base, build_ca, kind_names, Problem, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR,
};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::fig10;
use runtime::RunConfig;
use serde::Serialize;

/// Digest of one version's trace.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Side {
    /// "base" or "CA".
    pub version: String,
    /// Total run time, seconds.
    pub makespan: f64,
    /// Worker-lane occupancy of the profiled node.
    pub occupancy: f64,
    /// Median boundary-task duration, milliseconds.
    pub boundary_median_ms: Option<f64>,
    /// Median interior-task duration, milliseconds.
    pub interior_median_ms: Option<f64>,
    /// Cluster-wide worker lane-time fraction attributed to comm-wait by
    /// the `insight` idle-gap classifier.
    pub comm_wait_fraction: f64,
    /// Achieved makespan over the static critical-path/work lower bound
    /// (`analyze`); ≥ 1 for any correct simulation.
    pub bound_ratio: f64,
    /// Gantt rows (`lane start_ms end_ms kind`) of the profiled node.
    pub gantt: Vec<String>,
    /// ASCII rendering of the node's lanes over the whole run
    /// (`#` interior task, `B` boundary task, `C` comm thread, `.` idle).
    pub ascii: Vec<String>,
}

/// The figure: both versions on the same configuration.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// Profiled node rank.
    pub node: u32,
    /// Worker lanes per node.
    pub lanes: u32,
    /// Active scheduler name (`runtime::RunReport::scheduler`) — both
    /// sides run under the same policy.
    pub scheduler: String,
    /// Both sides.
    pub sides: Vec<Fig10Side>,
}

/// The figure plus the full span traces (one per side, in `sides`
/// order) — kept outside [`Fig10`] so the figure itself stays
/// JSON-serializable while the traces go to Chrome `trace_event` export.
#[derive(Debug, Clone)]
pub struct Fig10Run {
    /// The serializable figure.
    pub fig: Fig10,
    /// Whole-cluster traces, parallel to `fig.sides`.
    pub traces: Vec<obs::Trace>,
    /// Rendered `insight` diagnosis reports, parallel to `fig.sides`.
    pub reports: Vec<String>,
}

impl Fig10Run {
    /// Render side `i`'s trace as Chrome `trace_event` JSON (loadable in
    /// Perfetto / `chrome://tracing`).
    pub fn chrome_json(&self, i: usize) -> String {
        obs::chrome::to_chrome_json(&self.traces[i])
    }
}

/// Run the experiment. `node` picks which rank to profile (the paper shows
/// one node of the 16).
pub fn run(node: u32) -> Fig10Run {
    let profile = MachineProfile::nacl();
    let (n, tile) = paper_workload(&profile);
    let nodes = 16u32;
    let cfg = StencilConfig::new(
        Problem::laplace(n),
        tile,
        iterations(),
        ProcessGrid::square(nodes),
    )
    .with_steps(15)
    .with_ratio(0.4)
    .with_profile(profile.clone());

    let lanes = profile.compute_threads();
    let mut scheduler = String::new();
    let mut sides = Vec::new();
    let mut traces = Vec::new();
    let mut reports = Vec::new();
    for (version, program) in [
        ("base", build_base(&cfg, false).program),
        ("CA", build_ca(&cfg, false).program),
    ] {
        // One unfolding serves both the static bound and the span join.
        let dag = analyze::unfold(&program, &AnalyzeConfig::new());
        let cols = statics::predict_dag(&dag, lanes);
        let report = runtime::run(
            &program,
            &RunConfig::simulated(profile.clone(), nodes)
                .with_trace()
                .with_kind_names(kind_names()),
        );
        crate::report::record(&format!("fig10/{version}"), &report);
        scheduler = report.scheduler.clone();
        let trace = report.trace.expect("trace requested");
        let diag = insight::diagnose(&trace, &dag, lanes);
        let horizon = trace.horizon_ns();
        let prof = fig10::analyze_node(&trace, node, lanes, horizon);
        let median_of = |kind: u32| {
            prof.kinds
                .iter()
                .find(|k| k.kind == kind)
                .map(|k| k.median_ns / 1e6)
        };
        sides.push(Fig10Side {
            version: version.to_string(),
            makespan: report.makespan,
            occupancy: prof.occupancy,
            boundary_median_ms: median_of(KIND_BOUNDARY),
            interior_median_ms: median_of(KIND_INTERIOR),
            comm_wait_fraction: diag.totals.comm_wait_fraction(),
            bound_ratio: report.makespan / cols.makespan_bound,
            gantt: fig10::gantt_rows(&trace, node),
            ascii: fig10::ascii_gantt(&trace, node, lanes, horizon, 100),
        });
        reports.push(diag.render());
        traces.push(trace);
    }
    Fig10Run {
        fig: Fig10 {
            node,
            lanes,
            scheduler,
            sides,
        },
        traces,
        reports,
    }
}

/// Print the digest (not the raw Gantt rows; the binary writes those to
/// files).
pub fn print(fig: &Fig10) {
    println!(
        "FIGURE 10: one node's profile (node {}, {} worker lanes), 16 NaCL nodes, ratio 0.4, s = 15, scheduler {}",
        fig.node, fig.lanes, fig.scheduler
    );
    println!(
        "{:>6} {:>12} {:>12} {:>16} {:>16} {:>10} {:>11} {:>7}",
        "ver",
        "time (s)",
        "occupancy",
        "boundary med ms",
        "interior med ms",
        "spans",
        "comm-wait",
        "x bound"
    );
    for s in &fig.sides {
        println!(
            "{:>6} {:>12.3} {:>11.1}% {:>16} {:>16} {:>10} {:>10.1}% {:>7.2}",
            s.version,
            s.makespan,
            100.0 * s.occupancy,
            s.boundary_median_ms
                .map_or("-".to_string(), |v| format!("{v:.3}")),
            s.interior_median_ms
                .map_or("-".to_string(), |v| format!("{v:.3}")),
            s.gantt.len(),
            100.0 * s.comm_wait_fraction,
            s.bound_ratio
        );
    }
    for s in &fig.sides {
        println!("\n{} lanes over the whole run:", s.version);
        for row in &s.ascii {
            println!("  {row}");
        }
    }
    if let [base, ca] = &fig.sides[..] {
        println!(
            "-- CA occupancy {:+.1} points over base; CA {:.1}% faster; CA boundary kernels {:+.1}% vs base (paper: 136 ms -> 153 ms median, 14% faster overall, higher occupancy)",
            100.0 * (ca.occupancy - base.occupancy),
            100.0 * (base.makespan / ca.makespan - 1.0),
            match (base.boundary_median_ms, ca.boundary_median_ms) {
                (Some(b), Some(c)) => 100.0 * (c / b - 1.0),
                _ => f64::NAN,
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_has_higher_occupancy_and_is_faster() {
        std::env::set_var("REPRO_FAST", "1");
        let r = run(5);
        for (side, trace) in r.fig.sides.iter().zip(&r.traces) {
            assert!(trace.comm_matrix().total_bytes() > 0, "{}", side.version);
        }
        let fig = r.fig;
        assert_eq!(fig.scheduler, "fifo", "default policy is FIFO");
        let base = &fig.sides[0];
        let ca = &fig.sides[1];
        assert!(ca.occupancy > base.occupancy, "{ca:?} vs {base:?}");
        assert!(ca.makespan < base.makespan);
        // CA boundary kernels are individually slower (the extra copies)
        let (b, c) = (
            base.boundary_median_ms.unwrap(),
            ca.boundary_median_ms.unwrap(),
        );
        assert!(c > b, "CA boundary median {c} vs base {b}");
        // interior kernels are identical in both versions
        let (bi, ci) = (
            base.interior_median_ms.unwrap(),
            ca.interior_median_ms.unwrap(),
        );
        assert!((bi - ci).abs() / bi < 1e-6);
        // The simulated makespan can never beat the static lower bound.
        for s in [base, ca] {
            assert!(
                s.bound_ratio >= 1.0 - 1e-9,
                "{}: x bound {}",
                s.version,
                s.bound_ratio
            );
        }
        // The idle-gap classifier sees base stalling on the network every
        // iteration while CA (one window at this scale) all but
        // eliminates comm-wait.
        assert!(base.comm_wait_fraction > 0.0);
        assert!(ca.comm_wait_fraction < base.comm_wait_fraction);
    }
}
