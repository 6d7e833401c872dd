//! Figure 8: GFLOP/s against the kernel-adjustment ratio, base vs CA, on
//! 4/16/64 nodes of each machine, with the original-kernel base result as
//! the reference line.
//!
//! The ratio emulates a faster memory system or a tuned kernel by updating
//! only an `(r·mb) × (r·nb)` sub-tile — exactly the paper's device. As the
//! kernel shrinks, the base version hits the communication ceiling
//! (per-message processing on the single comm thread) while CA keeps
//! scaling; the paper reports up to 57 % (NaCL) and 33 % (Stampede2)
//! CA-over-base improvements.

use crate::statics::{predict_dag, StaticCols};
use crate::{iterations, paper_workload};
use analyze::AnalyzeConfig;
use ca_stencil::{build_base, build_ca, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, RunConfig};
use serde::Serialize;

/// One (ratio) measurement.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig8Point {
    /// Kernel adjustment ratio.
    pub ratio: f64,
    /// Base GFLOP/s (nominal flops / time).
    pub base_gflops: f64,
    /// CA GFLOP/s.
    pub ca_gflops: f64,
    /// Static-analyzer predictions for the base program.
    pub base_static: StaticCols,
    /// Static-analyzer predictions for the CA program.
    pub ca_static: StaticCols,
    /// Base achieved makespan over its static lower bound (≥ 1).
    pub base_bound_ratio: f64,
    /// CA achieved makespan over its static lower bound (≥ 1).
    pub ca_bound_ratio: f64,
}

/// One (machine, node count) panel.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Panel {
    /// System name.
    pub system: String,
    /// Node count.
    pub nodes: u32,
    /// The ratio sweep.
    pub points: Vec<Fig8Point>,
    /// The black reference line: base with the original kernel (ratio 1).
    pub base_original_gflops: f64,
}

/// CA step size used throughout (the paper's 15).
pub const STEPS: usize = 15;

fn run_pair(profile: &MachineProfile, nodes: u32, ratio: f64) -> Fig8Point {
    let (n, tile) = paper_workload(profile);
    let cfg = StencilConfig::new(
        Problem::laplace(n),
        tile,
        iterations(),
        ProcessGrid::square(nodes),
    )
    .with_steps(STEPS)
    .with_ratio(ratio)
    .with_profile(profile.clone());
    let sim = RunConfig::simulated(profile.clone(), nodes);
    let base_program = build_base(&cfg, false).program;
    let ca_program = build_ca(&cfg, false).program;
    let lanes = profile.compute_threads();
    // Unfold once per program; the same enumeration backs both static
    // columns and (in the doctor harness) the trace join.
    let acfg = AnalyzeConfig::new();
    let base_static = predict_dag(&analyze::unfold(&base_program, &acfg), lanes);
    let ca_static = predict_dag(&analyze::unfold(&ca_program, &acfg), lanes);
    let base = run(&base_program, &sim);
    let ca = run(&ca_program, &sim);
    let label = format!("{}/{}n/r{:.1}", profile.name, nodes, ratio);
    crate::report::record(&format!("{label}/base"), &base);
    crate::report::record(&format!("{label}/ca"), &ca);
    Fig8Point {
        ratio,
        base_gflops: cfg.gflops(base.makespan),
        ca_gflops: cfg.gflops(ca.makespan),
        base_static,
        ca_static,
        base_bound_ratio: base.makespan / base_static.makespan_bound,
        ca_bound_ratio: ca.makespan / ca_static.makespan_bound,
    }
}

/// Run one panel.
pub fn run_panel(profile: &MachineProfile, nodes: u32, ratios: &[f64]) -> Fig8Panel {
    let points = ratios
        .iter()
        .map(|&ratio| run_pair(profile, nodes, ratio))
        .collect();
    let base_original_gflops = run_pair(profile, nodes, 1.0).base_gflops;
    Fig8Panel {
        system: profile.name.clone(),
        nodes,
        points,
        base_original_gflops,
    }
}

/// Run the full figure: both machines × {4, 16, 64} nodes × the paper's
/// ratio grid.
pub fn run_all() -> Vec<Fig8Panel> {
    let ratios = [0.2, 0.4, 0.6, 0.8];
    let mut panels = Vec::new();
    for profile in [MachineProfile::nacl(), MachineProfile::stampede2()] {
        for nodes in [4u32, 16, 64] {
            panels.push(run_panel(&profile, nodes, &ratios));
        }
    }
    panels
}

/// Print the figure.
pub fn print(panels: &[Fig8Panel]) {
    println!("FIGURE 8: tuned-kernel performance (GFLOP/s), base vs CA (s = {STEPS})");
    for p in panels {
        println!(
            "-- {} / {} nodes (reference: base with original kernel = {:.0} GFLOP/s)",
            p.system, p.nodes, p.base_original_gflops
        );
        println!(
            "{:>7} {:>12} {:>12} {:>10} {:>11} {:>11} {:>10} {:>11} {:>8}",
            "ratio",
            "base GF/s",
            "CA GF/s",
            "CA/base",
            "base msgs*",
            "CA msgs*",
            "CA rGF*",
            "CA bound*",
            "CA x bnd",
        );
        for pt in &p.points {
            println!(
                "{:>7.1} {:>12.0} {:>12.0} {:>9.1}% {:>11} {:>11} {:>10.1} {:>10.3}s {:>8.2}",
                pt.ratio,
                pt.base_gflops,
                pt.ca_gflops,
                100.0 * (pt.ca_gflops / pt.base_gflops - 1.0),
                pt.base_static.messages,
                pt.ca_static.messages,
                pt.ca_static.redundant_flops as f64 / 1e9,
                pt.ca_static.makespan_bound,
                pt.ca_bound_ratio,
            );
        }
        println!("   (* static analyzer predictions: cross-node messages, CA redundant GFLOP, makespan lower bound; x bnd = achieved/bound)");
    }
}

/// Best CA-over-base improvement in a set of panels, as a percentage.
pub fn best_improvement(panels: &[Fig8Panel], system: &str) -> f64 {
    panels
        .iter()
        .filter(|p| p.system == system)
        .flat_map(|p| p.points.iter())
        .map(|pt| 100.0 * (pt.ca_gflops / pt.base_gflops - 1.0))
        .fold(f64::MIN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_wins_at_small_ratio_on_16_nacl_nodes() {
        std::env::set_var("REPRO_FAST", "1");
        let panel = run_panel(&MachineProfile::nacl(), 16, &[0.2, 0.4, 0.8]);
        let p02 = &panel.points[0];
        let p04 = &panel.points[1];
        let p08 = &panel.points[2];
        assert!(
            p02.ca_gflops > 1.3 * p02.base_gflops,
            "ratio 0.2: CA {} vs base {}",
            p02.ca_gflops,
            p02.base_gflops
        );
        assert!(
            p04.ca_gflops > 1.05 * p04.base_gflops,
            "ratio 0.4: CA {} vs base {}",
            p04.ca_gflops,
            p04.base_gflops
        );
        // compute-bound end: near parity
        let gap = (p08.ca_gflops / p08.base_gflops - 1.0).abs();
        assert!(gap < 0.1, "ratio 0.8 gap = {gap}");
        // and the base never beats its original-kernel reference by less
        // than the tuned kernels do
        assert!(p02.base_gflops >= panel.base_original_gflops * 0.9);
        // no simulated point beats its static makespan lower bound
        for pt in &panel.points {
            assert!(pt.base_bound_ratio >= 1.0 - 1e-9, "{pt:?}");
            assert!(pt.ca_bound_ratio >= 1.0 - 1e-9, "{pt:?}");
        }
    }
}
