//! Performance-shape regression tests: the qualitative claims of the
//! paper's evaluation, pinned at reduced scale so CI catches model
//! regressions.

use ca_stencil::{build_base, build_ca, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, RunConfig};

fn paper_cfg(nodes: u32, ratio: f64, steps: usize, iters: u32) -> StencilConfig {
    StencilConfig::new(
        Problem::laplace(23_040),
        288,
        iters,
        ProcessGrid::square(nodes),
    )
    .with_steps(steps)
    .with_ratio(ratio)
    .with_profile(MachineProfile::nacl())
}

fn times(cfg: &StencilConfig, nodes: u32) -> (f64, f64) {
    let base = run(
        &build_base(cfg, false).program,
        &RunConfig::simulated(cfg.profile.clone(), nodes),
    )
    .makespan;
    let ca = run(
        &build_ca(cfg, false).program,
        &RunConfig::simulated(cfg.profile.clone(), nodes),
    )
    .makespan;
    (base, ca)
}

#[test]
fn ca_wins_when_kernel_is_fast_and_ties_when_slow() {
    // the paper's central claim, at 16 nodes
    let fast = paper_cfg(16, 0.3, 15, 10);
    let (base_fast, ca_fast) = times(&fast, 16);
    assert!(
        ca_fast < 0.8 * base_fast,
        "fast kernel: CA {ca_fast} vs base {base_fast}"
    );

    let slow = paper_cfg(16, 1.0, 15, 10);
    let (base_slow, ca_slow) = times(&slow, 16);
    let gap = (ca_slow / base_slow - 1.0).abs();
    assert!(gap < 0.08, "slow kernel gap = {gap}");
}

#[test]
fn strong_scaling_monotone_for_both_versions() {
    let mut last_base = f64::INFINITY;
    let mut last_ca = f64::INFINITY;
    for nodes in [4u32, 16, 64] {
        let cfg = paper_cfg(nodes, 1.0, 15, 10);
        let (base, ca) = times(&cfg, nodes);
        assert!(base < last_base, "base did not scale at {nodes} nodes");
        assert!(ca < last_ca, "CA did not scale at {nodes} nodes");
        last_base = base;
        last_ca = ca;
    }
}

#[test]
fn slow_network_magnifies_ca_advantage() {
    let profile = MachineProfile::slow_network();
    let cfg = StencilConfig::new(Problem::laplace(23_040), 288, 10, ProcessGrid::square(16))
        .with_steps(15)
        .with_ratio(0.6)
        .with_profile(profile.clone());
    let base = run(
        &build_base(&cfg, false).program,
        &RunConfig::simulated(profile.clone(), 16),
    )
    .makespan;
    let ca = run(
        &build_ca(&cfg, false).program,
        &RunConfig::simulated(profile, 16),
    )
    .makespan;
    assert!(ca < 0.75 * base, "slow network: CA {ca} vs base {base}");
}

#[test]
fn comm_thread_utilization_drops_with_ca() {
    let cfg = paper_cfg(16, 0.4, 15, 10);
    let base = run(
        &build_base(&cfg, false).program,
        &RunConfig::simulated(cfg.profile.clone(), 16),
    );
    let ca = run(
        &build_ca(&cfg, false).program,
        &RunConfig::simulated(cfg.profile.clone(), 16),
    );
    let base_comm: f64 =
        base.comm_utilization.iter().sum::<f64>() / base.comm_utilization.len() as f64;
    let ca_comm: f64 = ca.comm_utilization.iter().sum::<f64>() / ca.comm_utilization.len() as f64;
    assert!(
        ca_comm < base_comm,
        "comm utilization: CA {ca_comm} vs base {base_comm}"
    );
}
