//! The live telemetry pipeline end to end: on a deterministic simulated
//! stencil run, the occupancy a concurrent observer reconstructs from
//! the live sample stream equals the post-hoc Figure-10 occupancy
//! computed from the drained trace; sampling does not perturb the
//! virtual-time results; the real engines' samples, read from per-lane
//! busy clocks, stay within `[0, 1]`; and the tracer's measured
//! self-overhead stays inside its budget on every executor.

use ca_stencil::{build_base, kind_names, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::{fig10, Live, TracerOverhead};
use runtime::{run, RunConfig};

fn program() -> runtime::Program {
    // 4×4 tiles on a 2×2 grid, 6 iterations — enough windows that the
    // live average is a real aggregation, small enough to stay quick.
    let cfg = StencilConfig::new(Problem::laplace(16), 4, 6, ProcessGrid::new(2, 2));
    build_base(&cfg, false).program
}

fn sim_config() -> RunConfig {
    RunConfig::simulated(MachineProfile::nacl(), 4)
        .with_trace()
        .with_kind_names(kind_names())
}

/// Live window-averaged occupancy converges to (here: exactly equals)
/// the post-hoc profile of the same run, because the simulator's sample
/// windows tile `[0, makespan]` and busy time is clipped span overlap
/// in both computations.
#[test]
fn live_occupancy_agrees_with_posthoc_fig10_profile() {
    let live = Live::new();
    let report = run(
        &program(),
        &sim_config().with_live(live.clone()).with_sampling(20_000),
    );
    assert!(live.len() > 4, "expected several sample windows per node");

    let trace = report.trace.as_ref().expect("trace requested");
    let lanes = MachineProfile::nacl().compute_threads();
    let horizon = trace.horizon_ns();
    for node in 0..4u32 {
        let posthoc = fig10::analyze_node(trace, node, lanes, horizon).occupancy;
        let live_avg = live.mean_occupancy(node);
        assert!(
            (live_avg - posthoc).abs() < 1e-9,
            "node {node}: live {live_avg} vs post-hoc {posthoc}"
        );
        // The report's own occupancy column is the same quantity.
        assert!((report.node_occupancy[node as usize] - live_avg).abs() < 1e-9);
    }
}

/// The sampler only reads simulator state, so switching it on changes
/// nothing about the virtual-time outcome.
#[test]
fn sampling_does_not_change_the_simulated_run() {
    let plain = run(&program(), &sim_config());
    let sampled = run(&program(), &sim_config().with_sampling(20_000));
    assert_eq!(plain.makespan, sampled.makespan);
    assert_eq!(plain.node_occupancy, sampled.node_occupancy);
    assert_eq!(plain.tasks_executed, sampled.tasks_executed);
    assert!(plain.samples.is_empty());
    assert!(!sampled.samples.is_empty());
}

/// The real engines sample their lanes' busy clocks from another thread
/// while the workers run: every window's busy fraction stays in
/// `[0, 1]`, and each node's window-weighted mean sees the work.
#[test]
fn real_engine_samples_stay_within_bounds() {
    for (nodes, cfg) in [
        (1, RunConfig::shared_memory(2)),
        (2, RunConfig::multi_process(2, 2)),
    ] {
        let grid = ProcessGrid::new(nodes, 1);
        let c = StencilConfig::new(Problem::laplace(64), 8, 20, grid);
        let live = Live::new();
        let report = run(
            &build_base(&c, true).program,
            &cfg.with_live(live.clone()).with_sampling(200_000),
        );
        assert!(!report.samples.is_empty(), "{nodes} node(s): no samples");
        for s in &report.samples {
            assert_eq!(s.lane_busy.len(), 2);
            for &b in &s.lane_busy {
                assert!(
                    (0.0..=1.0).contains(&b),
                    "{nodes} node(s): lane busy {b} in {s:?}"
                );
            }
        }
        for node in 0..nodes {
            let mean = live.mean_occupancy(node);
            assert!(
                mean > 0.0,
                "{nodes} node(s): node {node} mean occupancy {mean}"
            );
        }
    }
}

/// Every executor measures its tracer overhead, and on these small runs
/// streaming telemetry stays far inside the 2 % budget.
#[test]
fn tracer_overhead_is_within_budget_on_every_executor() {
    let lanes = MachineProfile::nacl().compute_threads() as usize;
    for (label, cfg) in [
        ("simulated", sim_config().with_sampling(20_000)),
        (
            "shared-memory",
            RunConfig::shared_memory(lanes)
                .with_trace()
                .with_sampling(1_000_000),
        ),
        (
            "multi-process",
            RunConfig::multi_process(4, 2)
                .with_trace()
                .with_sampling(1_000_000),
        ),
    ] {
        // The real engines execute task bodies, so their programs carry
        // data; the shared-memory engine additionally needs everything
        // on node 0.
        let prog = match label {
            "simulated" => program(),
            "shared-memory" => {
                let c = StencilConfig::new(Problem::laplace(16), 4, 6, ProcessGrid::new(1, 1));
                build_base(&c, true).program
            }
            _ => {
                let c = StencilConfig::new(Problem::laplace(16), 4, 6, ProcessGrid::new(2, 2));
                build_base(&c, true).program
            }
        };
        let report = run(&prog, &cfg);
        let o = &report.overhead;
        assert!(o.events > 0, "{label}: no events accounted");
        assert!(o.lane_time_ns > 0, "{label}: no lane time");
        assert!(
            o.within_budget(),
            "{label}: overhead {:.4} % over the {:.0} % budget ({o:?})",
            100.0 * o.fraction(),
            100.0 * TracerOverhead::BUDGET_FRACTION,
        );
        // Every task made it into the trace.
        let trace = report.trace.as_ref().unwrap();
        assert_eq!(
            trace.task_spans().count() as u64,
            report.tasks_executed,
            "{label}"
        );
    }
}
