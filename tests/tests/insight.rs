//! The `insight` diagnosis engine end to end: a full stencil run joins
//! every task span back to the statically unfolded DAG and never beats
//! the static makespan bound, and the wall-clock (shared-memory) and
//! virtual-time (simulated) executors agree on how an idle gap is
//! classified.

use analyze::AnalyzeConfig;
use ca_stencil::{build_base, kind_names, Problem, StencilConfig};
use insight::GapCause;
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, FlowData, OutputDep, Params, Program, RunConfig, TaskClass, TaskKey};
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn stencil_diagnosis_joins_every_span_and_respects_the_bound() {
    // 4×4 tiles on a 2×2 grid, 3 iterations: 64 tasks.
    let cfg = StencilConfig::new(Problem::laplace(16), 4, 3, ProcessGrid::new(2, 2));
    let program = build_base(&cfg, false).program;
    let lanes = MachineProfile::nacl().compute_threads();

    let acfg = AnalyzeConfig::new().with_lanes(lanes);
    let dag = analyze::unfold(&program, &acfg);
    let analysis = analyze::analyze_dag(&dag, &acfg);
    assert!(analysis.is_clean(), "{}", analysis.report());

    let report = run(
        &program,
        &RunConfig::simulated(MachineProfile::nacl(), 4)
            .with_trace()
            .with_kind_names(kind_names()),
    );
    let trace = report.trace.expect("trace requested");
    let d = insight::diagnose(&trace, &dag, lanes);

    // Every task span carries an instance id that resolves in the DAG.
    assert_eq!(d.joined_spans as u64, report.tasks_executed);
    assert_eq!(d.unmatched_spans, 0);

    // The realized critical path exists and fits inside the makespan.
    let cp = d.critical_path.as_ref().expect("spans joined");
    assert!(cp.tasks >= 1);
    assert!(cp.busy_ns + cp.wait_ns <= d.horizon_ns);

    // The achieved makespan respects analyze's static lower bound.
    let bound = analysis
        .path
        .as_ref()
        .expect("acyclic")
        .makespan_lower_bound;
    assert!(
        d.achieved_s() >= bound - 1e-12,
        "achieved {} s below bound {} s",
        d.achieved_s(),
        bound
    );

    // Gap accounting is conservative: busy + attributed waits fill the
    // audited lane-time exactly.
    let t = &d.totals;
    assert_eq!(
        t.busy_ns + t.comm_wait_ns + t.dependency_wait_ns + t.starvation_ns,
        t.lane_ns
    );
    // A 2×2 base stencil exchanges halos every iteration: the classifier
    // must attribute some wait to communication.
    assert!(t.comm_wait_ns > 0);
}

/// `fork` = R → {A, B}; B → {C, E}; A → C. Everything on node 0. B is an
/// order of magnitude slower than A, so the lane that finished A idles
/// ~16 ms waiting for B — a dependency wait, never comm (single node).
/// C and E meet at a two-party barrier, so each of the two lanes runs one
/// of them however late the idle lane wakes.
struct Fork {
    meet: Barrier,
}

const R: i32 = 0;
const A: i32 = 1;
const B: i32 = 2;
const C: i32 = 3;
const E: i32 = 4;

fn millis(p0: i32) -> u64 {
    match p0 {
        R | A => 2,
        B => 20,
        _ => 1,
    }
}

impl TaskClass for Fork {
    fn name(&self) -> &str {
        "fork"
    }
    fn param_box(&self) -> [u32; 4] {
        [E as u32 + 1, 1, 1, 1]
    }
    fn node_of(&self, _p: Params) -> u32 {
        0
    }
    fn activation_count(&self, p: Params) -> usize {
        match p[0] {
            R => 0,
            C => 2,
            _ => 1,
        }
    }
    fn num_output_flows(&self, p: Params) -> usize {
        match p[0] {
            R | B => 2,
            A => 1,
            _ => 0,
        }
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        let dep = |flow, to, slot| OutputDep {
            flow,
            consumer: TaskKey::new(0, [to, 0, 0, 0]),
            slot,
            bytes: 8,
        };
        match p[0] {
            R => out.extend([dep(0, A, 0), dep(1, B, 0)]),
            A => out.push(dep(0, C, 0)),
            B => out.extend([dep(0, C, 1), dep(1, E, 0)]),
            _ => {}
        }
    }
    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        if matches!(p[0], C | E) {
            self.meet.wait();
        }
        std::thread::sleep(Duration::from_millis(millis(p[0])));
        out.resize(self.num_output_flows(p), FlowData::sized(8));
    }
    fn cost(&self, p: Params) -> f64 {
        millis(p[0]) as f64 * 1e-3
    }
}

fn fork_program() -> Program {
    let mut g = runtime::TaskGraph::new();
    g.add_class(Arc::new(Fork {
        meet: Barrier::new(2),
    }));
    Program {
        graph: Arc::new(g),
        roots: vec![TaskKey::new(0, [R, 0, 0, 0])],
        total_tasks: 5,
    }
}

#[test]
fn executors_agree_the_long_gap_is_dependency_wait() {
    let acfg = AnalyzeConfig::new();
    let dag = analyze::unfold(&fork_program(), &acfg);
    assert!(analyze::analyze_dag(&dag, &acfg).is_clean());

    // Wall-clock engine: two worker threads, real sleeps; C and E meet at
    // the barrier, one on each lane.
    let shared = run(&fork_program(), &RunConfig::shared_memory(2).with_trace());
    // Virtual-time engine: the cost model mirrors the sleeps (it runs no
    // bodies, so no barrier).
    let sim = run(
        &fork_program(),
        &RunConfig::simulated(MachineProfile::nacl(), 1).with_trace(),
    );

    for (label, report, lanes) in [
        ("shared-memory", &shared, 2u32),
        ("simulated", &sim, MachineProfile::nacl().compute_threads()),
    ] {
        let trace = report.trace.as_ref().expect("trace requested");
        let d = insight::diagnose(trace, &dag, lanes);
        assert_eq!(d.joined_spans, 5, "{label}");

        // Single node: nothing can be comm-wait in either engine.
        assert_eq!(d.totals.comm_wait_ns, 0, "{label}: {:?}", d.gaps);

        // Both engines see the A-lane stall for B as a dependency wait:
        // a ≥10 ms gap ended by a task whose producer ran overlapping it.
        let long_dep = d
            .gaps
            .iter()
            .any(|g| g.cause == GapCause::DependencyWait && g.duration_ns() >= 10_000_000);
        assert!(
            long_dep,
            "{label}: no long dependency-wait gap in {:?}",
            d.gaps
        );

        // The realized critical path is R → B → (C or E): ~23–24 ms of
        // span time, dominated by B.
        let cp = d.critical_path.as_ref().expect("joined");
        assert!(cp.tasks >= 3, "{label}: {cp:?}");
        assert!(cp.busy_ns >= 20_000_000, "{label}: {cp:?}");
    }
}
