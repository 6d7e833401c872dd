//! The observability layer end to end: the Chrome `trace_event` export
//! round-trips losslessly, its numbers agree with `runtime::profiling`,
//! and the three executors produce the same `obs` counters and task
//! spans for an identical base-stencil run.

use ca_stencil::{build_base, kind_names, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::KIND_COMM;
use runtime::{profiling, run, RunConfig, RunReport};

fn cfg() -> StencilConfig {
    // 4×4 tiles on a 2×2 grid, 3 iterations: 16 × (3 + init) = 64 tasks
    StencilConfig::new(Problem::laplace(16), 4, 3, ProcessGrid::new(2, 2))
}

fn sim_config() -> RunConfig {
    RunConfig::simulated(MachineProfile::nacl(), 4)
        .with_trace()
        .with_kind_names(kind_names())
}

#[test]
fn chrome_trace_round_trips_through_export() {
    let report = run(&build_base(&cfg(), false).program, &sim_config());
    let trace = report.trace.expect("trace requested");
    assert_eq!(trace.task_spans().count() as u64, report.tasks_executed);

    let json = obs::chrome::to_chrome_json(&trace);
    let back = obs::chrome::from_chrome_json(&json).expect("chrome JSON parses");

    // span-for-span identical, including the kind-name table
    assert_eq!(back.spans.len(), trace.spans.len());
    assert_eq!(back.spans, trace.spans);
    assert_eq!(back.kinds, trace.kinds);
    assert_eq!(back.kinds.get(&KIND_COMM).map(String::as_str), Some("comm"));

    // timestamps are monotonic by start and well-formed
    for w in back.spans.windows(2) {
        assert!(w[0].start_ns <= w[1].start_ns, "spans sorted by start");
    }
    for s in &back.spans {
        assert!(s.end_ns >= s.start_ns, "span ends after it starts");
    }

    // the parsed trace reproduces profiling's occupancy numbers
    let lanes = MachineProfile::nacl().compute_threads();
    let horizon = trace.horizon_ns();
    for node in trace.nodes() {
        let want = profiling::profile_node(&trace, node, lanes, horizon);
        let got = profiling::profile_node(&back, node, lanes, horizon);
        assert!((want.occupancy - got.occupancy).abs() < 1e-12);
        assert_eq!(want.kinds.len(), got.kinds.len());
    }
    // and the report's own occupancy column came from the same spans
    let report2 = run(&build_base(&cfg(), false).program, &sim_config());
    assert_eq!(report.node_occupancy, report2.node_occupancy);
}

#[test]
fn all_executors_agree_on_base_stencil_spans() {
    let program_for = || build_base(&cfg(), true).program;
    let shared = run(&program_for(), &RunConfig::shared_memory(3).with_trace());
    let mp = run(&program_for(), &RunConfig::multi_process(4, 2).with_trace());
    let sim = run(
        &program_for(),
        &RunConfig::simulated(MachineProfile::nacl(), 4)
            .with_bodies()
            .with_trace(),
    );

    let task_spans = |r: &RunReport| {
        r.trace
            .as_ref()
            .expect("trace requested")
            .task_spans()
            .count() as u64
    };
    for r in [&shared, &mp, &sim] {
        assert_eq!(r.tasks_executed, 64);
        assert_eq!(r.counter(obs::names::TASKS_EXECUTED), 64);
        assert_eq!(task_spans(r), 64, "one task span per task in {:?}", r.mode);
    }

    // per-kind task-span counts agree across all three engines
    let kind_counts = |r: &RunReport| {
        let mut counts: Vec<(u32, usize)> = r
            .trace
            .as_ref()
            .unwrap()
            .count_by_kind()
            .into_iter()
            .filter(|(kind, _)| *kind != KIND_COMM)
            .collect();
        counts.sort_unstable();
        counts
    };
    assert_eq!(kind_counts(&shared), kind_counts(&mp));
    assert_eq!(kind_counts(&mp), kind_counts(&sim));

    // the message-bearing engines agree on cross-node traffic
    assert_eq!(mp.remote_messages(), sim.remote_messages());
    assert_eq!(
        mp.counter(obs::names::MESSAGES_SENT),
        sim.counter(obs::names::MESSAGES_SENT)
    );
}

/// The tentpole identity: for every scheme, the per-peer communication
/// matrix built from traced `MsgSpan`s carries *exactly* the message and
/// byte counts `analyze` derives statically from the unfolded DAG — no
/// transfer is missed, invented, or double-counted by the tracer.
#[test]
fn comm_matrix_matches_static_edge_accounting_for_every_scheme() {
    use ca_stencil::{build_base_dtd, build_ca, build_pa2};
    let scfg = cfg().with_steps(2);
    for (name, program) in [
        ("base", build_base(&scfg, false).program),
        ("ca", build_ca(&scfg, false).program),
        ("pa2", build_pa2(&scfg, false).program),
        ("dtd", build_base_dtd(&scfg)),
    ] {
        let dag = analyze::unfold(&program, &analyze::AnalyzeConfig::new());
        let expected = analyze::peer_matrix(&dag);
        let report = run(&program, &sim_config());
        let trace = report.trace.as_ref().expect("trace requested");
        assert_eq!(trace.dropped_msgs, 0, "{name}: lossy msg trace");
        let observed = trace.comm_matrix();
        analyze::verify_comm_matrix(&expected, &observed).unwrap_or_else(|e| panic!("{name}: {e}"));
        // and both agree with the simulator's own network accounting
        let bytes: u64 = observed.peers.values().map(|p| p.bytes).sum();
        let msgs: u64 = observed.peers.values().map(|p| p.messages).sum();
        assert_eq!(bytes, report.remote_bytes(), "{name}");
        assert_eq!(msgs, report.remote_messages(), "{name}");
    }
}

/// Overflow accounting: a deliberately tiny tracer ring must *count*
/// everything it cannot keep. Against a complete reference run of the
/// same deterministic program, recorded + dropped reconciles exactly for
/// both span lanes and message lanes, occupancy under-reports (never
/// over-reports), and the exact-identity comm check refuses the lossy
/// trace instead of passing it by luck.
#[test]
fn tiny_ring_drops_are_counted_and_reconcile_exactly() {
    let program = build_base(&cfg(), false).program;
    let complete = run(&program, &sim_config());
    let lossy = run(&program, &sim_config().with_ring_capacity(4));
    let complete_bytes = complete.remote_bytes();
    let full = complete.trace.expect("trace requested");
    let thin = lossy.trace.expect("trace requested");
    assert_eq!(full.dropped, 0);
    assert!(thin.dropped > 0, "capacity 4 must overflow span lanes");
    assert!(thin.dropped_msgs > 0, "capacity 4 must overflow msg lanes");

    // Attempts are identical (deterministic run), so kept + dropped on
    // the lossy side must equal the complete side's record counts.
    assert_eq!(
        thin.spans.len() as u64 + thin.dropped,
        full.spans.len() as u64
    );
    assert_eq!(
        thin.msgs.len() as u64 + thin.dropped_msgs,
        full.msgs.len() as u64
    );
    // The comm matrix surfaces its own incompleteness.
    assert_eq!(thin.comm_matrix().dropped, thin.dropped_msgs);
    let thin_bytes: u64 = thin.comm_matrix().peers.values().map(|p| p.bytes).sum();
    assert!(thin_bytes < complete_bytes);

    // Fig-10 style totals only lose time, never invent it.
    let lanes = MachineProfile::nacl().compute_threads();
    let horizon = full.horizon_ns();
    for node in full.nodes() {
        assert!(
            thin.occupancy(node, lanes, horizon) <= full.occupancy(node, lanes, horizon) + 1e-12,
            "node {node} over-reports occupancy from a lossy trace"
        );
    }

    // And the exact-identity gate refuses a lower-bound matrix.
    let dag = analyze::unfold(&program, &analyze::AnalyzeConfig::new());
    let expected = analyze::peer_matrix(&dag);
    let err = analyze::verify_comm_matrix(&expected, &thin.comm_matrix())
        .expect_err("a lossy matrix must not pass the exact-byte identity");
    assert!(err.contains("dropped"), "{err}");
}
