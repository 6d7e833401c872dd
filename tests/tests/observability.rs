//! The observability layer end to end: the Chrome `trace_event` export
//! round-trips losslessly, its numbers agree with `obs::fig10`, the
//! three executors produce the same `obs` counters and task spans for an
//! identical base-stencil run, each engine keeps its metric key set,
//! and long real runs keep every span and message.

use ca_stencil::{build_base, kind_names, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::fig10;
use obs::KIND_COMM;
use runtime::{run, DtdBuilder, RunConfig, RunReport};

fn cfg() -> StencilConfig {
    // 4×4 tiles on a 2×2 grid, 3 iterations: 16 × (3 + init) = 64 tasks
    StencilConfig::new(Problem::laplace(16), 4, 3, ProcessGrid::new(2, 2))
}

/// 16 tiles on a 1×2 grid, 3 iterations: 64 tasks on two nodes.
fn two_node_cfg() -> StencilConfig {
    StencilConfig::new(Problem::laplace(16), 4, 3, ProcessGrid::new(1, 2)).with_steps(2)
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

    // the parsed trace reproduces the Figure-10 occupancy numbers
    let lanes = MachineProfile::nacl().compute_threads();
    let horizon = trace.horizon_ns();
    for node in trace.nodes() {
        let want = fig10::analyze_node(&trace, node, lanes, horizon);
        let got = fig10::analyze_node(&back, node, lanes, horizon);
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
    use ca_stencil::{build_base_dtd, build_ca};
    let scfg = cfg().with_steps(2);
    for (name, program) in [
        ("base", build_base(&scfg, false).program),
        ("ca", build_ca(&scfg, false).program),
        ("dtd", build_base_dtd(&scfg)),
    ] {
        let dag = analyze::unfold(&program, &analyze::AnalyzeConfig::new());
        let expected = analyze::peer_matrix(&dag);
        let report = run(&program, &sim_config());
        let trace = report.trace.as_ref().expect("trace requested");
        let observed = trace.comm_matrix();
        analyze::verify_comm_matrix(&expected, &observed).unwrap_or_else(|e| panic!("{name}: {e}"));
        // and both agree with the simulator's own network accounting
        let bytes: u64 = observed.peers.values().map(|p| p.bytes).sum();
        let msgs: u64 = observed.peers.values().map(|p| p.messages).sum();
        assert_eq!(bytes, report.remote_bytes(), "{name}");
        assert_eq!(msgs, report.remote_messages(), "{name}");
    }
}

/// The exact comm-matrix identity refuses an incomplete trace: remove a
/// single message span from a complete simulated trace and the check
/// fails, naming the peer pair that lost it.
#[test]
fn incomplete_msg_trace_fails_the_comm_matrix_identity() {
    let program = build_base(&cfg(), false).program;
    let dag = analyze::unfold(&program, &analyze::AnalyzeConfig::new());
    let expected = analyze::peer_matrix(&dag);
    let mut trace = run(&program, &sim_config()).trace.expect("trace requested");
    analyze::verify_comm_matrix(&expected, &trace.comm_matrix()).expect("complete trace");

    let lost = trace.msgs.remove(trace.msgs.len() / 2);
    let err = analyze::verify_comm_matrix(&expected, &trace.comm_matrix())
        .expect_err("a trace missing one message must fail the exact identity");
    let pair = format!("{}->{}", lost.src, lost.dst);
    assert!(err.contains(&pair), "{err} does not name {pair}");
}

/// A real run longer than any bounded per-lane buffer keeps every span:
/// one worker runs a 100 000-task chain with no sampler, and the report's
/// occupancy is computed from the complete trace.
#[test]
fn long_real_runs_keep_every_span() {
    let n = 100_000;
    let mut b = DtdBuilder::new();
    let mut prev = b.insert(0, 0.0, &[]);
    for _ in 1..n {
        prev = b.insert(0, 0.0, &[prev]);
    }
    let report = run(&b.build(), &RunConfig::shared_memory(1).with_trace());
    let trace = report.trace.as_ref().expect("trace requested");
    assert_eq!(trace.task_spans().count(), n);
    assert_eq!(trace.dropped, 0);
    let horizon = (report.makespan * 1e9).round() as u64;
    assert_eq!(report.node_occupancy[0], trace.occupancy(0, 1, horizon));
}

/// The report's occupancy comes from the lanes' busy clocks, yet equals
/// the occupancy of the run's trace to the bit on every engine; an
/// untraced run records nothing at all.
#[test]
fn report_occupancy_is_the_trace_formula_on_every_engine() {
    let program = build_base(&two_node_cfg(), true).program;
    let nacl = MachineProfile::nacl();
    for (rc, lanes) in [
        (
            RunConfig::simulated(nacl.clone(), 2),
            nacl.compute_threads(),
        ),
        (RunConfig::shared_memory(2), 2),
        (RunConfig::multi_process(2, 2), 2),
    ] {
        let mode = rc.mode;
        let untraced = run(&program, &rc);
        assert!(untraced.trace.is_none());
        assert_eq!(untraced.overhead.events, 0, "{mode:?} recorded untraced");

        let r = run(&program, &rc.with_trace());
        let trace = r.trace.as_ref().expect("trace requested");
        let records = (trace.len() + trace.msgs.len()) as u64;
        assert_eq!(r.overhead.events, records, "{mode:?}");
        let horizon = (r.makespan * 1e9).round() as u64;
        for (node, occupancy) in r.node_occupancy.iter().enumerate() {
            let from_trace = trace.occupancy(node as u32, lanes, horizon);
            assert!(*occupancy > 0.0, "{mode:?} node {node} idle");
            assert_eq!(
                occupancy.to_bits(),
                from_trace.to_bits(),
                "{mode:?} node {node}: {occupancy} vs {from_trace}"
            );
        }
    }
}

/// A chain that alternates between two nodes sends 70 000 messages each
/// way through real comm threads; the trace keeps every one of them and
/// matches the static comm matrix exactly.
#[test]
fn long_cross_node_chains_keep_every_message() {
    let hops_each_way = 70_000;
    let mut b = DtdBuilder::new();
    let mut prev = b.insert(0, 0.0, &[]);
    for i in 1..=2 * hops_each_way {
        prev = b.insert(i % 2, 0.0, &[prev]);
    }
    let program = b.build();
    let report = run(&program, &RunConfig::multi_process(2, 1).with_trace());
    let trace = report.trace.as_ref().expect("trace requested");
    assert_eq!(report.remote_messages(), 2 * hops_each_way as u64);
    assert_eq!(trace.msgs.len() as u64, report.remote_messages());
    let dag = analyze::unfold(&program, &analyze::AnalyzeConfig::new());
    analyze::verify_comm_matrix(&analyze::peer_matrix(&dag), &trace.comm_matrix())
        .expect("every message traced");
}

/// Every engine reports a fixed `MetricsSnapshot` key set: the simulator
/// never has the three steal keys and the threaded engine always has
/// them; `redundant_flops`, `messages_sent` and `bytes_sent` appear only
/// when nonzero. Values are pinned where the engine makes them
/// deterministic: every simulator counter and its `queue_depth` gauge,
/// and every threaded counter except the steal trio, which depends on
/// thread timing like the threaded `queue_depth`.
#[test]
fn metric_snapshots_keep_their_keys_and_values_on_every_engine() {
    use ca_stencil::build_ca;
    use obs::names::*;
    let scfg = two_node_cfg();
    for (scheme, program, counts, sent) in [
        (
            "base",
            build_base(&scfg, true).program,
            vec![(TASKS_EXECUTED, 64), (ACTIVATIONS, 192)],
            [(MESSAGES_SENT, 24), (BYTES_SENT, 768)],
        ),
        (
            "ca",
            build_ca(&scfg, true).program,
            vec![
                (TASKS_EXECUTED, 64),
                (ACTIVATIONS, 212),
                (REDUNDANT_FLOPS, 2448),
            ],
            [(MESSAGES_SENT, 40), (BYTES_SENT, 1792)],
        ),
    ] {
        for (engine, rc) in [
            ("sim", RunConfig::simulated(MachineProfile::nacl(), 2)),
            ("shm", RunConfig::shared_memory(2)),
            ("mp", RunConfig::multi_process(2, 2)),
        ] {
            let snap = run(&program, &rc).metrics;
            let threaded = engine != "sim";
            // One node keeps every flow local, so it sends nothing.
            let mut pinned = counts.clone();
            if engine != "shm" {
                pinned.extend(sent);
            }
            let mut want: Vec<&str> = pinned.iter().map(|&(k, _)| k).collect();
            if threaded {
                want.extend([STEALS, STEAL_FAILS, OVERFLOW_PUSHES, HOME_HITS]);
            }
            want.sort_unstable();
            let keys: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
            assert_eq!(keys, want, "{scheme} on {engine}: counter keys");
            for (key, value) in pinned {
                assert_eq!(snap.counter(key), value, "{scheme} on {engine}: {key}");
            }
            let gauges: Vec<&str> = snap.gauges.keys().map(String::as_str).collect();
            assert_eq!(gauges, [QUEUE_DEPTH], "{scheme} on {engine}: gauge keys");
            if !threaded {
                let depth = obs::GaugeValue { current: 1, max: 8 };
                assert_eq!(snap.gauges[QUEUE_DEPTH], depth, "{scheme} on {engine}");
            }
        }
    }
}
