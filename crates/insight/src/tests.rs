//! Unit tests for the diagnosis engine over hand-built traces, where
//! every gap's ground-truth cause is known by construction.

use crate::{diagnose, GapCause};
use obs::{SpanRecord, Trace, KIND_COMM};
use runtime::{FlowData, OutputDep, Params, Program, TaskClass, TaskGraph, TaskKey, UnfoldedDag};
use std::sync::Arc;

/// Two tasks `a(0) → b(1)`; `b` runs on `node_b` so the same class
/// exercises both the local and the cross-node classification rules.
struct Pair {
    node_b: u32,
}

impl TaskClass for Pair {
    fn name(&self) -> &str {
        "pair"
    }
    fn param_box(&self) -> [u32; 4] {
        [2, 1, 1, 1]
    }
    fn node_of(&self, p: Params) -> u32 {
        if p[0] == 0 {
            0
        } else {
            self.node_b
        }
    }
    fn activation_count(&self, p: Params) -> usize {
        usize::from(p[0] > 0)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        usize::from(p[0] == 0)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        if p[0] == 0 {
            out.push(OutputDep {
                flow: 0,
                consumer: TaskKey::new(0, [1, 0, 0, 0]),
                slot: 0,
                bytes: 8,
            });
        }
    }
    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        if p[0] == 0 {
            out.push(FlowData::sized(8));
        }
    }
    fn cost(&self, _p: Params) -> f64 {
        1e-6
    }
}

fn pair_dag(node_b: u32) -> UnfoldedDag {
    let mut g = TaskGraph::new();
    g.add_class(Arc::new(Pair { node_b }));
    let program = Program {
        graph: Arc::new(g),
        roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
        total_tasks: 2,
    };
    let dag = UnfoldedDag::enumerate(&program);
    assert!(dag.faults.is_empty());
    assert_eq!(dag.len(), 2);
    dag
}

fn key(p0: i32) -> TaskKey {
    TaskKey::new(0, [p0, 0, 0, 0])
}

fn span(node: u32, lane: u32, task: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        node,
        lane,
        kind: 0,
        start_ns,
        end_ns,
        task,
    }
}

fn comm_span(node: u32, lane: u32, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        node,
        lane,
        kind: KIND_COMM,
        start_ns,
        end_ns,
        task: SpanRecord::NO_TASK,
    }
}

#[test]
fn empty_trace_degrades_gracefully() {
    let dag = pair_dag(1);
    let d = diagnose(&Trace::default(), &dag, 4);
    assert_eq!(d.horizon_ns, 0);
    assert!(d.gaps.is_empty());
    assert!(d.critical_path.is_none());
    assert_eq!(d.joined_spans, 0);
    assert_eq!(d.occupancy(), 0.0);
    // The report renders without panicking on the degenerate case.
    assert!(d.render().contains("no spans joined"));
}

#[test]
fn single_task_trace_has_no_gaps_and_a_one_task_path() {
    let dag = pair_dag(1);
    let trace = Trace {
        spans: vec![span(0, 0, key(0).instance_id(), 0, 100)],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    assert_eq!(d.horizon_ns, 100);
    assert_eq!(d.joined_spans, 1);
    assert!(d.gaps.is_empty(), "{:?}", d.gaps);
    let cp = d.critical_path.as_ref().expect("one joined span");
    assert_eq!(cp.tasks, 1);
    assert_eq!(cp.busy_ns, 100);
    assert_eq!(cp.wait_ns, 0);
    assert!((d.occupancy() - 1.0).abs() < 1e-12);
}

#[test]
fn cross_node_producer_makes_the_gap_comm_wait() {
    let dag = pair_dag(1);
    // a on node 0 finishes at 1000; b on node 1 only starts at 3000 —
    // node 1's lane idled from 0 to 3000 waiting for a's message.
    let trace = Trace {
        spans: vec![
            span(0, 0, key(0).instance_id(), 0, 1000),
            span(1, 0, key(1).instance_id(), 3000, 4000),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    let g = d
        .gaps
        .iter()
        .find(|g| g.node == 1 && g.end_ns == 3000)
        .expect("gap before b");
    assert_eq!(g.start_ns, 0);
    assert_eq!(g.cause, GapCause::CommWait);
    assert_eq!(d.totals.comm_wait_ns, 3000);
    // Node 0's lane drains after a: a trailing starvation gap, not
    // comm-wait.
    let t = d
        .gaps
        .iter()
        .find(|g| g.node == 0 && g.start_ns == 1000)
        .expect("trailing gap on node 0");
    assert_eq!(t.cause, GapCause::Starvation);
}

#[test]
fn overlapping_local_producer_makes_the_gap_dependency_wait() {
    let dag = pair_dag(0); // both tasks on node 0
                           // Lane 1 idles from 0 to 1500 while a still runs on lane 0 until
                           // 1000 — a dependency wait, with slack after a's end attributed to
                           // the same gap.
    let trace = Trace {
        spans: vec![
            span(0, 0, key(0).instance_id(), 0, 1000),
            span(0, 1, key(1).instance_id(), 1500, 2500),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 2);
    let g = d
        .gaps
        .iter()
        .find(|g| g.lane == 1 && g.end_ns == 1500)
        .expect("gap before b");
    assert_eq!(g.cause, GapCause::DependencyWait);
    assert_eq!(d.totals.comm_wait_ns, 0);
}

#[test]
fn local_producer_long_done_means_starvation() {
    let dag = pair_dag(0);
    // a ended at 1000 on the same lane; b only started at 2000. Nothing
    // in the trace explains the 1000 ns hole: scheduler starvation.
    let trace = Trace {
        spans: vec![
            span(0, 0, key(0).instance_id(), 0, 1000),
            span(0, 0, key(1).instance_id(), 2000, 3000),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    let g = d
        .gaps
        .iter()
        .find(|g| g.start_ns == 1000 && g.end_ns == 2000)
        .expect("hole between a and b");
    assert_eq!(g.cause, GapCause::Starvation);
}

#[test]
fn unjoined_span_falls_back_to_comm_overlap() {
    let dag = pair_dag(1);
    // The span ending the gap carries no task id; a comm span overlaps
    // the gap, so the wait is attributed to communication.
    let trace = Trace {
        spans: vec![
            span(0, 0, SpanRecord::NO_TASK, 2000, 3000),
            comm_span(0, 1, 500, 1500),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    assert_eq!(d.joined_spans, 0);
    assert_eq!(d.unmatched_spans, 1);
    let g = d
        .gaps
        .iter()
        .find(|g| g.end_ns == 2000)
        .expect("leading gap");
    assert_eq!(g.cause, GapCause::CommWait);
    // Without the comm span the same gap reads as starvation.
    let bare = Trace {
        spans: vec![span(0, 0, SpanRecord::NO_TASK, 2000, 3000)],
        ..Trace::default()
    };
    let d2 = diagnose(&bare, &dag, 1);
    let g2 = d2
        .gaps
        .iter()
        .find(|g| g.end_ns == 2000)
        .expect("leading gap");
    assert_eq!(g2.cause, GapCause::Starvation);
}

#[test]
fn realized_path_walks_the_chain_and_measures_daylight() {
    // The analyze doctest program is a 3-task chain on node 0.
    let program = analyze::doctest_program();
    let dag = UnfoldedDag::enumerate(&program);
    assert_eq!(dag.len(), 3);
    let id = |p0: i32| TaskKey::new(0, [p0, 0, 0, 0]).instance_id();
    let trace = Trace {
        spans: vec![
            span(0, 0, id(0), 0, 100),
            span(0, 0, id(1), 150, 300),
            span(0, 0, id(2), 300, 450),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    let cp = d.critical_path.expect("chain joined");
    assert_eq!(cp.tasks, 3);
    assert_eq!(cp.busy_ns, 100 + 150 + 150);
    assert_eq!(cp.wait_ns, 50);
    assert_eq!(cp.start_ns, 0);
    assert_eq!(cp.end_ns, 450);
    assert_eq!(cp.task_indices.len(), 3);
    // Chain order is root → sink.
    let first = dag.tasks[cp.task_indices[0]];
    let last = dag.tasks[cp.task_indices[2]];
    assert_eq!(first.params[0], 0);
    assert_eq!(last.params[0], 2);
    assert!((cp.wait_fraction() - 50.0 / 450.0).abs() < 1e-12);
}

#[test]
fn kind_digests_split_by_node_and_use_registered_names() {
    let dag = pair_dag(1);
    let mut trace = Trace {
        spans: vec![
            span(0, 0, key(0).instance_id(), 0, 1000),
            span(1, 0, key(1).instance_id(), 1000, 3000),
            comm_span(1, 1, 500, 900),
        ],
        ..Trace::default()
    };
    trace.kinds.insert(0, "pair".to_string());
    let d = diagnose(&trace, &dag, 1);
    let pair = d.kind_summary(0).expect("task kind digest");
    assert_eq!(pair.name, "pair");
    assert_eq!(pair.summary.count, 2);
    let comm = d.kind_summary(KIND_COMM).expect("comm digest");
    assert_eq!(comm.name, "comm");
    assert_eq!(comm.summary.count, 1);
}

#[test]
fn comm_wait_gaps_name_the_stalling_link() {
    let dag = pair_dag(1);
    // a on node 0 ends at 1000; b on node 1 starts at 3000: node 1's
    // lane waited on node 0 — the (0, 1) link stalled it.
    let trace = Trace {
        spans: vec![
            span(0, 0, key(0).instance_id(), 0, 1000),
            span(1, 0, key(1).instance_id(), 3000, 4000),
        ],
        ..Trace::default()
    };
    let d = diagnose(&trace, &dag, 1);
    let g = d
        .gaps
        .iter()
        .find(|g| g.node == 1 && g.cause == GapCause::CommWait)
        .expect("comm-wait gap");
    // The whole wait, from the lane's start to b's, is the (0, 1) link's.
    assert_eq!(g.duration_ns(), 3000);
}

mod whatif_replay {
    use super::*;
    use crate::{Perturbation, WhatIf};
    use machine::MachineProfile;

    /// Hand-built trace for the local pair: a then b, 1000 ns each.
    fn local_pair() -> (UnfoldedDag, Trace) {
        let dag = pair_dag(0);
        let trace = Trace {
            spans: vec![
                span(0, 0, key(0).instance_id(), 0, 1000),
                span(0, 0, key(1).instance_id(), 1000, 2000),
            ],
            ..Trace::default()
        };
        (dag, trace)
    }

    #[test]
    fn local_chain_replays_to_the_sum_of_durations() {
        let (dag, trace) = local_pair();
        let w = WhatIf::new(&trace, &dag, &MachineProfile::nacl(), 1);
        let base = w.baseline();
        assert!(
            (base.makespan_s - 2e-6).abs() < 1e-12,
            "{}",
            base.makespan_s
        );
        // A unity perturbation is exactly the identity.
        assert_eq!(
            w.replay(&[Perturbation::TaskKind {
                kind: 0,
                factor: 1.0
            }]),
            base
        );
        // Halving every kind-0 duration halves the chain.
        let fast = w.replay(&[Perturbation::TaskKind {
            kind: 0,
            factor: 0.5,
        }]);
        assert!(
            (fast.makespan_s - 1e-6).abs() < 1e-12,
            "{}",
            fast.makespan_s
        );
    }

    #[test]
    fn cross_node_replay_charges_the_comm_pipeline() {
        let dag = pair_dag(1);
        let trace = Trace {
            spans: vec![
                span(0, 0, key(0).instance_id(), 0, 1000),
                span(1, 0, key(1).instance_id(), 90_000, 91_000),
            ],
            ..Trace::default()
        };
        let p = MachineProfile::nacl();
        let w = WhatIf::new(&trace, &dag, &p, 2);
        let base = w.baseline();
        // a (1 µs) + send processing + wire + recv processing + b (1 µs):
        // both msg_cost charges dominate on NaCL (40 µs each).
        let net = netsim::NetworkModel::from_profile(&p);
        let expected = 1e-6 + p.runtime_msg_cost + net.transfer_time(8) + p.runtime_msg_cost + 1e-6;
        assert!(
            (base.makespan_s - expected).abs() < 2e-9,
            "replay {} vs pipeline {}",
            base.makespan_s,
            expected
        );
        // Slowing node 0's injection rate stretches the makespan by the
        // extra processing time; node 1's rate change also lands (recv).
        let slow = w.replay(&[Perturbation::Injection {
            node: 0,
            factor: 0.5,
        }]);
        assert!(
            (slow.makespan_s - (expected + p.runtime_msg_cost)).abs() < 2e-9,
            "{}",
            slow.makespan_s
        );
        // Scaling up bandwidth cannot hurt; scaling latency up must hurt.
        let fat = w.replay(&[Perturbation::Link {
            bandwidth: 10.0,
            latency: 1.0,
        }]);
        assert!(fat.makespan_s <= base.makespan_s + 1e-12);
        let laggy = w.replay(&[Perturbation::Link {
            bandwidth: 1.0,
            latency: 10.0,
        }]);
        assert!(laggy.makespan_s > base.makespan_s);
    }

    #[test]
    #[should_panic(expected = "injection node 2 out of range")]
    fn injection_on_a_missing_node_panics() {
        let dag = pair_dag(1);
        let w = WhatIf::new(&Trace::default(), &dag, &MachineProfile::nacl(), 2);
        w.replay(&[Perturbation::Injection {
            node: 2,
            factor: 0.5,
        }]);
    }

    #[test]
    #[should_panic(
        expected = "what-if needs a consistent DAG; 1 faults: enumeration truncated at 2 tasks"
    )]
    fn a_truncated_dag_is_refused() {
        // Cut at two of its four tasks, the chain would replay as a
        // shorter program without complaint.
        let mut b = runtime::dtd::DtdBuilder::new();
        let mut prev = b.insert(0, 1e-5, &[]);
        for _ in 0..3 {
            prev = b.insert(0, 1e-5, &[prev]);
        }
        let dag = UnfoldedDag::enumerate_with_limit(&b.build(), 2);
        WhatIf::new(&Trace::default(), &dag, &MachineProfile::nacl(), 1);
    }

    #[test]
    fn rank_orders_scenarios_by_predicted_speedup() {
        let (dag, trace) = local_pair();
        let w = WhatIf::new(&trace, &dag, &MachineProfile::nacl(), 1);
        let ranked = w.rank(&[
            ("nothing".into(), vec![]),
            (
                "fast kernels".into(),
                vec![Perturbation::TaskKind {
                    kind: 0,
                    factor: 0.5,
                }],
            ),
            (
                "fat network".into(),
                vec![Perturbation::Link {
                    bandwidth: 2.0,
                    latency: 1.0,
                }],
            ),
        ]);
        // The chain is compute-bound and node-local: kernels win, the
        // network is off the critical path entirely.
        assert_eq!(ranked[0].label, "fast kernels");
        assert!(
            (ranked[0].speedup - 2.0).abs() < 1e-9,
            "{}",
            ranked[0].speedup
        );
        assert!((ranked[1].speedup - 1.0).abs() < 1e-12);
        assert!((ranked[2].speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_replay_tracks_a_real_simulated_run() {
        // Six stages over a 4-node ring: each task waits on its own node's
        // previous stage and both ring neighbours', so every node sends two
        // messages per stage through one comm engine, some past the
        // rendezvous switch. Actually run on the simulator, the replay of
        // its drained trace must equal the reported makespan, and every
        // perturbation kind's prediction must equal a re-run with the
        // change made real, in integer nanoseconds.
        use runtime::dtd::DtdBuilder;
        use runtime::{Program, RunConfig};
        let ring = |kind1_factor: f64| -> Program {
            let mut b = DtdBuilder::new();
            let mut prev: Vec<usize> = Vec::new();
            for stage in 0..6u32 {
                prev = (0..4u32)
                    .map(|n| {
                        let kind = n % 2;
                        let cost = 3.3e-5 * f64::from(1 + n + stage % 3);
                        let cost = if kind == 1 { cost * kind1_factor } else { cost };
                        let bytes = if kind == 1 { 100_000 } else { 256 };
                        let deps: Vec<usize> = if prev.is_empty() {
                            Vec::new()
                        } else {
                            [n, (n + 1) % 4, (n + 3) % 4]
                                .map(|m| prev[m as usize])
                                .to_vec()
                        };
                        b.insert_full(n, cost, kind, bytes, &deps)
                    })
                    .collect();
            }
            b.build()
        };
        let ns = |s: f64| (s * 1e9).round() as u64;
        let profile = MachineProfile::nacl();
        let sim = |program: &Program, profile: &MachineProfile| {
            runtime::run(program, &RunConfig::simulated(profile.clone(), 4)).makespan
        };

        let program = ring(1.0);
        let r = runtime::run(
            &program,
            &RunConfig::simulated(profile.clone(), 4).with_trace(),
        );
        let trace = r.trace.expect("traced run");
        let dag = UnfoldedDag::enumerate(&program);
        let w = WhatIf::new(&trace, &dag, &profile, 4);
        let base = w.baseline();
        assert_eq!(ns(base.makespan_s), ns(r.makespan));

        let fast = w.replay(&[Perturbation::TaskKind {
            kind: 1,
            factor: 0.6,
        }]);
        assert_eq!(ns(fast.makespan_s), ns(sim(&ring(0.6), &profile)));

        let link = w.replay(&[Perturbation::Link {
            bandwidth: 2.0,
            latency: 0.5,
        }]);
        let mut fabric = profile.clone();
        fabric.net_eff_bw_bits *= 2.0;
        fabric.net_latency *= 0.5;
        assert_eq!(ns(link.makespan_s), ns(sim(&program, &fabric)));

        let half_rate: Vec<Perturbation> = (0..4)
            .map(|node| Perturbation::Injection { node, factor: 0.5 })
            .collect();
        let slow = w.replay(&half_rate);
        let mut comm = profile.clone();
        comm.runtime_msg_cost /= 0.5;
        assert_eq!(ns(slow.makespan_s), ns(sim(&program, &comm)));
        // Each change moves the makespan, so the equalities have teeth.
        assert!(fast.makespan_s < base.makespan_s);
        assert!(link.makespan_s < base.makespan_s);
        assert!(slow.makespan_s > base.makespan_s);
    }
}
