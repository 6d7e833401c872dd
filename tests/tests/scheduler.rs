//! The three scheduling policies across crates: completion within the
//! static bound on every scheme, determinism on the simulated executor,
//! FIFO-by-seq tie-breaking for every policy, and cross-executor
//! agreement on dispatch order under a fixed policy.

use analyze::AnalyzeConfig;
use ca_stencil::{build_base, build_base_dtd, build_ca, Problem, StencilConfig};
use integration::scrambled_config;
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::ready_queue::ReadyQueue;
use runtime::{
    run, DtdBuilder, FlowData, OutputDep, Params, Program, ReadyTask, RunConfig, SchedulerPolicy,
    TaskClass, TaskGraph, TaskKey,
};
use std::sync::Arc;

const POLICIES: [SchedulerPolicy; 3] = [
    SchedulerPolicy::Fifo,
    SchedulerPolicy::Lifo,
    SchedulerPolicy::Priority,
];

/// The three schemes (base, CA, DTD) at n = 256, tile 32, 6
/// iterations, s = 3 and r = 0.4 on a 2 × 2 NaCL grid.
fn small_sweep() -> (MachineProfile, [(&'static str, Program); 3]) {
    let profile = MachineProfile::nacl();
    let cfg = StencilConfig::new(Problem::laplace(256), 32, 6, ProcessGrid::new(2, 2))
        .with_steps(3)
        .with_ratio(0.4)
        .with_profile(profile.clone());
    let schemes = [
        ("base", build_base(&cfg, false).program),
        ("ca", build_ca(&cfg, false).program),
        ("dtd", build_base_dtd(&cfg)),
    ];
    (profile, schemes)
}

/// Every policy runs every scheme of the small sweep to completion, and no
/// simulated makespan beats `analyze`'s static lower bound: a policy that
/// deadlocked, dropped work or mis-charged time would fail one of the two.
#[test]
fn every_policy_completes_every_scheme_within_the_static_bound() {
    let (profile, schemes) = small_sweep();
    let lanes = profile.compute_threads();
    for (scheme, program) in &schemes {
        let analysis = analyze::analyze_program(program, &AnalyzeConfig::new().with_lanes(lanes));
        let bound = analysis.path.expect("acyclic").makespan_lower_bound;
        for policy in POLICIES {
            let report = run(
                program,
                &RunConfig::simulated(profile.clone(), 4).with_scheduler(policy),
            );
            assert_eq!(
                report.tasks_executed, program.total_tasks,
                "{scheme}/{policy:?}: deadlock or dropped work"
            );
            assert!(
                report.makespan >= bound * (1.0 - 1e-9),
                "{scheme}/{policy:?}: makespan {} s beats the static bound {bound} s",
                report.makespan
            );
        }
    }
}

/// Every cell of the small sweep is a pure function of its inputs: the same
/// scheme under the same policy gives a bit-identical makespan and span
/// trace when simulated twice.
#[test]
fn simulated_cells_are_deterministic_per_scheduler() {
    let (profile, schemes) = small_sweep();
    for (scheme, program) in &schemes {
        for policy in POLICIES {
            let sim = || {
                run(
                    program,
                    &RunConfig::simulated(profile.clone(), 4)
                        .with_scheduler(policy)
                        .with_trace(),
                )
            };
            let (a, b) = (sim(), sim());
            assert_eq!(
                a.makespan.to_bits(),
                b.makespan.to_bits(),
                "{scheme}/{policy:?}: {} vs {}",
                a.makespan,
                b.makespan
            );
            let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
            assert_eq!(ta.spans, tb.spans, "{scheme}/{policy:?}: traces diverge");
        }
    }
}

/// Same policy + same config ⇒ bit-identical simulated reports: makespan,
/// counters, and the full span trace, for every policy.
#[test]
fn every_portfolio_scheduler_is_deterministic_in_simulation() {
    let cfg = scrambled_config(16, 4, 6, ProcessGrid::new(2, 2), 2, 5);
    let program = build_ca(&cfg, false).program;
    for policy in POLICIES {
        let sim = || {
            run(
                &program,
                &RunConfig::simulated(MachineProfile::nacl(), 4)
                    .with_scheduler(policy)
                    .with_trace(),
            )
        };
        let (a, b) = (sim(), sim());
        assert_eq!(a.scheduler, policy.name());
        assert_eq!(b.scheduler, policy.name());
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{policy:?}: {} vs {}",
            a.makespan,
            b.makespan
        );
        assert_eq!(a.tasks_executed, b.tasks_executed, "{policy:?}");
        assert_eq!(
            a.counter(obs::names::MESSAGES_SENT),
            b.counter(obs::names::MESSAGES_SENT),
            "{policy:?}"
        );
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(ta.spans, tb.spans, "{policy:?}: traces diverge");
    }
}

/// Six independent equal-cost tasks of equal priority: the priority
/// policy must fall back to FIFO-by-seq, like FIFO itself; only LIFO
/// (whose contract *is* reversal) pops in reverse.
#[test]
fn equal_ranks_resolve_fifo_by_seq_for_every_policy() {
    let mut b = DtdBuilder::new();
    for _ in 0..6 {
        b.insert(0, 1e-3, &[]);
    }
    let program = b.build();
    let keys: Vec<TaskKey> = (0..6).map(|i| TaskKey::new(0, [i, 0, 0, 0])).collect();
    for policy in POLICIES {
        let mut q = ReadyQueue::new(policy, Arc::clone(&program.graph));
        for &key in &keys {
            q.push(Box::new(ReadyTask {
                key,
                inputs: Vec::new(),
            }));
        }
        let popped: Vec<TaskKey> = std::iter::from_fn(|| q.pop()).map(|t| t.key).collect();
        let expected: Vec<TaskKey> = if policy == SchedulerPolicy::Lifo {
            keys.iter().rev().copied().collect()
        } else {
            keys.clone()
        };
        assert_eq!(popped, expected, "{policy:?}");
    }
}

/// One root fanning out to five children, one worker lane: the
/// ready-queue order fully determines execution order, so a fixed policy
/// must produce the same task-start sequence on the simulated and
/// shared-memory executors (timestamps differ — virtual vs wall clock —
/// but the order may not).
#[test]
fn fixed_scheduler_orders_dispatch_identically_across_executors() {
    // The root releases children 1..=5 in insertion order, so FIFO and
    // LIFO must disagree with each other while each agrees with itself
    // across executors.
    let build = || {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 1e-4, &[]);
        for cost_ms in [1.0, 5.0, 3.0, 2.0, 4.0] {
            b.insert(0, cost_ms * 1e-3, &[root]);
        }
        b.build()
    };
    let ids: Vec<u64> = (0..6)
        .map(|i| TaskKey::new(0, [i, 0, 0, 0]).instance_id())
        .collect();
    // localhost(2, ..) reserves one core for comm, leaving 1 worker lane —
    // matching shared_memory(1)'s single worker.
    let profile = MachineProfile::localhost(2, 40e9, 10e9);
    for (policy, expected) in [
        (SchedulerPolicy::Fifo, vec![0, 1, 2, 3, 4, 5]),
        // Newest release first: the children in reverse.
        (SchedulerPolicy::Lifo, vec![0, 5, 4, 3, 2, 1]),
    ] {
        for cfg in [
            RunConfig::simulated(profile.clone(), 1),
            RunConfig::shared_memory(1),
        ] {
            let program: Program = build();
            let report = run(&program, &cfg.with_scheduler(policy).with_trace());
            let order = start_order(&report.trace.unwrap(), &ids);
            assert_eq!(order, expected, "{policy:?} on {:?}", report.mode);
        }
    }
}

/// The stealing path respects the scheduler contract at dependency
/// barriers: with one task per worker per layer and all-to-all edges
/// between layers, no executor — simulated central queue or real
/// work-stealing deques — may start a layer before the previous layer
/// completed, so the per-layer *sets* of the start order agree across
/// executors even though stealing scrambles order within a layer.
#[test]
fn stealing_dispatch_preserves_layer_sets_across_executors() {
    const WORKERS: usize = 4;
    const LAYERS: usize = 6;
    let build = || {
        let mut b = DtdBuilder::new();
        let mut prev: Vec<_> = (0..WORKERS).map(|_| b.insert(0, 1e-4, &[])).collect();
        for _ in 1..LAYERS {
            prev = (0..WORKERS).map(|_| b.insert(0, 1e-4, &prev)).collect();
        }
        b.build()
    };
    let ids: Vec<u64> = (0..WORKERS * LAYERS)
        .map(|i| TaskKey::new(0, [i as i32, 0, 0, 0]).instance_id())
        .collect();
    // localhost(5, ..) reserves one core for comm, leaving 4 worker lanes.
    let profile = MachineProfile::localhost(WORKERS as u32 + 1, 40e9, 10e9);
    for cfg in [
        RunConfig::simulated(profile.clone(), 1),
        RunConfig::shared_memory(WORKERS),
    ] {
        let program: Program = build();
        let report = run(&program, &cfg.with_trace());
        let order = start_order(&report.trace.unwrap(), &ids);
        assert_eq!(order.len(), WORKERS * LAYERS, "{:?}", report.mode);
        for layer in 0..LAYERS {
            let mut chunk: Vec<usize> = order[layer * WORKERS..(layer + 1) * WORKERS].to_vec();
            chunk.sort_unstable();
            let expect: Vec<usize> = (layer * WORKERS..(layer + 1) * WORKERS).collect();
            assert_eq!(
                chunk, expect,
                "layer {layer} set diverges on {:?}",
                report.mode
            );
        }
    }
}

/// Delegates to the one class of a program, except that task 0's body
/// first naps: by the time it releases its successors, the run's other
/// workers have found nothing to do and parked.
struct NappingRoot(Arc<TaskGraph>);

impl NappingRoot {
    fn class(&self) -> &dyn TaskClass {
        self.0.class(0)
    }
}

impl TaskClass for NappingRoot {
    fn name(&self) -> &str {
        self.class().name()
    }
    fn param_box(&self) -> [u32; 4] {
        self.class().param_box()
    }
    fn node_of(&self, p: Params) -> u32 {
        self.class().node_of(p)
    }
    fn activation_count(&self, p: Params) -> usize {
        self.class().activation_count(p)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        self.class().num_output_flows(p)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        self.class().outputs(p, out)
    }
    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        if p[0] == 0 {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        self.class().execute(p, inputs, out)
    }
    fn cost(&self, p: Params) -> f64 {
        self.class().cost(p)
    }
}

/// A fan wider than the local-deque capacity on the real executor: the
/// root's release wakes the parked workers while it fills its own deque
/// and then overflows into its own lane's inbox (DTD tasks have no home,
/// so every release stays on the releasing lane), and the woken workers
/// can only steal — from the owner's deque, then from its inbox. Every
/// task still runs exactly once, and steals are actually observed
/// (retried a few times — steal timing depends on the OS scheduler).
#[test]
fn steal_heavy_fan_runs_every_task_exactly_once() {
    const WIDTH: usize = 2048;
    let build = || {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        for _ in 0..WIDTH {
            b.insert(0, 0.0, &[root]);
        }
        let fan = b.build();
        let mut graph = TaskGraph::new();
        graph.add_class(Arc::new(NappingRoot(fan.graph)));
        Program {
            graph: Arc::new(graph),
            ..fan
        }
    };
    for attempt in 0..25 {
        let program: Program = build();
        let mut report = run(&program, &RunConfig::shared_memory(4).with_trace());
        assert_eq!(report.tasks_executed, (WIDTH + 1) as u64);
        let trace = report.trace.take().unwrap();
        let mut seen: Vec<u64> = trace
            .spans
            .iter()
            .filter_map(|s| s.task_instance())
            .collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before, "a task span was recorded twice");
        assert_eq!(seen.len(), WIDTH + 1, "a task span went missing");
        assert!(
            report.counter(obs::names::OVERFLOW_PUSHES) > 0,
            "a {WIDTH}-wide fan must overflow the local deque"
        );
        if report.counter(obs::names::STEALS) > 0 {
            return; // stealing path exercised and conserved every task
        }
        eprintln!("attempt {attempt}: no steals observed, retrying");
    }
    panic!("no run out of 25 ever recorded a steal");
}

/// Home hits count the tasks that ran on their home lane: on one worker
/// every stencil task runs at home, on several almost every one does
/// (the rest were stolen), and a DTD task has no home to hit.
#[test]
fn home_hits_count_tasks_run_on_their_home_lane() {
    let cfg = scrambled_config(64, 8, 4, ProcessGrid::new(1, 1), 2, 3);
    let hits = |program: &Program, workers: usize| {
        let r = run(program, &RunConfig::shared_memory(workers));
        (r.counter(obs::names::HOME_HITS), r.tasks_executed)
    };
    for program in [build_base(&cfg, true).program, build_ca(&cfg, true).program] {
        let (one, tasks) = hits(&program, 1);
        assert_eq!(one, tasks, "one worker runs every task at home");
        let (two, tasks) = hits(&program, 2);
        assert!(two <= tasks && two > 0, "{two} of {tasks} at home");
    }
    assert_eq!(
        hits(&build_base_dtd(&cfg), 2).0,
        0,
        "DTD tasks have no home"
    );
}

/// Task ids in start order: stable sort by start time, so spans sharing a
/// wall-clock timestamp keep the single worker lane's recorded order.
fn start_order(trace: &obs::Trace, ids: &[u64]) -> Vec<usize> {
    let mut spans: Vec<&obs::SpanRecord> = trace
        .spans
        .iter()
        .filter(|s| s.task_instance().is_some())
        .collect();
    spans.sort_by_key(|s| s.start_ns);
    spans
        .iter()
        .map(|s| {
            ids.iter()
                .position(|&id| id == s.task)
                .expect("span joins a known task")
        })
        .collect()
}
