//! The shared-memory executor: real threads, real task bodies, wall-clock
//! time.
//!
//! This is the runtime the paper's single-node experiments exercise
//! (Figure 6's tile-size tuning runs PaRSEC "on a single node (no network
//! communication)"). All tasks execute in one address space; inter-task
//! flows are `Arc` hand-offs through the activation table.
//!
//! The dispatch hot path is the work-stealing substrate in
//! `crate::dispatch`: each worker owns a bounded Chase–Lev deque
//! ([`crate::deque::StealDeque`]) it pushes its released successors into
//! and pops without locking; the global [`crate::ready_queue::ReadyQueue`]
//! survives only as the injector (root tasks, deque overflow), and a
//! worker that runs dry steals from its peers in a seeded-deterministic
//! victim order before parking. Activation counting goes through the
//! lock-sharded [`crate::pending::ShardedPending`] table: one completing
//! task delivers *all* its output flows with a single lock acquisition
//! per touched shard. Under the default FIFO policy with one worker the dispatch
//! order is exactly the old central-queue order; with several workers it
//! is seed-stable (same victim sequence under a fixed
//! [`RunConfig::steal_seed`]) but interleaving-dependent — see
//! `docs/EXECUTOR.md` for the full determinism contract.
//!
//! Every task execution is recorded as a span (worker index = lane, node
//! 0) through the `obs` recorder, and runtime events — including steal,
//! steal-fail and overflow counts — feed the metric registry and the
//! live samples, so a shared-memory run yields the same observability
//! data a simulated run does.

use crate::dispatch::{worker, NodeShared, RunShared, StealTotals, WorkerId};
use crate::exec::{assemble_report, ExecMode, ModeExt, RunConfig, RunReport};
use crate::pending::PendingTable;
use crate::scheduler::SchedContext;
use crate::task::Program;
use obs::{lane_busy_in_window, names, Live, LiveSample, Recorder};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The whole run is one node: the run-wide state plus its single table
/// and queue set.
struct Shared<'p> {
    run: RunShared<'p>,
    node: NodeShared,
}

/// Periodic live sampler: runs beside the workers inside the same scope,
/// publishing one [`LiveSample`] per tick from the collected span store
/// and the shared queues. Collection is safe concurrently with live
/// producers (the SPSC rings guarantee it); only the final `drain()` —
/// which happens after the scope joins — requires quiescence.
fn sampler(shared: &Shared<'_>, recorder: &Recorder, live: &Live, period_ns: u64, lanes: u32) {
    let period = Duration::from_nanos(period_ns.max(1));
    let slice = period.min(Duration::from_millis(5));
    let mut w0 = shared.run.clock.now_ns();
    let mut elapsed = Duration::ZERO;
    // Safety valve: if a worker panicked, `completed` never reaches the
    // total; stop sampling after ~15 s without progress so this thread
    // does not keep the scope from propagating the panic.
    let total = shared.run.program.total_tasks;
    let mut last_seen = 0u64;
    let mut last_progress = Instant::now();
    while shared.run.completed.load(Ordering::Acquire) < total {
        std::thread::sleep(slice);
        elapsed += slice;
        let done = shared.run.completed.load(Ordering::Acquire);
        if done != last_seen {
            last_seen = done;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > Duration::from_secs(15) {
            return;
        }
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        let w1 = shared.run.clock.now_ns();
        publish_sample(shared, recorder, live, lanes, w0, w1);
        w0 = w1;
    }
    // Tail window up to completion.
    publish_sample(shared, recorder, live, lanes, w0, shared.run.clock.now_ns());
}

fn publish_sample(
    shared: &Shared<'_>,
    recorder: &Recorder,
    live: &Live,
    lanes: u32,
    w0: u64,
    w1: u64,
) {
    if w1 <= w0 {
        return;
    }
    let lane_busy = recorder.with_collected(|spans| lane_busy_in_window(spans, 0, lanes, w0, w1));
    let StealTotals {
        steals,
        steal_fails,
        overflow_pushes,
    } = shared.node.queues.totals();
    live.publish(LiveSample {
        t_ns: w1,
        window_ns: w1 - w0,
        node: 0,
        lane_busy,
        ready_depth: shared.node.queues.len(),
        pending_tasks: shared.node.pending.len(),
        inflight_msgs: 0,
        inflight_bytes: 0,
        dropped_events: recorder.dropped(),
        steals,
        steal_fails,
        overflow_pushes,
    });
}

/// Run `program` under `cfg` on the shared-memory engine (entered through
/// [`crate::run`]).
///
/// Panics if the program is empty, has no roots, or deadlocks.
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let threads = cfg.threads;
    assert!(threads >= 1, "need at least one worker thread");
    assert!(program.total_tasks > 0, "empty program");
    assert!(!program.roots.is_empty(), "program has no root tasks");

    let recorder = cfg.recorder();
    let selector = cfg.scheduler.instance(&SchedContext {
        program,
        profile: cfg.profile.as_ref(),
        nodes: 1,
        lanes: threads as u32,
    });
    let shared = Shared {
        run: RunShared::new(program),
        node: NodeShared::new(selector, threads),
    };
    let queues = &shared.node.queues;
    for &root in &program.roots {
        queues.push_external(PendingTable::root(&program.graph, root));
    }

    let live = cfg.live_board();
    let start = Instant::now();
    crossbeam::thread::scope(|s| {
        for lane in 0..threads {
            let shared = &shared;
            let local = recorder.local();
            let steal_seed = cfg.steal_seed;
            s.spawn(move |_| {
                let id = WorkerId {
                    node: 0,
                    lane: lane as u32,
                    steal_seed,
                    local: &local,
                };
                // One address space: every flow stays on this node.
                worker(
                    &shared.run,
                    &shared.node,
                    id,
                    |flow, _| Some(flow),
                    || queues.wake_all(),
                );
            });
        }
        if let (Some(live), Some(period)) = (live.clone(), cfg.sample_period()) {
            let shared = &shared;
            let recorder = recorder.clone();
            s.spawn(move |_| sampler(shared, &recorder, &live, period, threads as u32));
        }
    })
    .expect("worker panicked");
    let wall_time = start.elapsed().as_secs_f64();
    let Shared { run, node } = &shared;
    let horizon_ns = run.clock.now_ns();

    let completed = run.completed.load(Ordering::Acquire);
    assert_eq!(
        completed, program.total_tasks,
        "run finished early: {completed}/{} tasks",
        program.total_tasks
    );
    assert!(
        node.pending.is_empty(),
        "run finished with {} tasks still pending",
        node.pending.len()
    );
    let flows_delivered = node.pending.flows_delivered();
    run.metrics.counter(names::ACTIVATIONS).add(flows_delivered);
    node.queues.totals().publish(&run.metrics);

    assemble_report(
        cfg,
        ExecMode::SharedMemory,
        wall_time,
        horizon_ns,
        threads as u32,
        completed,
        &recorder,
        &run.metrics,
        live.map(|l| l.history()).unwrap_or_default(),
        ModeExt::SharedMemory { flows_delivered },
    )
}

#[cfg(test)]
mod tests {
    use crate::exec::{run, RunConfig};
    use crate::task::testutil::ExplicitDag;
    use crate::task::{Program, TaskGraph, TaskKey};
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn chain_program(n: i32) -> Program {
        // 0 -> 1 -> 2 -> ... -> n-1
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        let mut indeg: Map<i32, usize> = Map::new();
        for i in 0..n - 1 {
            edges.insert(i, vec![(i + 1, 0)]);
            indeg.insert(i + 1, 1);
        }
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "chain".into(),
            edges,
            indeg,
            node: Map::new(),
            cost: 0.0,
            bytes: 8,
        }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: n as u64,
        }
    }

    fn fan_program(width: i32) -> Program {
        // 0 fans out to 1..=width, all fan into width+1
        let sink = width + 1;
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        let mut indeg: Map<i32, usize> = Map::new();
        edges.insert(0, (1..=width).map(|i| (i, 0)).collect());
        for i in 1..=width {
            edges.insert(i, vec![(sink, (i - 1) as usize)]);
            indeg.insert(i, 1);
        }
        indeg.insert(sink, width as usize);
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "fan".into(),
            edges,
            indeg,
            node: Map::new(),
            cost: 0.0,
            bytes: 8,
        }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: (width + 2) as u64,
        }
    }

    #[test]
    fn chain_completes_single_thread() {
        let p = chain_program(50);
        let r = run(&p, &RunConfig::shared_memory(1));
        assert_eq!(r.tasks_executed, 50);
        assert_eq!(r.flows_delivered(), Some(49));
        assert_eq!(r.counter(obs::names::ACTIVATIONS), 49);
    }

    #[test]
    fn chain_completes_many_threads() {
        let p = chain_program(100);
        let r = run(&p, &RunConfig::shared_memory(8));
        assert_eq!(r.tasks_executed, 100);
    }

    #[test]
    fn fan_out_fan_in_completes() {
        let p = fan_program(64);
        let r = run(&p, &RunConfig::shared_memory(4));
        assert_eq!(r.tasks_executed, 66);
        assert_eq!(r.flows_delivered(), Some(128));
    }

    #[test]
    fn repeated_runs_agree() {
        for _ in 0..5 {
            let p = fan_program(16);
            let r = run(&p, &RunConfig::shared_memory(3));
            assert_eq!(r.tasks_executed, 18);
        }
    }

    #[test]
    fn trace_spans_cover_every_task() {
        let p = fan_program(16);
        let r = run(&p, &RunConfig::shared_memory(3).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.task_spans().count(), 18);
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn steal_counters_reach_metrics_and_deque_spill_is_counted() {
        // A single worker with a fan wider than the local deque: the
        // overflow pushes must be visible in the metric snapshot, and
        // the run still executes every task exactly once.
        let width = (crate::dispatch::LOCAL_QUEUE_CAP + 50) as i32;
        let p = fan_program(width);
        let r = run(&p, &RunConfig::shared_memory(1));
        assert_eq!(r.tasks_executed, (width + 2) as u64);
        assert!(
            r.counter(obs::names::OVERFLOW_PUSHES) >= 50,
            "overflow pushes: {}",
            r.counter(obs::names::OVERFLOW_PUSHES)
        );
        // One worker has nobody to steal from.
        assert_eq!(r.counter(obs::names::STEALS), 0);
    }

    #[test]
    fn steal_seed_is_accepted_and_run_completes() {
        let p = fan_program(32);
        let r = run(&p, &RunConfig::shared_memory(4).with_steal_seed(0xDEC0DE));
        assert_eq!(r.tasks_executed, 34);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_threads_rejected() {
        run(&chain_program(2), &RunConfig::shared_memory(0));
    }
}

#[cfg(test)]
mod failure_tests {
    use crate::exec::{run, RunConfig};
    use crate::task::{FlowData, OutputDep, Params, Program, TaskClass, TaskGraph, TaskKey};
    use std::sync::Arc;

    /// A class whose body panics on a chosen task.
    struct Exploding {
        bomb: i32,
    }

    impl TaskClass for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn node_of(&self, _p: Params) -> u32 {
            0
        }
        fn activation_count(&self, p: Params) -> usize {
            usize::from(p[0] > 0)
        }
        fn num_output_flows(&self, p: Params) -> usize {
            usize::from(p[0] < 3)
        }
        fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
            if p[0] < 3 {
                out.push(OutputDep {
                    flow: 0,
                    consumer: TaskKey::new(0, [p[0] + 1, 0, 0, 0]),
                    slot: 0,
                });
            }
        }
        fn execute(&self, p: Params, _i: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
            assert!(p[0] != self.bomb, "task body failure injected");
            out.resize(self.num_output_flows(p), FlowData::sized(8));
        }
        fn output_bytes(&self, _p: Params, _f: usize) -> usize {
            8
        }
        fn cost(&self, _p: Params) -> f64 {
            1e-6
        }
    }

    fn chain(bomb: i32) -> Program {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(Exploding { bomb }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 4,
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn body_panic_fails_the_run_loudly() {
        let _ = run(&chain(2), &RunConfig::shared_memory(2));
    }

    #[test]
    fn clean_bodies_complete() {
        let r = run(&chain(-1), &RunConfig::shared_memory(2));
        assert_eq!(r.tasks_executed, 4);
    }

    /// A class that produces fewer flows than its outputs reference.
    struct ShortOutputs;
    impl TaskClass for ShortOutputs {
        fn name(&self) -> &str {
            "short"
        }
        fn node_of(&self, _p: Params) -> u32 {
            0
        }
        fn activation_count(&self, p: Params) -> usize {
            usize::from(p[0] > 0)
        }
        fn num_output_flows(&self, _p: Params) -> usize {
            1
        }
        fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
            if p[0] == 0 {
                out.push(OutputDep {
                    flow: 0,
                    consumer: TaskKey::new(0, [1, 0, 0, 0]),
                    slot: 0,
                });
            }
        }
        fn execute(&self, _p: Params, _i: &mut [Option<FlowData>], _out: &mut Vec<FlowData>) {
            // bug under test: declared one flow, produced none
        }
        fn output_bytes(&self, _p: Params, _f: usize) -> usize {
            8
        }
        fn cost(&self, _p: Params) -> f64 {
            1e-6
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn missing_output_flow_detected() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ShortOutputs));
        let p = Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 2,
        };
        let _ = run(&p, &RunConfig::shared_memory(1));
    }
}
