//! The threaded executor: one real thread pool **per node**, with
//! inter-node flows carried by real channels through a dedicated
//! communication thread per node — the paper's process layout (workers +
//! one comm thread), realized with actual concurrency instead of virtual
//! time. Every run on real threads goes through this module's `execute`,
//! whatever its node count.
//!
//! A one-node run ([`RunConfig::shared_memory`], which is exactly
//! `multi_process(1, threads)`) is one address space, as in the paper's
//! single-node runs (Figure 6 runs PaRSEC "on a single node (no network
//! communication)"): every flow stays local without a placement lookup,
//! and no comm thread or channel is created. A program built for a larger
//! process grid therefore still runs on one node. With several nodes,
//! message arrival order is genuinely nondeterministic, so a run that
//! matches the sequential reference bit for bit demonstrates that the
//! dataflow (activation counts, slots, CA exchange cadence) is correct
//! under races, not just under the simulator's deterministic schedule. The
//! engine measures wall-clock time but applies no performance model.
//!
//! Within a node, dispatch is the work-stealing substrate of
//! `crate::dispatch`: per-worker Chase–Lev deques, the node's
//! [`crate::ready_queue::ReadyQueue`] demoted to injector duty (roots,
//! comm-thread deliveries, deque overflow) and a seeded steal sweep before
//! parking. Activation counting goes through the run's one dense
//! [`crate::pending::PendingTable`], which every node's workers and comm
//! thread share: a task's entry is found by its slot, so a delivery costs
//! a claim on one entry, no hash and no lock shared with other tasks. The
//! worker loop and the task-completion routine live in
//! `crate::dispatch::worker`; this module only adds the cross-node branch
//! (`Cluster::ship`). Steal/steal-fail/overflow counts are kept per node
//! and surfaced in the node's live samples and the run's metric snapshot.
//!
//! Task executions are recorded as spans (worker index = lane within the
//! node); the comm thread records its delivery processing on the node's
//! comm lane (lane = `threads_per_node`), mirroring the simulator's trace
//! layout.

use crate::dispatch::{worker, NodeQueues, OnUnwind, RunShared, StealTotals, WorkerId};
use crate::exec::{assemble_report, ExecMode, ModeExt, RunConfig, RunReport};
use crate::pending::{Delivery, PendingTable, SpareTasks};
use crate::task::{FlowData, Program, TaskKey};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{names, window_busy, Live, LiveSample, LocalRecorder, MsgRecorder};
use std::sync::atomic::Ordering;
use std::time::Duration;

enum CommItem {
    Flow {
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        /// Sending node, for the message span's `src`.
        src: u32,
        /// Kind tag of the producing task, stamped into the message span.
        kind: u32,
        /// Wall-clock instant the producer handed the flow to the channel
        /// — the message span's enqueue timestamp; the gap to the comm
        /// thread's dequeue is real channel queueing.
        enqueue_ns: u64,
    },
    Shutdown,
}

/// One node's comm-thread channel.
struct Inbox {
    tx: Sender<CommItem>,
    rx: Receiver<CommItem>,
}

struct Cluster<'p> {
    run: RunShared<'p>,
    nodes: Vec<NodeQueues>,
    /// One inbox per node; empty on a one-node run, which has no
    /// cross-node flow to carry.
    inboxes: Vec<Inbox>,
    workers_per_node: usize,
}

impl<'p> Cluster<'p> {
    fn node_of(&self, key: TaskKey) -> usize {
        if self.nodes.len() == 1 {
            return 0;
        }
        let n = self.run.program.graph.class(key.class).node_of(key.params) as usize;
        assert!(
            n < self.nodes.len(),
            "{key:?} placed on node {n} of {}",
            self.nodes.len()
        );
        n
    }

    /// The placement-specific branch of the worker loop: keep a flow whose
    /// consumer lives on `node`, route any other through the destination's
    /// comm thread.
    fn ship(&self, node: usize, flow: Delivery, kind: u32) -> Option<Delivery> {
        let dst = self.node_of(flow.consumer);
        if dst == node {
            return Some(flow);
        }
        self.inboxes[dst]
            .tx
            .send(CommItem::Flow {
                consumer: flow.consumer,
                slot: flow.slot,
                data: flow.data,
                src: node as u32,
                kind,
                enqueue_ns: self.run.clock.now_ns(),
            })
            .expect("comm channel closed");
        None
    }

    /// Wake every worker and comm thread once the run is over (its last
    /// task done, or a thread unwinding).
    fn shutdown_all(&self) {
        for n in &self.nodes {
            n.wake_all();
        }
        for inbox in &self.inboxes {
            let _ = inbox.tx.send(CommItem::Shutdown);
        }
    }
}

fn comm_thread(
    cluster: &Cluster<'_>,
    node: usize,
    mut local: LocalRecorder,
    mut msg_local: MsgRecorder,
) {
    let run = &cluster.run;
    let _abort = OnUnwind(|| {
        run.done.store(true, Ordering::Release);
        cluster.shutdown_all();
    });
    let rx = &cluster.inboxes[node].rx;
    let comm_lane = cluster.workers_per_node as u32;
    let queues = &cluster.nodes[node];
    // This thread only delivers, so it never has a retired task to reuse.
    let mut spares = SpareTasks::new();
    let mut activations = 0u64;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(CommItem::Flow {
                consumer,
                slot,
                data,
                src,
                kind,
                enqueue_ns,
            }) => {
                // Dequeue is the injection instant; delivery completes
                // once the flow has landed in the destination's pending
                // table. All three stamps share the cluster's wall clock,
                // so enqueue ≤ inject ≤ deliver holds by monotonicity.
                let start_ns = run.clock.now_ns();
                let bytes = data.bytes as u64;
                let graph = &run.program.graph;
                if let Some(t) = run
                    .pending
                    .deliver(graph, consumer, slot, data, &mut spares)
                {
                    queues.push_external(t);
                }
                activations += 1;
                let end_ns = run.clock.now_ns();
                local.comm(node as u32, comm_lane, start_ns, end_ns);
                msg_local.record(obs::MsgSpan {
                    src,
                    dst: node as u32,
                    kind,
                    bytes,
                    enqueue_ns,
                    inject_ns: start_ns.max(enqueue_ns),
                    deliver_ns: end_ns.max(enqueue_ns),
                });
            }
            Ok(CommItem::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if run.done.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    run.metrics.counter(names::ACTIVATIONS).add(activations);
}

/// Periodic live sampler for the cluster: one [`LiveSample`] per node per
/// tick, until the run is over. Lane busy fractions come from the lanes'
/// busy clocks; queue depths are probed from the node's queues (its comm
/// queue length doubles as "messages in flight" — a flow queued at the
/// destination's comm thread is the wire here), and the node's
/// cumulative steal/overflow counters ride along.
fn sampler(cluster: &Cluster<'_>, live: &Live, period_ns: u64) {
    let period = Duration::from_nanos(period_ns.max(1));
    let slice = period.min(Duration::from_millis(5));
    let run = &cluster.run;
    // The windows tile the run from its clock's origin, where every busy
    // clock reads 0, so a run that ends before this thread gets going
    // still lands in the tail window.
    let mut w0 = 0;
    let mut last_busy = vec![vec![0u64; cluster.workers_per_node]; cluster.nodes.len()];
    let mut elapsed = Duration::ZERO;
    while !run.done.load(Ordering::Acquire) {
        std::thread::sleep(slice);
        elapsed += slice;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        let w1 = run.clock.now_ns();
        publish_samples(cluster, live, &mut last_busy, w0, w1);
        w0 = w1;
    }
    // Tail window up to completion.
    publish_samples(cluster, live, &mut last_busy, w0, run.clock.now_ns());
}

fn publish_samples(
    cluster: &Cluster<'_>,
    live: &Live,
    last_busy: &mut [Vec<u64>],
    w0: u64,
    w1: u64,
) {
    if w1 <= w0 {
        return;
    }
    let mut pending = vec![0; cluster.nodes.len()];
    for key in cluster.run.pending.waiting(&cluster.run.program.graph) {
        pending[cluster.node_of(key)] += 1;
    }
    for (n, node) in cluster.nodes.iter().enumerate() {
        let StealTotals {
            steals,
            steal_fails,
            overflow_pushes,
        } = node.totals();
        let readings = node.busy_clocks().map(|c| c.read(w1));
        live.publish(LiveSample {
            t_ns: w1,
            window_ns: w1 - w0,
            node: n as u32,
            lane_busy: window_busy(&mut last_busy[n], readings, w1 - w0),
            ready_depth: node.len(),
            pending_tasks: pending[n],
            inflight_msgs: cluster.inboxes.get(n).map_or(0, |i| i.rx.len() as u64),
            inflight_bytes: 0,
            steals,
            steal_fails,
            overflow_pushes,
        });
    }
}

/// Run `program` under `cfg` on real threads (entered through
/// [`crate::run`]): `cfg.nodes` node-local pools of `cfg.threads` workers
/// each, plus one comm thread per node when there is more than one.
///
/// Panics if the program is empty or has no roots, if a task body panics
/// ("worker panicked"), or if the run stalls.
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let nodes = cfg.nodes;
    let threads_per_node = cfg.threads;
    assert!(nodes >= 1, "need at least one node");
    assert!(threads_per_node >= 1, "need at least one worker per node");
    assert!(program.total_tasks > 0, "empty program");
    assert!(!program.roots.is_empty(), "program has no root tasks");

    let recorder = cfg.recorder();
    let cluster = Cluster {
        run: RunShared::new(program),
        nodes: (0..nodes)
            .map(|_| NodeQueues::new(cfg.scheduler, &program.graph, threads_per_node))
            .collect(),
        inboxes: match nodes {
            1 => Vec::new(),
            _ => (0..nodes)
                .map(|_| {
                    let (tx, rx) = unbounded();
                    Inbox { tx, rx }
                })
                .collect(),
        },
        workers_per_node: threads_per_node,
    };

    for &root in &program.roots {
        let node = cluster.node_of(root);
        cluster.nodes[node].push_external(PendingTable::root(&program.graph, root));
    }

    let live = cfg.live_board();
    crossbeam::thread::scope(|s| {
        for node in 0..nodes as usize {
            for lane in 0..threads_per_node {
                let cluster = &cluster;
                let local = recorder.local();
                // Decorrelate lanes across nodes: each (node, lane) pair
                // gets its own deterministic victim sequence (node 0 uses
                // the configured seed as is).
                let steal_seed = cfg.steal_seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                s.spawn(move |_| {
                    let id = WorkerId {
                        node: node as u32,
                        lane: lane as u32,
                        steal_seed,
                        local,
                    };
                    worker(
                        &cluster.run,
                        &cluster.nodes[node],
                        id,
                        |flow, kind| cluster.ship(node, flow, kind),
                        || cluster.shutdown_all(),
                    );
                });
            }
        }
        for node in 0..cluster.inboxes.len() {
            let cluster = &cluster;
            let local = recorder.local();
            let msg_local = recorder.msg_local();
            s.spawn(move |_| comm_thread(cluster, node, local, msg_local));
        }
        if let (Some(live), Some(period)) = (live.clone(), cfg.sample_period()) {
            let cluster = &cluster;
            s.spawn(move |_| sampler(cluster, &live, period));
        }
    })
    .expect("worker panicked");
    let run = &cluster.run;
    // The run ends at its last task completion, as in the simulator; the
    // threads' shutdown after it (the sampler sleeps in 5 ms slices) is
    // not lane time.
    let horizon_ns = run.finished_ns.load(Ordering::Acquire);

    let completed = run.completed.load(Ordering::Acquire);
    assert_eq!(
        completed, program.total_tasks,
        "run finished early: {completed}/{} tasks",
        program.total_tasks
    );
    assert!(
        run.pending.is_empty(),
        "run finished with {} tasks still pending",
        run.pending.len()
    );
    for n in &cluster.nodes {
        n.totals().publish(&run.metrics);
    }
    // Every thread added its own deliveries; every cross-node flow was
    // counted as one sent message.
    let snapshot = run.metrics.snapshot();
    let flows_delivered = snapshot.counter(names::ACTIVATIONS);
    let cross_node_flows = snapshot.counter(names::MESSAGES_SENT);

    assemble_report(
        cfg,
        ExecMode::MultiProcess,
        horizon_ns,
        threads_per_node as u32,
        completed,
        &recorder,
        &run.metrics,
        live.map(|l| l.history()).unwrap_or_default(),
        ModeExt::MultiProcess {
            cross_node_flows,
            flows_delivered,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::DtdBuilder;
    use crate::exec::{run, RunConfig};
    use crate::task::testutil::ExplicitDag;
    use crate::task::TaskGraph;
    use std::collections::HashMap as Map;
    use std::sync::Arc;

    fn cross_flows(r: &RunReport) -> u64 {
        match r.ext {
            ModeExt::MultiProcess {
                cross_node_flows, ..
            } => cross_node_flows,
            _ => panic!("wrong ext"),
        }
    }

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
            bound: [n as u32, 1, 1, 1],
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
            bound: [sink as u32 + 1, 1, 1, 1],
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

    #[test]
    fn cross_node_chain_completes() {
        let mut b = DtdBuilder::new();
        let mut prev = b.insert(0, 0.0, &[]);
        for i in 1..40 {
            prev = b.insert(i % 4, 0.0, &[prev]);
        }
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(4, 2));
        assert_eq!(r.tasks_executed, 40);
        // node changes 3 out of every 4 hops
        assert!(cross_flows(&r) >= 29, "{}", cross_flows(&r));
        assert_eq!(r.counter(obs::names::MESSAGES_SENT), cross_flows(&r));
        assert_eq!(r.flows_delivered(), Some(39));
    }

    #[test]
    fn single_node_has_no_cross_flows() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        for _ in 0..10 {
            let _ = b.insert(0, 0.0, &[root]);
        }
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(1, 3));
        assert_eq!(r.tasks_executed, 11);
        assert_eq!(cross_flows(&r), 0);
        assert_eq!(r.counter(obs::names::BYTES_SENT), 0);
    }

    #[test]
    fn one_node_keeps_flows_placed_elsewhere_local() {
        // Placed for four nodes, run on one: one address space, so every
        // flow stays local and no comm lane or message appears.
        let mut b = DtdBuilder::new();
        let mut prev = b.insert(0, 0.0, &[]);
        for i in 1..12 {
            prev = b.insert(i % 4, 0.0, &[prev]);
        }
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(1, 2).with_trace());
        assert_eq!(r.tasks_executed, 12);
        assert_eq!(r.flows_delivered(), Some(11));
        assert_eq!(cross_flows(&r), 0);
        let trace = r.trace.unwrap();
        assert_eq!(trace.nodes(), vec![0]);
        assert!(trace.msgs.is_empty());
        assert!(trace.spans.iter().all(|s| s.kind != obs::KIND_COMM));
    }

    #[test]
    fn wide_cross_node_fan_completes_repeatedly() {
        for _ in 0..5 {
            let mut b = DtdBuilder::new();
            let root = b.insert(0, 0.0, &[]);
            let mids: Vec<_> = (0..32).map(|i| b.insert(i % 4, 0.0, &[root])).collect();
            let _sink = b.insert(3, 0.0, &mids);
            let p = b.build();
            let r = run(&p, &RunConfig::multi_process(4, 2));
            assert_eq!(r.tasks_executed, 34);
        }
    }

    #[test]
    fn trace_places_tasks_on_their_nodes() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..8).map(|i| b.insert(i % 2, 0.0, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(2, 2).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.task_spans().count(), 10);
        assert_eq!(trace.nodes(), vec![0, 1]);
        // comm spans live on the comm lane
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.kind == obs::KIND_COMM)
            .all(|s| s.lane == 2));
    }

    #[test]
    fn cross_node_flows_trace_msg_spans_with_ordered_stamps() {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..8).map(|i| b.insert(i % 2, 0.0, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(2, 2).with_trace());
        let cross = cross_flows(&r);
        let bytes_sent = r.counter(obs::names::BYTES_SENT);
        let trace = r.trace.unwrap();
        // Every cross-node flow became exactly one message span.
        assert_eq!(trace.msgs.len() as u64, cross);
        assert!(!trace.msgs.is_empty(), "diamond over 2 nodes crosses");
        for m in &trace.msgs {
            assert_ne!(m.src, m.dst, "only cross-node flows are messages");
            assert!(m.dst < 2);
            assert!(m.inject_ns >= m.enqueue_ns);
            assert!(m.deliver_ns >= m.inject_ns);
            assert!(m.bytes > 0);
        }
        // The matrix totals agree with the engine's byte counter.
        let matrix = trace.comm_matrix();
        assert_eq!(matrix.total_messages(), cross);
        assert_eq!(matrix.total_bytes(), bytes_sent);
    }

    #[test]
    fn makespan_is_the_occupancy_horizon_on_one_and_two_nodes() {
        for nodes in [1u32, 2] {
            let mut b = DtdBuilder::new();
            let root = b.insert(0, 0.0, &[]);
            let mids: Vec<_> = (0..16).map(|i| b.insert(i % nodes, 0.0, &[root])).collect();
            let _sink = b.insert(0, 0.0, &mids);
            let r = run(&b.build(), &RunConfig::multi_process(nodes, 2));
            let horizon_ns = (r.makespan * 1e9).round() as u64;
            assert_eq!(
                r.overhead.lane_time_ns,
                horizon_ns * 2 * nodes as u64,
                "{nodes} node(s): lane time is not makespan × lanes × nodes"
            );
        }
    }

    #[test]
    fn steal_counters_survive_to_the_snapshot() {
        // Wide fan on one node with several workers: stealing is the
        // only way idle lanes acquire work released by the root's lane,
        // so the counters must be present (possibly zero steals if one
        // lane drains everything, but the keys must exist).
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        let mids: Vec<_> = (0..64).map(|_| b.insert(0, 1e-5, &[root])).collect();
        let _sink = b.insert(0, 0.0, &mids);
        let p = b.build();
        let r = run(&p, &RunConfig::multi_process(1, 4));
        assert_eq!(r.tasks_executed, 66);
        assert!(r.metrics.counters.contains_key(obs::names::STEALS));
        assert!(r.metrics.counters.contains_key(obs::names::STEAL_FAILS));
        assert!(r.metrics.counters.contains_key(obs::names::OVERFLOW_PUSHES));
    }
}

#[cfg(test)]
mod failure_tests {
    use crate::exec::{run, RunConfig};
    use crate::task::{FlowData, OutputDep, Params, Program, TaskClass, TaskGraph, TaskKey};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A four-task chain, task `i` on node `i % nodes`, whose body panics
    /// on task `bomb`.
    struct Exploding {
        bomb: i32,
        nodes: u32,
    }

    impl TaskClass for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn param_box(&self) -> [u32; 4] {
            [4, 1, 1, 1]
        }
        fn node_of(&self, p: Params) -> u32 {
            p[0] as u32 % self.nodes
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
                    bytes: 8,
                });
            }
        }
        fn execute(&self, p: Params, _i: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
            assert!(p[0] != self.bomb, "task body failure injected");
            out.resize(self.num_output_flows(p), FlowData::sized(8));
        }
        fn cost(&self, _p: Params) -> f64 {
            1e-6
        }
    }

    fn chain(bomb: i32, nodes: u32) -> Program {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(Exploding { bomb, nodes }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 4,
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn body_panic_fails_the_run_loudly() {
        let _ = run(&chain(2, 1), &RunConfig::shared_memory(2));
    }

    /// Run the exploding chain from a helper thread on `nodes` nodes of
    /// `workers` workers; returns the run's panic text and duration. A run
    /// still going after 5 s fails the test instead of hanging it.
    fn panic_of(nodes: u32, workers: usize) -> (String, Duration) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let start = Instant::now();
            let outcome = std::panic::catch_unwind(|| {
                run(&chain(2, nodes), &RunConfig::multi_process(nodes, workers))
            });
            let text = match outcome {
                Ok(_) => "run completed".to_string(),
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            };
            let _ = tx.send((text, start.elapsed()));
        });
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{nodes} node(s): run still going after 5 s"))
    }

    #[test]
    fn body_panic_ends_the_run_promptly_on_one_and_two_nodes() {
        for (nodes, workers) in [(1, 2), (2, 1)] {
            let (text, took) = panic_of(nodes, workers);
            assert!(text.contains("worker panicked"), "{nodes} node(s): {text}");
            assert!(
                took < Duration::from_secs(2),
                "{nodes} node(s): took {took:?}"
            );
        }
    }

    #[test]
    fn clean_bodies_complete() {
        let r = run(&chain(-1, 1), &RunConfig::shared_memory(2));
        assert_eq!(r.tasks_executed, 4);
    }

    /// A class that produces fewer flows than its outputs reference.
    struct ShortOutputs;
    impl TaskClass for ShortOutputs {
        fn name(&self) -> &str {
            "short"
        }
        fn param_box(&self) -> [u32; 4] {
            [2, 1, 1, 1]
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
                    bytes: 8,
                });
            }
        }
        fn execute(&self, _p: Params, _i: &mut [Option<FlowData>], _out: &mut Vec<FlowData>) {
            // bug under test: declared one flow, produced none
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
