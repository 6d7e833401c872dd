//! The multi-process-semantics executor: one real thread pool **per
//! simulated node**, with inter-node flows carried by real channels
//! through a dedicated communication thread per node — the paper's
//! process layout (workers + one comm thread), realized with actual
//! concurrency instead of virtual time.
//!
//! This executor exists to stress the distributed logic: message arrival
//! order is genuinely nondeterministic here, so a run that matches the
//! sequential reference bit for bit demonstrates that the dataflow
//! (activation counts, slots, CA exchange cadence) is correct under
//! races, not just under the simulator's deterministic schedule. It
//! measures wall-clock time but applies no performance model.
//!
//! Within a node, dispatch uses the same work-stealing substrate as the
//! shared-memory engine (`crate::dispatch`): per-worker Chase–Lev
//! deques, the node's [`crate::ready_queue::ReadyQueue`] demoted to
//! injector duty (roots, comm-thread deliveries, deque overflow), a
//! seeded steal sweep before parking, and a lock-sharded
//! [`crate::pending::ShardedPending`] activation table with batched
//! per-shard delivery. The worker loop and the task-completion routine are
//! the shared-memory engine's, verbatim (`crate::dispatch::worker`); this
//! engine only adds the cross-node branch (`Cluster::ship`).
//! Steal/steal-fail/overflow counts are kept per node and surfaced in
//! the node's live samples and the run's metric snapshot.
//!
//! Task executions are recorded as spans (worker index = lane within the
//! node); the comm thread records its delivery processing on the node's
//! comm lane (lane = `threads_per_node`), mirroring the simulator's trace
//! layout.

use crate::dispatch::{worker, NodeShared, RunShared, StealTotals, WorkerId};
use crate::exec::{assemble_report, ExecMode, ModeExt, RunConfig, RunReport};
use crate::pending::{Delivery, PendingTable, SpareTasks};
use crate::scheduler::{SchedContext, TaskSelector};
use crate::task::{FlowData, Program, TaskKey};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{lane_busy_in_window, names, Live, LiveSample, LocalRecorder, Recorder};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

struct Node {
    shared: NodeShared,
    comm_tx: Sender<CommItem>,
    comm_rx: Receiver<CommItem>,
}

struct Cluster<'p> {
    run: RunShared<'p>,
    selector: Arc<dyn TaskSelector>,
    nodes: Vec<Node>,
    workers_per_node: usize,
}

impl<'p> Cluster<'p> {
    fn node_of(&self, key: TaskKey) -> usize {
        let n = self
            .selector
            .place(key)
            .map(|n| n as usize)
            .unwrap_or_else(|| {
                self.run.program.graph.class(key.class).node_of(key.params) as usize
            });
        assert!(
            n < self.nodes.len(),
            "{key:?} placed on node {n} of {}",
            self.nodes.len()
        );
        n
    }

    /// The engine-specific branch of the shared worker: keep a flow whose
    /// consumer lives on `node`, route any other through the destination's
    /// comm thread.
    fn ship(&self, node: usize, flow: Delivery, kind: u32) -> Option<Delivery> {
        let dst = self.node_of(flow.consumer);
        if dst == node {
            return Some(flow);
        }
        self.nodes[dst]
            .comm_tx
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

    /// Wake every worker and comm thread once the last task is done.
    fn shutdown_all(&self) {
        for n in &self.nodes {
            n.shared.queues.wake_all();
            let _ = n.comm_tx.send(CommItem::Shutdown);
        }
    }
}

fn comm_thread(
    cluster: &Cluster<'_>,
    node: usize,
    local: &LocalRecorder,
    msg_local: &obs::MsgRecorder,
) {
    let rx = cluster.nodes[node].comm_rx.clone();
    let comm_lane = cluster.workers_per_node as u32;
    let run = &cluster.run;
    let NodeShared { pending, queues } = &cluster.nodes[node].shared;
    // This thread only delivers, so it never has a retired task to reuse.
    let mut spares = SpareTasks::new();
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
                if let Some(t) = pending.deliver(graph, consumer, slot, data, &mut spares) {
                    queues.push_external(t);
                }
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
            Ok(CommItem::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                if run.completed.load(Ordering::Acquire) == run.program.total_tasks {
                    return;
                }
            }
        }
    }
}

/// Periodic live sampler for the cluster: one [`LiveSample`] per node per
/// tick. Per-node occupancy comes from the collected span store; queue
/// depths are probed from the node's queues (its comm queue length
/// doubles as "messages in flight" — a flow queued at the destination's
/// comm thread is the wire here), and the node's cumulative
/// steal/overflow counters ride along.
fn sampler(cluster: &Cluster<'_>, recorder: &Recorder, live: &Live, period_ns: u64) {
    let period = Duration::from_nanos(period_ns.max(1));
    let slice = period.min(Duration::from_millis(5));
    let lanes = cluster.workers_per_node as u32;
    let run = &cluster.run;
    let total = run.program.total_tasks;
    let mut w0 = run.clock.now_ns();
    let mut elapsed = Duration::ZERO;
    let mut last_seen = 0u64;
    let mut last_progress = Instant::now();
    while run.completed.load(Ordering::Acquire) < total {
        std::thread::sleep(slice);
        elapsed += slice;
        let done = run.completed.load(Ordering::Acquire);
        if done != last_seen {
            last_seen = done;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > Duration::from_secs(15) {
            // A stalled or panicked run: stop sampling so the scope can
            // propagate the real failure.
            return;
        }
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        let w1 = run.clock.now_ns();
        publish_samples(cluster, recorder, live, lanes, w0, w1);
        w0 = w1;
    }
    publish_samples(cluster, recorder, live, lanes, w0, run.clock.now_ns());
}

fn publish_samples(
    cluster: &Cluster<'_>,
    recorder: &Recorder,
    live: &Live,
    lanes: u32,
    w0: u64,
    w1: u64,
) {
    if w1 <= w0 {
        return;
    }
    let dropped_events = recorder.dropped();
    recorder.with_collected(|spans| {
        for (n, node) in cluster.nodes.iter().enumerate() {
            let StealTotals {
                steals,
                steal_fails,
                overflow_pushes,
            } = node.shared.queues.totals();
            live.publish(LiveSample {
                t_ns: w1,
                window_ns: w1 - w0,
                node: n as u32,
                lane_busy: lane_busy_in_window(spans, n as u32, lanes, w0, w1),
                ready_depth: node.shared.queues.len(),
                pending_tasks: node.shared.pending.len(),
                inflight_msgs: node.comm_rx.len() as u64,
                inflight_bytes: 0,
                dropped_events,
                steals,
                steal_fails,
                overflow_pushes,
            });
        }
    });
}

/// Run `program` under `cfg` on the multi-process engine (entered through
/// [`crate::run`]): `cfg.nodes` node-local thread pools of `cfg.threads`
/// workers each, plus one comm thread per node.
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let nodes = cfg.nodes;
    let threads_per_node = cfg.threads;
    assert!(nodes >= 1, "need at least one node");
    assert!(threads_per_node >= 1, "need at least one worker per node");
    assert!(program.total_tasks > 0, "empty program");

    let recorder = cfg.recorder();
    let selector = cfg.scheduler.instance(&SchedContext {
        program,
        profile: cfg.profile.as_ref(),
        nodes,
        lanes: threads_per_node as u32,
    });
    let node_states: Vec<Node> = (0..nodes)
        .map(|_| {
            let (comm_tx, comm_rx) = unbounded();
            Node {
                shared: NodeShared::new(Arc::clone(&selector), threads_per_node),
                comm_tx,
                comm_rx,
            }
        })
        .collect();
    let cluster = Cluster {
        run: RunShared::new(program),
        selector,
        nodes: node_states,
        workers_per_node: threads_per_node,
    };

    for &root in &program.roots {
        let node = cluster.node_of(root);
        cluster.nodes[node]
            .shared
            .queues
            .push_external(PendingTable::root(&program.graph, root));
    }

    let live = cfg.live_board();
    let start = Instant::now();
    crossbeam::thread::scope(|s| {
        for node in 0..nodes as usize {
            for lane in 0..threads_per_node {
                let cluster = &cluster;
                let local = recorder.local();
                // Decorrelate lanes across nodes: each (node, lane) pair
                // gets its own deterministic victim sequence.
                let steal_seed = cfg.steal_seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                s.spawn(move |_| {
                    let id = WorkerId {
                        node: node as u32,
                        lane: lane as u32,
                        steal_seed,
                        local: &local,
                    };
                    worker(
                        &cluster.run,
                        &cluster.nodes[node].shared,
                        id,
                        |flow, kind| cluster.ship(node, flow, kind),
                        || cluster.shutdown_all(),
                    );
                });
            }
            let cluster = &cluster;
            let local = recorder.local();
            let msg_local = recorder.msg_local();
            s.spawn(move |_| comm_thread(cluster, node, &local, &msg_local));
        }
        if let (Some(live), Some(period)) = (live.clone(), cfg.sample_period()) {
            let cluster = &cluster;
            let recorder = recorder.clone();
            s.spawn(move |_| sampler(cluster, &recorder, &live, period));
        }
    })
    .expect("node thread panicked");
    let wall_time = start.elapsed().as_secs_f64();
    let run = &cluster.run;
    let horizon_ns = run.clock.now_ns();

    let completed = run.completed.load(Ordering::Acquire);
    assert_eq!(
        completed, program.total_tasks,
        "run finished early: {completed}/{}",
        program.total_tasks
    );
    let activations: u64 = cluster
        .nodes
        .iter()
        .map(|n| n.shared.pending.flows_delivered())
        .sum();
    run.metrics.counter(names::ACTIVATIONS).add(activations);
    for n in &cluster.nodes {
        n.shared.queues.totals().publish(&run.metrics);
    }
    // Every cross-node flow was counted as one sent message.
    let cross_node_flows = run.metrics.snapshot().counter(names::MESSAGES_SENT);

    assemble_report(
        cfg,
        ExecMode::MultiProcess,
        wall_time,
        horizon_ns,
        threads_per_node as u32,
        completed,
        &recorder,
        &run.metrics,
        live.map(|l| l.history()).unwrap_or_default(),
        ModeExt::MultiProcess { cross_node_flows },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::DtdBuilder;
    use crate::exec::{run, RunConfig};

    fn cross_flows(r: &RunReport) -> u64 {
        match r.ext {
            ModeExt::MultiProcess { cross_node_flows } => cross_node_flows,
            _ => panic!("wrong ext"),
        }
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
