//! The simulated distributed executor: the dataflow runtime running on the
//! virtual cluster.
//!
//! Each node owns `compute_threads` worker lanes plus a dedicated
//! communication engine, matching the paper's PaRSEC configuration ("one
//! process per node, with one thread dedicated for communication while the
//! remaining ones for computation"). Task service times come from the task
//! class's cost model; message times come from the [`netsim`] network
//! model. Task *bodies* can optionally execute for real inside the
//! simulation, so the same run that predicts performance also verifies
//! numerics.
//!
//! The executor reproduces the two properties the paper leans on:
//!
//! * **communication/computation overlap** — sends progress on the comm
//!   engine while worker lanes keep executing ready tasks;
//! * **dataflow scheduling** — a task fires the instant its last input
//!   arrives; there are no barriers between iterations.
//!
//! The cluster is one [`Model`] over a `Source` that decides what a task
//! costs, what a flow carries and how a finished task activates its
//! consumers. [`crate::run`] simulates a [`Program`] through the pending
//! table, with payloads and optional bodies; [`DagSim`] drives the same
//! model over an [`UnfoldedDag`] with a given duration per task and
//! size-only flows, which is what `insight`'s what-if profiler runs.
//!
//! On a traced run, spans flow through the same `obs` recorder the real
//! executors use — virtual nanoseconds go straight in as span timestamps,
//! so the observability pipeline is identical under wall and virtual time.
//! Counts, lane busy clocks and the comm engines' busy time are plain
//! integers in the model, whether traced or not.

use crate::exec::{assemble_report, RunConfig, RunCounts, RunReport};
use crate::pending::{PendingTable, ReadyTask, SpareTasks};
use crate::ready_queue::ReadyQueue;
use crate::scheduler::SchedulerPolicy;
use crate::task::{FlowData, OutputDep, Program, TaskGraph, TaskKey};
use crate::unfold::UnfoldedDag;
use desim::{Engine, Model, Scheduler, VirtualDuration, VirtualTime};
use machine::MachineProfile;
use netsim::NetworkModel;
use obs::{
    window_busy, BusyClock, Live, LiveSample, LocalRecorder, MsgRecorder, MsgSpan, Recorder,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Work item for a node's communication engine, with its message span.
/// Both directions cost [`NetworkModel::msg_cost`] of comm-thread time:
/// PaRSEC's dedicated communication thread resolves dependences,
/// activates successors, and packs/unpacks on every message. A send keeps
/// the engine busy for [`NetworkModel::send_busy`] and lands
/// [`NetworkModel::arrival`] later; a receive holds it for `msg_cost`.
enum CommJob<F> {
    Send(MsgSpan, F),
    Recv(MsgSpan, F),
}

struct Node<T, F> {
    free_lanes: Vec<u32>,
    ready: ReadyQueue<T>,
    /// A coalesced [`Ev::Dispatch`] is already scheduled for this node at
    /// the current timestamp, so further ready arrivals need not add one.
    dispatch_scheduled: bool,
    /// The task on each worker lane and when it started, by lane.
    running: Vec<Option<(VirtualTime, T)>>,
    /// Each worker lane's busy clock, and its reading at the last sample.
    busy: Vec<BusyClock>,
    sampled_busy: Vec<u64>,
    comm_queue: VecDeque<CommJob<F>>,
    comm_active: usize,
    /// Comm-engine busy nanoseconds, summed over the node's engines.
    comm_busy: u64,
}

enum Ev<T, F> {
    Ready(T),
    /// Drain `node`'s ready queue into its free lanes. Ready arrivals at
    /// one timestamp coalesce into a single Dispatch, so the priority policy
    /// orders the whole simultaneously-ready batch rather than seeing
    /// tasks one by one.
    Dispatch {
        node: u32,
    },
    /// The task on `lane` of `node` finished.
    TaskDone {
        node: u32,
        lane: u32,
    },
    /// A comm-engine job finished on `node`; a receive also delivers its
    /// flow and completes the message span.
    CommDone {
        node: u32,
        started: VirtualTime,
        deliver: Option<(MsgSpan, F)>,
    },
    /// Wire delivery: the message reached the destination NIC and now
    /// queues for receive processing.
    Arrive(MsgSpan, F),
    /// Live-telemetry tick: publish one [`LiveSample`] per node covering
    /// the window since the previous tick, then reschedule. Samples only
    /// read state, so they cannot perturb task timing.
    Sample,
}

/// Where a finished task's consumers go: a ready one becomes an
/// [`Ev::Ready`], a remote flow queues on the node's comm engine.
struct Outbox<'a, T, F> {
    sched: &'a mut Scheduler<Ev<T, F>>,
    sends: &'a mut VecDeque<CommJob<F>>,
    node: u32,
}

impl<T, F> Outbox<'_, T, F> {
    fn ready(&mut self, task: T) {
        self.sched.schedule_now(Ev::Ready(task));
    }

    /// Queue `flow`, `bytes` on the wire from a task of `kind`, for `dst`.
    fn send(&mut self, dst: u32, bytes: usize, kind: u32, flow: F) {
        let span = MsgSpan {
            src: self.node,
            dst,
            kind,
            bytes: bytes as u64,
            enqueue_ns: self.sched.now().as_nanos(),
            inject_ns: 0,
            deliver_ns: 0,
        };
        self.sends.push_back(CommJob::Send(span, flow));
    }
}

/// What the cluster runs: what a task costs, what a flow carries, and
/// how a finished task activates its consumers.
trait Source {
    /// A ready task, as the queues and lanes hold it.
    type Task;
    /// A flow bound for another node.
    type Flow;

    fn node_of(&self, task: &Self::Task) -> u32;
    /// The key the priority policy ranks `task` by.
    fn key(&self, task: &Self::Task) -> TaskKey;
    fn cost(&self, task: &Self::Task) -> VirtualDuration;
    /// `task` finished: activate its consumers through `out`.
    fn finish(&mut self, task: Self::Task, out: &mut Outbox<'_, Self::Task, Self::Flow>);
    /// A received `flow` is delivered; returns the task it made ready.
    fn deliver(&mut self, flow: Self::Flow) -> Option<Self::Task>;
    /// The tasks waiting on inputs, with their nodes.
    fn waiting(&self) -> impl Iterator<Item = (u32, TaskKey)> + '_;
}

/// The simulated cluster running what `S` supplies.
struct Sim<S: Source> {
    src: S,
    graph: Arc<TaskGraph>,
    /// Tasks a complete run finishes.
    total: u64,
    /// Each node's message-cost model.
    nets: Vec<NetworkModel>,
    /// Parallel send engines per node.
    comm_engines: usize,
    nodes: Vec<Node<S::Task, S::Flow>>,
    counts: RunCounts,
    last_task_done: VirtualTime,
    /// Messages and bytes on the wire: sent, not yet arrived.
    inflight_msgs: u64,
    inflight_bytes: u64,
    /// The span and message handles of a traced run.
    recorders: Option<(LocalRecorder, MsgRecorder)>,
    live: Option<Live>,
    sample_period: Option<VirtualDuration>,
    last_sample: VirtualTime,
}

type Sched<S> = Scheduler<Ev<<S as Source>::Task, <S as Source>::Flow>>;

impl<S: Source> Sim<S> {
    /// One node per entry of `nets`, each with `lanes` worker lanes behind
    /// a `policy` ready queue and one comm engine, to run `total` tasks;
    /// untraced and unsampled.
    fn new(
        src: S,
        total: u64,
        nets: Vec<NetworkModel>,
        lanes: u32,
        policy: SchedulerPolicy,
        graph: &Arc<TaskGraph>,
    ) -> Self {
        let node = |_| Node {
            free_lanes: (0..lanes).rev().collect(),
            ready: ReadyQueue::new(policy, Arc::clone(graph)),
            dispatch_scheduled: false,
            running: (0..lanes).map(|_| None).collect(),
            busy: vec![BusyClock::default(); lanes as usize],
            sampled_busy: vec![0; lanes as usize],
            comm_queue: VecDeque::new(),
            comm_active: 0,
            comm_busy: 0,
        };
        Sim {
            src,
            graph: Arc::clone(graph),
            total,
            nodes: nets.iter().map(node).collect(),
            nets,
            comm_engines: 1,
            counts: RunCounts::default(),
            last_task_done: VirtualTime::ZERO,
            inflight_msgs: 0,
            inflight_bytes: 0,
            recorders: None,
            live: None,
            sample_period: None,
            last_sample: VirtualTime::ZERO,
        }
    }

    /// Run the event loop to completion from `roots`.
    ///
    /// Panics when the run deadlocks (tasks remain pending after the event
    /// queue drains) — run `analyze::assert_clean` (or
    /// [`crate::unfold::assert_consistent`]) on a scaled-down instance to
    /// debug the graph.
    fn run(self, roots: impl IntoIterator<Item = S::Task>) -> Self {
        let mut engine = Engine::new(self);
        for root in roots {
            engine.prime(Ev::Ready(root));
        }
        if engine.model().sample_period.is_some() {
            engine.prime(Ev::Sample);
        }
        engine.run();
        let mut sim = engine.into_model();
        let (done, total) = (sim.counts.tasks, sim.total);
        if done != total {
            let pending: Vec<TaskKey> = sim.src.waiting().map(|(_, key)| key).collect();
            panic!(
                "simulated run deadlocked: {done}/{total} tasks done, {} pending (first stuck: {:?})",
                pending.len(),
                pending.first()
            );
        }
        // Final sample: cover the tail window up to the makespan so the
        // sample windows tile the run exactly.
        sim.take_sample(sim.last_task_done);
        sim
    }

    /// Per node, its lanes' busy time up to the makespan.
    fn node_busy(&self) -> Vec<u64> {
        let horizon_ns = self.last_task_done.as_nanos();
        let node = |n: &Node<_, _>| n.busy.iter().map(|c| c.read(horizon_ns)).sum();
        self.nodes.iter().map(node).collect()
    }

    /// Schedule a coalesced [`Ev::Dispatch`] for `node` at the current
    /// timestamp unless one is already queued.
    fn request_dispatch(&mut self, node: u32, sched: &mut Sched<S>) {
        let st = &mut self.nodes[node as usize];
        if !st.dispatch_scheduled {
            st.dispatch_scheduled = true;
            sched.schedule_now(Ev::Dispatch { node });
        }
    }

    fn dispatch(&mut self, node: u32, now: VirtualTime, sched: &mut Sched<S>) {
        let st = &mut self.nodes[node as usize];
        while !st.ready.is_empty() && !st.free_lanes.is_empty() {
            let task = st.ready.pop().expect("nonempty");
            let lane = st.free_lanes.pop().expect("nonempty");
            sched.schedule_in(self.src.cost(&task), Ev::TaskDone { node, lane });
            st.running[lane as usize] = Some((now, task));
            st.busy[lane as usize].start(now.as_nanos());
        }
    }

    /// Start queued comm jobs while engines are free.
    fn pump(&mut self, node: u32, now: VirtualTime, sched: &mut Sched<S>) {
        let st = &mut self.nodes[node as usize];
        let net = &self.nets[node as usize];
        let secs = VirtualDuration::from_secs_f64;
        while st.comm_active < self.comm_engines {
            let Some(job) = st.comm_queue.pop_front() else {
                return;
            };
            st.comm_active += 1;
            let (busy, deliver) = match job {
                CommJob::Send(mut msg, flow) => {
                    // processing precedes injection: the wire transfer
                    // starts once the comm thread has prepared the message
                    msg.inject_ns = now.as_nanos();
                    self.counts.messages += 1;
                    self.counts.bytes += msg.bytes;
                    self.inflight_msgs += 1;
                    self.inflight_bytes += msg.bytes;
                    let bytes = msg.bytes as usize;
                    sched.schedule_in(secs(net.arrival(bytes)), Ev::Arrive(msg, flow));
                    (net.send_busy(bytes), None)
                }
                CommJob::Recv(msg, flow) => (net.msg_cost, Some((msg, flow))),
            };
            let started = now;
            let done = Ev::CommDone {
                node,
                started,
                deliver,
            };
            sched.schedule_in(secs(busy), done);
        }
    }

    fn finish(&mut self, node: u32, lane: u32, now: VirtualTime, sched: &mut Sched<S>) {
        let st = &mut self.nodes[node as usize];
        let (start, task) = st.running[lane as usize]
            .take()
            .unwrap_or_else(|| panic!("lane {lane} of node {node} finished but ran no task"));
        st.busy[lane as usize].stop(now.as_nanos());
        if let Some((local, _)) = &mut self.recorders {
            let (key, start) = (self.src.key(&task), start.as_nanos());
            let kind = self.graph.kind_of(key);
            local.task_instance(node, lane, kind, key.instance_id(), start, now.as_nanos());
        }
        self.counts.tasks += 1;
        let sends = &mut st.comm_queue;
        self.src.finish(task, &mut Outbox { sched, sends, node });
        self.pump(node, now, sched);
        // Free the lane so the dispatcher can reuse it.
        self.nodes[node as usize].free_lanes.push(lane);
        self.last_task_done = now;
        self.dispatch(node, now, sched);
    }

    /// Publish one [`LiveSample`] per node for the window
    /// `[last_sample, now]`. Busy time is exact: each lane's busy-clock
    /// difference over the window, the elapsed part of a still-running
    /// task included — so the window-averaged live occupancy matches the
    /// post-hoc Fig-10 number to the nanosecond when the windows tile the
    /// run.
    fn take_sample(&mut self, now: VirtualTime) {
        let Some(live) = &self.live else { return };
        let (w0, w1) = (self.last_sample.as_nanos(), now.as_nanos());
        if w1 <= w0 {
            return;
        }
        let mut pending = vec![0; self.nodes.len()];
        for (node, _) in self.src.waiting() {
            pending[node as usize] += 1;
        }
        for (n, st) in self.nodes.iter_mut().enumerate() {
            let readings = st.busy.iter().map(|c| c.read(w1));
            live.publish(LiveSample {
                t_ns: w1,
                window_ns: w1 - w0,
                node: n as u32,
                lane_busy: window_busy(&mut st.sampled_busy, readings, w1 - w0),
                ready_depth: st.ready.len(),
                pending_tasks: pending[n],
                inflight_msgs: self.inflight_msgs,
                inflight_bytes: self.inflight_bytes,
                // The simulator's central per-node queue never steals or
                // spills.
                steals: 0,
                steal_fails: 0,
                overflow_pushes: 0,
                home_hits: 0,
            });
        }
        self.last_sample = now;
    }
}

impl<S: Source> Model for Sim<S> {
    type Event = Ev<S::Task, S::Flow>;

    fn handle(&mut self, now: VirtualTime, ev: Self::Event, sched: &mut Sched<S>) {
        match ev {
            Ev::Ready(task) => {
                let (node, src) = (self.src.node_of(&task), &self.src);
                let ready_queue = &mut self.nodes[node as usize].ready;
                ready_queue.push_by(task, |t| src.key(t));
                self.counts.queue_depth(ready_queue.len());
                self.request_dispatch(node, sched);
            }
            Ev::Dispatch { node } => {
                self.nodes[node as usize].dispatch_scheduled = false;
                self.dispatch(node, now, sched);
            }
            Ev::TaskDone { node, lane } => self.finish(node, lane, now, sched),
            Ev::CommDone {
                node,
                started,
                deliver,
            } => {
                let (start, end) = (started.as_nanos(), now.as_nanos());
                let st = &mut self.nodes[node as usize];
                st.comm_busy += end - start;
                st.comm_active -= 1;
                // Receive processing done: the payload is now visible to
                // the consumer — stamp and record the message span.
                // Recording only reads virtual time, so traced and
                // untraced runs stay bit-identical.
                if let Some((local, msg_local)) = &mut self.recorders {
                    // The comm engine's lane follows the worker lanes.
                    local.comm(node, st.running.len() as u32, start, end);
                    if let Some((msg, _)) = &deliver {
                        msg_local.record(MsgSpan {
                            deliver_ns: end,
                            ..*msg
                        });
                    }
                }
                if let Some(ready) = deliver.and_then(|(_, flow)| self.src.deliver(flow)) {
                    sched.schedule_now(Ev::Ready(ready));
                }
                self.pump(node, now, sched);
            }
            Ev::Arrive(msg, flow) => {
                self.inflight_msgs -= 1;
                self.inflight_bytes -= msg.bytes;
                let dst = &mut self.nodes[msg.dst as usize].comm_queue;
                dst.push_back(CommJob::Recv(msg, flow));
                self.pump(msg.dst, now, sched);
            }
            Ev::Sample => {
                // Stop ticking once the run is over; the tail window up
                // to the makespan is covered by the final sample `run`
                // takes after the event loop drains.
                if self.counts.tasks < self.total {
                    self.take_sample(now);
                    if let Some(period) = self.sample_period {
                        sched.schedule_in(period, Ev::Sample);
                    }
                }
            }
        }
    }
}

/// A [`Program`] on the cluster: tasks found through the pending table,
/// costs from their classes, real or size-only payloads.
struct ProgramSource {
    graph: Arc<TaskGraph>,
    nodes: usize,
    execute_bodies: bool,
    pending: PendingTable,
    /// Boxes of finished tasks, reused for the next pending entries.
    spares: SpareTasks,
    /// Scratch for the finishing task's output declarations and flows.
    deps: Vec<OutputDep>,
    flows: Vec<FlowData>,
    /// Flows delivered, and the redundant flops of the tasks run.
    activations: u64,
    redundant_flops: u64,
}

impl ProgramSource {
    fn node_of_key(&self, key: TaskKey) -> u32 {
        let n = self.graph.class(key.class).node_of(key.params);
        assert!(
            (n as usize) < self.nodes,
            "{key:?} placed on node {n} but the run has {} nodes",
            self.nodes
        );
        n
    }
}

impl Source for ProgramSource {
    type Task = Box<ReadyTask>;
    /// The payload for `.0`'s input `.1`.
    type Flow = (TaskKey, usize, FlowData);

    fn node_of(&self, task: &Box<ReadyTask>) -> u32 {
        self.node_of_key(task.key)
    }

    fn key(&self, task: &Box<ReadyTask>) -> TaskKey {
        task.key
    }

    fn cost(&self, task: &Box<ReadyTask>) -> VirtualDuration {
        let class = self.graph.class(task.key.class);
        VirtualDuration::from_secs_f64(class.cost(task.key.params))
    }

    fn finish(&mut self, mut task: Box<ReadyTask>, out: &mut Outbox<'_, Self::Task, Self::Flow>) {
        let key = task.key;
        // Keep the graph alive independently of `self` so the class
        // reference does not pin the whole struct borrow.
        let graph = Arc::clone(&self.graph);
        let class = graph.class(key.class);
        let kind = graph.kind_of(key);
        self.redundant_flops += class.redundant_flops(key.params);
        // Produce outputs: real bodies or size-only placeholders.
        let mut flows = std::mem::take(&mut self.flows);
        if self.execute_bodies {
            class.execute(key.params, &mut task.inputs, &mut flows);
        }
        self.spares.recycle(task);
        let mut deps = std::mem::take(&mut self.deps);
        class.outputs(key.params, &mut deps);

        for dep in deps.drain(..) {
            let data = if self.execute_bodies {
                flows
                    .get(dep.flow)
                    .unwrap_or_else(|| {
                        panic!(
                            "{key:?}: execute produced {} flows, outputs reference flow {}",
                            flows.len(),
                            dep.flow
                        )
                    })
                    .clone()
            } else {
                FlowData::sized(dep.bytes)
            };
            let dst = self.node_of_key(dep.consumer);
            if dst != out.node {
                out.send(dst, data.bytes, kind, (dep.consumer, dep.slot, data));
            } else if let Some(ready) = self.deliver((dep.consumer, dep.slot, data)) {
                out.ready(ready);
            }
        }
        flows.clear();
        self.flows = flows;
        self.deps = deps;
    }

    fn deliver(&mut self, (consumer, slot, data): Self::Flow) -> Option<Box<ReadyTask>> {
        self.activations += 1;
        let graph = &self.graph;
        self.pending
            .deliver(graph, consumer, slot, data, &mut self.spares)
    }

    fn waiting(&self) -> impl Iterator<Item = (u32, TaskKey)> + '_ {
        let waiting = self.pending.waiting(&self.graph);
        waiting.map(|key| (self.node_of_key(key), key))
    }
}

/// Simulate `program` to completion; panics when the run deadlocks.
fn simulate(
    program: &Program,
    cfg: &RunConfig,
    profile: &MachineProfile,
    recorder: &Recorder,
    live: Option<Live>,
) -> Sim<ProgramSource> {
    assert!(cfg.nodes >= 1, "need at least one node");
    assert!(cfg.comm_engines >= 1, "need at least one comm engine");
    assert!(program.total_tasks > 0, "empty program");

    let graph = &program.graph;
    let src = ProgramSource {
        graph: Arc::clone(graph),
        nodes: cfg.nodes as usize,
        execute_bodies: cfg.execute_bodies,
        pending: PendingTable::new(graph),
        spares: SpareTasks::new(),
        deps: Vec::new(),
        flows: Vec::new(),
        activations: 0,
        redundant_flops: 0,
    };
    let nets = vec![NetworkModel::from_profile(profile); cfg.nodes as usize];
    let lanes = profile.compute_threads();
    let mut sim = Sim::new(src, program.total_tasks, nets, lanes, cfg.scheduler, graph);
    sim.comm_engines = cfg.comm_engines;
    sim.recorders = cfg
        .capture_trace
        .then(|| (recorder.local(), recorder.msg_local()));
    sim.live = live;
    sim.sample_period = cfg
        .sample_period()
        .map(|ns| VirtualDuration::from_nanos(ns.max(1)));
    let roots = program
        .roots
        .iter()
        .map(|&root| PendingTable::root(graph, root));
    let mut sim = sim.run(roots);
    sim.counts.activations = sim.src.activations;
    sim.counts.redundant_flops = sim.src.redundant_flops;
    // Closing the buffers hands the trace to `recorder`.
    sim.recorders = None;
    sim
}

/// Run `program` under `cfg` on the virtual-time engine (entered through
/// [`crate::run`]).
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let profile = cfg
        .profile
        .as_ref()
        .expect("simulated mode requires a machine profile");
    let recorder = cfg.recorder();
    let live = cfg.live_board();
    let sim = simulate(program, cfg, profile, &recorder, live.clone());
    let horizon_ns = sim.last_task_done.as_nanos();
    // The comm engines' busy fraction, by the lanes' formula.
    let engines = cfg.comm_engines as u32;
    let comm = |n: &Node<_, _>| obs::occupancy(n.comm_busy, engines, horizon_ns);
    assemble_report(
        cfg,
        horizon_ns,
        profile.compute_threads(),
        &sim.node_busy(),
        &sim.counts,
        &recorder,
        live.map(|l| l.history()).unwrap_or_default(),
        sim.nodes.iter().map(comm).collect(),
    )
}

/// An [`UnfoldedDag`] on the cluster: in-degree counters over its
/// out-edges, a node and a given duration per task, and flows that name
/// only their consumer. It calls no [`crate::TaskClass`] method and
/// allocates nothing per task.
struct DagSource<'a> {
    dag: &'a UnfoldedDag,
    placement: &'a [u32],
    durations: &'a [VirtualDuration],
    /// Inputs each task still waits for.
    waiting: Vec<u32>,
}

impl Source for DagSource<'_> {
    type Task = u32;
    type Flow = u32;

    fn node_of(&self, &t: &u32) -> u32 {
        self.placement[t as usize]
    }

    fn key(&self, &t: &u32) -> TaskKey {
        self.dag.tasks[t as usize]
    }

    fn cost(&self, &t: &u32) -> VirtualDuration {
        self.durations[t as usize]
    }

    fn finish(&mut self, t: u32, out: &mut Outbox<'_, u32, u32>) {
        let dag = self.dag;
        for e in dag.out_edges(t as usize) {
            let dst = self.placement[e.consumer as usize];
            if dst != out.node {
                out.send(dst, e.bytes as usize, 0, e.consumer);
            } else if let Some(ready) = self.deliver(e.consumer) {
                out.ready(ready);
            }
        }
    }

    /// One input of task `t` arrived: `t` is ready with its last.
    fn deliver(&mut self, t: u32) -> Option<u32> {
        let waiting = &mut self.waiting[t as usize];
        *waiting -= 1;
        (*waiting == 0).then_some(t)
    }

    fn waiting(&self) -> impl Iterator<Item = (u32, TaskKey)> + '_ {
        let waiting = self.waiting.iter().zip(self.placement);
        let waiting = waiting.zip(&self.dag.tasks).filter(|((&w, _), _)| w > 0);
        waiting.map(|((_, &node), &key)| (node, key))
    }
}

/// An [`UnfoldedDag`] ready to run on the cluster model [`crate::run`]
/// simulates programs on, any number of times: each task's node
/// ([`UnfoldedDag::node_of`]) and in-degree are read once, here.
///
/// The DAG should be consistent ([`UnfoldedDag::is_consistent`]): a
/// truncated one runs another program.
pub struct DagSim<'a> {
    dag: &'a UnfoldedDag,
    placement: Vec<u32>,
    in_degrees: Vec<u32>,
}

impl<'a> DagSim<'a> {
    /// Read `dag`'s placement and in-degrees.
    pub fn new(dag: &'a UnfoldedDag) -> Self {
        DagSim {
            dag,
            placement: (0..dag.len()).map(|t| dag.node_of(t)).collect(),
            in_degrees: dag.in_degrees(),
        }
    }

    /// Run the DAG: task `t` runs for `durations[t]` on its node, each
    /// node has `lanes` worker lanes behind a FIFO ready queue and one
    /// comm engine charging `nets[node]`, and a flow is its edge's size.
    /// Returns the makespan and the lanes' summed busy time, in
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// When the run deadlocks (a cycle leaves tasks waiting after the
    /// event queue drains), or when a task's node lies beyond `nets`.
    pub fn run(
        &self,
        durations: &[VirtualDuration],
        nets: &[NetworkModel],
        lanes: u32,
    ) -> (u64, u64) {
        let dag = self.dag;
        assert_eq!(durations.len(), dag.len(), "one duration per task");
        let src = DagSource {
            dag,
            placement: &self.placement,
            durations,
            waiting: self.in_degrees.clone(),
        };
        let (total, fifo) = (dag.len() as u64, SchedulerPolicy::Fifo);
        let sim = Sim::new(src, total, nets.to_vec(), lanes, fifo, &dag.graph);
        let sim = sim.run(dag.roots.iter().map(|&r| r as u32));
        (sim.last_task_done.as_nanos(), sim.node_busy().iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run;
    use crate::scheduler::SchedulerPolicy;
    use crate::task::testutil::ExplicitDag;
    use crate::task::{TaskGraph, TaskKey};
    use std::collections::HashMap as Map;

    /// Build a program from an explicit edge list with per-task node
    /// placement.
    fn program(
        edges: &[(i32, i32, usize)],
        indeg: &[(i32, usize)],
        node: &[(i32, u32)],
        roots: &[i32],
        total: u64,
        cost: f64,
        bytes: usize,
    ) -> Program {
        let mut edge_map: Map<i32, Vec<(i32, usize)>> = Map::new();
        for &(from, to, slot) in edges {
            edge_map.entry(from).or_default().push((to, slot));
        }
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
            bound: [total as u32, 1, 1, 1],
            edges: edge_map,
            indeg: indeg.iter().copied().collect(),
            node: node.iter().copied().collect(),
            cost,
            bytes,
        }));
        Program {
            graph: Arc::new(g),
            roots: roots
                .iter()
                .map(|&i| TaskKey::new(0, [i, 0, 0, 0]))
                .collect(),
            total_tasks: total,
        }
    }

    fn cfg(nodes: u32) -> RunConfig {
        RunConfig::simulated(MachineProfile::nacl(), nodes)
    }

    /// Run `p` under `cfg`, after replaying its unfolded DAG with the
    /// class costs as durations: both sources must reach the same
    /// makespan and lane busy time, to the nanosecond.
    fn run_and_replay(p: &Program, cfg: &RunConfig) -> RunReport {
        let profile = cfg.profile.as_ref().expect("a simulated config");
        let sim = simulate(p, cfg, profile, &cfg.recorder(), None);
        let simulated = (sim.last_task_done.as_nanos(), sim.node_busy().iter().sum());
        let dag = UnfoldedDag::enumerate(p);
        let durations: Vec<VirtualDuration> = (0..dag.len())
            .map(|t| VirtualDuration::from_secs_f64(dag.cost_of(t)))
            .collect();
        let nets = vec![NetworkModel::from_profile(profile); cfg.nodes as usize];
        let lanes = profile.compute_threads();
        let replayed = DagSim::new(&dag).run(&durations, &nets, lanes);
        assert_eq!(replayed, simulated);
        run(p, cfg)
    }

    /// Messages and bytes sent, and flows delivered node-locally.
    fn traffic(r: &RunReport) -> (u64, u64, u64) {
        let messages = r.remote_messages();
        let local = r.counter(obs::names::ACTIVATIONS) - messages;
        (messages, r.remote_bytes(), local)
    }

    #[test]
    fn single_task_makespan_is_its_cost() {
        let p = program(&[], &[], &[], &[0], 1, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.makespan - 1e-3).abs() < 1e-9, "makespan {}", r.makespan);
        assert_eq!(r.tasks_executed, 1);
        assert_eq!(traffic(&r).0, 0);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        // 22 independent tasks of 1 ms on 11 lanes -> 2 ms.
        let roots: Vec<i32> = (0..22).collect();
        let p = program(&[], &[], &[], &roots, 22, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.makespan - 2e-3).abs() < 1e-8, "makespan {}", r.makespan);
    }

    #[test]
    fn chain_serializes() {
        // 0 -> 1 -> 2, 1 ms each => 3 ms.
        let p = program(
            &[(0, 1, 0), (1, 2, 0)],
            &[(1, 1), (2, 1)],
            &[],
            &[0],
            3,
            1e-3,
            8,
        );
        let r = run_and_replay(&p, &cfg(1));
        assert!((r.makespan - 3e-3).abs() < 1e-8, "makespan {}", r.makespan);
    }

    #[test]
    fn remote_edge_pays_network_latency() {
        // 0 on node 0 -> 1 on node 1; one 8-byte message.
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[(1, 1)], &[0], 2, 1e-3, 8);
        let r = run_and_replay(&p, &cfg(2));
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let msg_cost = MachineProfile::nacl().runtime_msg_cost;
        // task + send processing + wire + receive processing + task
        let expected = 2e-3 + msg_cost + net.transfer_time(8) + msg_cost;
        assert!(
            (r.makespan - expected).abs() < 1e-8,
            "makespan {} vs expected {expected}",
            r.makespan
        );
        let (messages, bytes, local) = traffic(&r);
        assert_eq!(messages, 1);
        assert_eq!(bytes, 8);
        assert_eq!(local, 0);
        assert_eq!(r.counter(obs::names::MESSAGES_SENT), 1);
        assert_eq!(r.counter(obs::names::BYTES_SENT), 8);
    }

    #[test]
    fn local_edge_pays_nothing() {
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.makespan - 2e-3).abs() < 1e-8);
        let (messages, _, local) = traffic(&r);
        assert_eq!(local, 1);
        assert_eq!(messages, 0);
    }

    #[test]
    fn comm_engine_serializes_sends() {
        // Node 0 task 0 fans out to tasks 1 and 2 on node 1 with large
        // messages; the second send starts only after the first's
        // occupancy.
        let mb = 1 << 20;
        let p = program(
            &[(0, 1, 0), (0, 2, 0)],
            &[(1, 1), (2, 1)],
            &[(1, 1), (2, 1)],
            &[0],
            3,
            1e-3,
            mb,
        );
        let r = run_and_replay(&p, &cfg(2));
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let c = MachineProfile::nacl().runtime_msg_cost;
        // second send waits for the first's full comm-engine occupancy;
        // on arrival both queue for receive processing (the second recv
        // arrives after the first finished processing, so no recv queueing)
        let expected =
            1e-3 + (c + net.sender_occupancy(mb)) + (c + net.transfer_time(mb)) + c + 1e-3;
        assert!(
            (r.makespan - expected).abs() < 1e-7,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn comm_utilization_counts_every_busy_engine() {
        // Chain 0 -> 1 -> 2 on node 0, each task also sending 8 MiB to its
        // own consumer (3, 4, 5) on node 1. A send outlasts a task, so the
        // third send starts while two engines are still busy.
        let mib8 = 8 << 20;
        let p = program(
            &[(0, 1, 0), (1, 2, 0), (0, 3, 0), (1, 4, 0), (2, 5, 0)],
            &[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)],
            &[(3, 1), (4, 1), (5, 1)],
            &[0],
            6,
            1e-3,
            mib8,
        );
        let r = run(&p, &cfg(2).with_comm_engines(3));
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let c = MachineProfile::nacl().runtime_msg_cost;
        let busy = 3.0 * (c + net.sender_occupancy(mib8));
        assert!(net.sender_occupancy(mib8) > 2e-3, "sends overlap");
        let expected = busy / (3.0 * r.makespan);
        let got = r.comm_utilization[0];
        // Virtual time rounds every duration to the nanosecond.
        assert!(
            (got - expected).abs() < 1e-6,
            "node 0 comm utilization {got} vs expected {expected}"
        );
    }

    #[test]
    fn bodies_execute_and_flow_values() {
        // ExplicitDag's execute emits the task index as the payload; just
        // confirm body mode completes and counts match.
        let p = program(
            &[(0, 1, 0), (1, 2, 0)],
            &[(1, 1), (2, 1)],
            &[(1, 1), (2, 0)],
            &[0],
            3,
            1e-4,
            8,
        );
        let r = run(&p, &cfg(2).with_bodies());
        assert_eq!(r.tasks_executed, 3);
        assert_eq!(traffic(&r).0, 2);
    }

    #[test]
    fn trace_captures_task_spans() {
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(1).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace.spans.iter().all(|s| s.duration_ns() > 900_000));
    }

    #[test]
    fn occupancy_reflects_parallelism() {
        // 11 independent 1 ms tasks on 11 lanes: occupancy 1.0.
        let roots: Vec<i32> = (0..11).collect();
        let p = program(&[], &[], &[], &roots, 11, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.node_occupancy[0] - 1.0).abs() < 1e-9);
        // a serial chain on 11 lanes: occupancy ~1/11
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.node_occupancy[0] - 1.0 / 11.0).abs() < 1e-6);
    }

    #[test]
    fn lifo_and_fifo_both_complete() {
        let roots: Vec<i32> = (0..40).collect();
        let p = program(&[], &[], &[], &roots, 40, 1e-4, 8);
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Lifo] {
            let r = run(&p, &cfg(1).with_scheduler(policy));
            assert_eq!(r.tasks_executed, 40);
        }
    }

    #[test]
    fn obs_trace_has_full_duration_spans_with_ids() {
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(1).with_trace());
        assert_eq!(r.tasks_executed, 2);
        assert!((r.makespan - 2e-3).abs() < 1e-8);
        let trace = r.trace.unwrap();
        assert_eq!(trace.task_spans().count(), 2);
        assert!(trace
            .task_spans()
            .all(|s| s.duration_ns() > 900_000 && s.task_instance().is_some()));
    }

    #[test]
    fn remote_edge_traces_msg_span_with_virtual_stamps() {
        // 0 on node 0 -> 1 on node 1; the single message's span must
        // carry exact virtual-time stamps for all three phases.
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[(1, 1)], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(2).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.msgs.len(), 1);
        let m = trace.msgs[0];
        assert_eq!((m.src, m.dst, m.bytes), (0, 1, 8));
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let msg_cost = MachineProfile::nacl().runtime_msg_cost;
        let ns = |s: f64| (s * 1e9).round() as u64;
        // Enqueued when the producer finished; injected immediately (the
        // comm engine was idle); delivered after wire + receive cost.
        assert_eq!(m.enqueue_ns, ns(1e-3));
        assert_eq!(m.inject_ns, m.enqueue_ns, "idle engine: no queueing");
        assert_eq!(m.queue_ns(), 0);
        let expected_deliver = 1e-3 + msg_cost + net.transfer_time(8) + msg_cost;
        assert!(
            (m.deliver_ns as i64 - ns(expected_deliver) as i64).abs() <= 1,
            "deliver {} vs expected {}",
            m.deliver_ns,
            ns(expected_deliver)
        );
        // The consumer task starts exactly at delivery.
        let consumer_start = trace
            .task_spans()
            .find(|s| s.node == 1)
            .expect("consumer span")
            .start_ns;
        assert_eq!(consumer_start, m.deliver_ns);
    }

    #[test]
    fn queued_sends_accrue_queueing_delay() {
        // Two large sends through one comm engine: the second waits for
        // the first's occupancy, which must surface as queueing delay.
        let mb = 1 << 20;
        let p = program(
            &[(0, 1, 0), (0, 2, 0)],
            &[(1, 1), (2, 1)],
            &[(1, 1), (2, 2)],
            &[0],
            3,
            1e-3,
            mb,
        );
        let r = run_and_replay(&p, &cfg(3).with_trace());
        let trace = r.trace.unwrap();
        assert_eq!(trace.msgs.len(), 2);
        let mut queues: Vec<u64> = trace.msgs.iter().map(|m| m.queue_ns()).collect();
        queues.sort_unstable();
        assert_eq!(queues[0], 0, "first send injects immediately");
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let c = MachineProfile::nacl().runtime_msg_cost;
        let expected_queue = ((c + net.sender_occupancy(mb)) * 1e9).round() as u64;
        assert!(
            (queues[1] as i64 - expected_queue as i64).abs() <= 1,
            "second send queues behind the first: {} vs {}",
            queues[1],
            expected_queue
        );
        // The matrix aggregates both into one (0,1) + one (0,2) peer.
        let matrix = trace.comm_matrix();
        assert_eq!(matrix.peers.len(), 2);
        assert_eq!(matrix.total_bytes(), 2 * mb as u64);
    }

    #[test]
    fn sampling_does_not_perturb_virtual_time() {
        let roots: Vec<i32> = (0..22).collect();
        let p = program(&[], &[], &[], &roots, 22, 1e-3, 8);
        let base = run(&p, &cfg(1));
        let sampled = run(&p, &cfg(1).with_sampling(250_000));
        // Sample events only read state: identical makespan to the bit.
        assert_eq!(base.makespan, sampled.makespan);
        assert_eq!(base.node_occupancy, sampled.node_occupancy);
        assert!(base.samples.is_empty());
        assert!(sampled.samples.len() >= 8, "{}", sampled.samples.len());
    }

    #[test]
    fn sample_windows_tile_the_run_and_agree_with_posthoc() {
        let live = obs::Live::new();
        // 25 tasks on 11 lanes: waves of 11, 11, 3 — the ragged last wave
        // exercises the running-task overlap accounting in mid-windows.
        let roots: Vec<i32> = (0..25).collect();
        let p = program(&[], &[], &[], &roots, 25, 1e-3, 8);
        let r = run(&p, &cfg(1).with_sampling(700_000).with_live(live.clone()));
        let horizon = (r.makespan * 1e9).round() as u64;
        let tiled: u64 = r
            .samples
            .iter()
            .filter(|s| s.node == 0)
            .map(|s| s.window_ns)
            .sum();
        assert_eq!(tiled, horizon, "windows tile [0, makespan] exactly");
        // Window-averaged live occupancy equals the post-hoc number.
        let diff = (live.mean_occupancy(0) - r.node_occupancy[0]).abs();
        assert!(
            diff < 1e-9,
            "live {} vs posthoc {}",
            live.mean_occupancy(0),
            r.node_occupancy[0]
        );
        // Both read the busy clocks: the untraced run recorded nothing.
        assert_eq!(r.overhead.events, 0);
        assert!(r.trace.is_none());
    }

    #[test]
    fn samples_gauge_inflight_traffic() {
        // Node 0 fans out 6 large messages to node 1; sample densely and
        // expect some sample to catch traffic on the wire.
        let mb = 1 << 20;
        let edges: Vec<(i32, i32, usize)> = (1..=6).map(|i| (0, i, 0)).collect();
        let indeg: Vec<(i32, usize)> = (1..=6).map(|i| (i, 1)).collect();
        let node: Vec<(i32, u32)> = (1..=6).map(|i| (i, 1)).collect();
        let p = program(&edges, &indeg, &node, &[0], 7, 1e-3, mb);
        let r = run(&p, &cfg(2).with_sampling(50_000));
        assert!(
            r.samples
                .iter()
                .any(|s| s.inflight_msgs > 0 && s.inflight_bytes > 0),
            "no sample saw in-flight traffic across {} samples",
            r.samples.len()
        );
        // In-flight drains to zero by the final sample.
        let last = r.samples.last().unwrap();
        assert_eq!(last.inflight_msgs, 0);
    }

    #[test]
    fn samples_attribute_waiting_tasks_to_their_node() {
        // Task 2 on node 1 needs a local input from task 0 and a remote
        // one from task 1 on node 0: while the message is on its way,
        // node 1 has one waiting task and node 0 has none.
        let p = program(
            &[(0, 2, 0), (1, 2, 1)],
            &[(2, 2)],
            &[(0, 1), (2, 1)],
            &[0, 1],
            3,
            1e-3,
            8,
        );
        let r = run_and_replay(&p, &cfg(2).with_sampling(10_000));
        let waiting = |node| {
            r.samples
                .iter()
                .filter(move |s| s.node == node)
                .map(|s| s.pending_tasks)
        };
        assert!(waiting(1).any(|n| n == 1), "no sample saw the waiting task");
        assert!(waiting(0).all(|n| n == 0), "node 0 has no waiting task");
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn inconsistent_graph_detected() {
        // task 1 declares 2 inputs but only one edge targets it
        let p = program(&[(0, 1, 0)], &[(1, 2)], &[], &[0], 2, 1e-3, 8);
        run(&p, &cfg(1));
    }

    #[test]
    #[should_panic(expected = "simulated run deadlocked: 1/3 tasks done")]
    fn replaying_a_cycle_deadlocks() {
        // 1 and 2 feed each other: neither ever gets all its inputs.
        let p = program(
            &[(0, 1, 0), (1, 2, 0), (2, 1, 1)],
            &[(1, 2), (2, 1)],
            &[],
            &[0],
            3,
            1e-3,
            8,
        );
        let dag = UnfoldedDag::enumerate(&p);
        assert!(dag.is_consistent());
        let nets = [NetworkModel::from_profile(&MachineProfile::nacl())];
        let durations = [VirtualDuration::from_micros(1); 3];
        DagSim::new(&dag).run(&durations, &nets, 1);
    }

    #[test]
    #[should_panic(expected = "unknown task class 1")]
    fn root_of_an_unknown_class_panics() {
        let mut p = program(&[], &[], &[], &[0], 2, 1e-3, 8);
        p.roots.push(TaskKey::new(1, [0; 4]));
        run(&p, &cfg(1));
    }

    #[test]
    #[should_panic(expected = "placed on node")]
    fn placement_out_of_range_detected() {
        let p = program(&[], &[], &[(0, 5)], &[0], 1, 1e-3, 8);
        run(&p, &cfg(2));
    }
}
