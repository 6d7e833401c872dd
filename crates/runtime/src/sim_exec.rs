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
//! Spans and metrics flow through the same `obs` recorder the real
//! executors use — virtual nanoseconds go straight in as span timestamps,
//! so the observability pipeline is identical under wall and virtual time.

use crate::exec::{assemble_report, ExecMode, ModeExt, RunConfig, RunReport};
use crate::pending::{PendingTable, ReadyTask, SpareTasks};
use crate::ready_queue::ReadyQueue;
use crate::task::{FlowData, OutputDep, Program, TaskKey};
use desim::{Engine, Model, Scheduler, TimeWeighted, VirtualDuration, VirtualTime};
use machine::MachineProfile;
use netsim::{InFlight, NetworkModel};
use obs::{
    names, window_busy, BusyClock, Counter, Gauge, Live, LiveSample, LocalRecorder, Metrics,
    Recorder,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Work item for a node's communication engine. Both directions cost
/// [`NetworkModel::msg_cost`] of comm-thread time: PaRSEC's dedicated
/// communication thread resolves dependences, activates successors, and
/// packs/unpacks on every message. A send keeps the engine busy for
/// [`NetworkModel::send_busy`] and lands [`NetworkModel::arrival`] later;
/// a receive holds it for `msg_cost`. `insight::WhatIf` replays the same
/// charges from the same model.
enum CommJob {
    Send {
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        /// Kind tag of the producing task, stamped into the message span.
        kind: u32,
        /// When the producer handed the payload to the comm engine — the
        /// message span's enqueue timestamp; the gap to injection is the
        /// queueing delay behind earlier sends.
        enqueue: VirtualTime,
    },
    Recv {
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        /// The in-flight message span (deliver timestamp still zero); the
        /// receive-side `CommDone` completes and records it.
        msg: obs::MsgSpan,
    },
}

/// A task occupying one worker lane (the lane is its index in
/// [`NodeState::running`]).
struct Running {
    start: VirtualTime,
    task: Box<ReadyTask>,
}

/// The run's instruments, looked up once and held (a by-name lookup takes
/// the registry mutex and allocates the key). Counters that a run may
/// never bump are created on first use, so a snapshot holds exactly the
/// keys it would with per-event lookups.
struct SimMetrics {
    registry: Metrics,
    tasks_executed: Counter,
    queue_depth: Gauge,
    redundant_flops: Option<Counter>,
    /// `MESSAGES_SENT` and `BYTES_SENT`.
    sent: Option<(Counter, Counter)>,
}

impl SimMetrics {
    fn new(registry: &Metrics) -> Self {
        SimMetrics {
            registry: registry.clone(),
            tasks_executed: registry.counter(names::TASKS_EXECUTED),
            queue_depth: registry.gauge(names::QUEUE_DEPTH),
            redundant_flops: None,
            sent: None,
        }
    }

    fn task_done(&mut self, redundant_flops: u64) {
        self.tasks_executed.inc();
        if redundant_flops > 0 {
            self.redundant_flops
                .get_or_insert_with(|| self.registry.counter(names::REDUNDANT_FLOPS))
                .add(redundant_flops);
        }
    }

    fn message_sent(&mut self, bytes: u64) {
        let (messages, total_bytes) = self.sent.get_or_insert_with(|| {
            (
                self.registry.counter(names::MESSAGES_SENT),
                self.registry.counter(names::BYTES_SENT),
            )
        });
        messages.inc();
        total_bytes.add(bytes);
    }
}

struct NodeState {
    free_lanes: Vec<u32>,
    ready: ReadyQueue,
    /// A coalesced [`Ev::Dispatch`] is already scheduled for this node at
    /// the current timestamp, so further ready arrivals need not add one.
    dispatch_scheduled: bool,
    /// The task on each worker lane, by lane.
    running: Vec<Option<Running>>,
    /// Each worker lane's busy clock, and its reading at the last sample.
    busy: Vec<BusyClock>,
    sampled_busy: Vec<u64>,
    comm_queue: VecDeque<CommJob>,
    comm_active: usize,
    comm_busy: TimeWeighted,
}

enum Ev {
    Ready(Box<ReadyTask>),
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
    /// A comm-engine job finished on `node`; for `Recv` jobs this also
    /// delivers the flow and completes the message span.
    CommDone {
        node: u32,
        started: VirtualTime,
        deliver: Option<(TaskKey, usize, FlowData)>,
        /// The message span to stamp with the delivery time and record
        /// (`Recv` completions only).
        msg: Option<obs::MsgSpan>,
    },
    /// Wire delivery: the message reached the destination NIC and now
    /// queues for receive processing.
    Arrive {
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        /// The in-flight message span, threaded through to the receive
        /// job so delivery can complete it.
        msg: obs::MsgSpan,
    },
    /// Live-telemetry tick: publish one [`LiveSample`] per node covering
    /// the window since the previous tick, then reschedule. Samples only
    /// read state, so they cannot perturb task timing.
    Sample,
}

struct Sim {
    program: Arc<Program>,
    net: NetworkModel,
    /// Parallel send engines per node.
    comm_engines: usize,
    execute_bodies: bool,
    lanes_per_node: u32,
    pending: PendingTable,
    /// Boxes of finished tasks, reused for the next pending entries.
    spares: SpareTasks,
    /// Flows delivered into `pending`.
    activations: u64,
    /// Scratch for the finishing task's output declarations and flows.
    deps: Vec<OutputDep>,
    flows: Vec<FlowData>,
    nodes: Vec<NodeState>,
    completed: u64,
    last_task_done: VirtualTime,
    remote_messages: u64,
    remote_bytes: u64,
    local_flows: u64,
    local: LocalRecorder,
    msg_local: obs::MsgRecorder,
    metrics: SimMetrics,
    inflight: InFlight,
    live: Option<Live>,
    sample_period: Option<VirtualDuration>,
    last_sample: VirtualTime,
}

impl Sim {
    fn node_of(&self, key: TaskKey) -> u32 {
        let n = self.program.graph.class(key.class).node_of(key.params);
        assert!(
            (n as usize) < self.nodes.len(),
            "{key:?} placed on node {n} but the run has {} nodes",
            self.nodes.len()
        );
        n
    }

    /// Schedule a coalesced [`Ev::Dispatch`] for `node` at the current
    /// timestamp unless one is already queued.
    fn request_dispatch(&mut self, node: u32, sched: &mut Scheduler<Ev>) {
        let st = &mut self.nodes[node as usize];
        if !st.dispatch_scheduled {
            st.dispatch_scheduled = true;
            sched.schedule_now(Ev::Dispatch { node });
        }
    }

    fn dispatch(&mut self, node: u32, now: VirtualTime, sched: &mut Scheduler<Ev>) {
        loop {
            let st = &mut self.nodes[node as usize];
            if st.ready.is_empty() || st.free_lanes.is_empty() {
                return;
            }
            let ready = st.ready.pop().expect("nonempty");
            let lane = st.free_lanes.pop().expect("nonempty");
            let cost = self
                .program
                .graph
                .class(ready.key.class)
                .cost(ready.key.params);
            st.running[lane as usize] = Some(Running {
                start: now,
                task: ready,
            });
            st.busy[lane as usize].start(now.as_nanos());
            let done = Ev::TaskDone { node, lane };
            sched.schedule_in(VirtualDuration::from_secs_f64(cost), done);
        }
    }

    fn deliver(
        &mut self,
        consumer: TaskKey,
        slot: usize,
        data: FlowData,
        sched: &mut Scheduler<Ev>,
    ) {
        let graph = &self.program.graph;
        self.activations += 1;
        if let Some(ready) = self
            .pending
            .deliver(graph, consumer, slot, data, &mut self.spares)
        {
            sched.schedule_now(Ev::Ready(ready));
        }
    }

    /// Start queued comm jobs while engines are free.
    fn pump_comm(&mut self, node: u32, now: VirtualTime, sched: &mut Scheduler<Ev>) {
        loop {
            let st = &mut self.nodes[node as usize];
            if st.comm_active >= self.comm_engines || st.comm_queue.is_empty() {
                return;
            }
            let job = st.comm_queue.pop_front().expect("nonempty");
            st.comm_busy.record(now, st.comm_active as f64);
            st.comm_active += 1;
            match job {
                CommJob::Send {
                    consumer,
                    slot,
                    data,
                    kind,
                    enqueue,
                } => {
                    // processing precedes injection: the wire transfer
                    // starts once the comm thread has prepared the message
                    let busy = self.net.send_busy(data.bytes);
                    let arrival = self.net.arrival(data.bytes);
                    self.remote_messages += 1;
                    self.remote_bytes += data.bytes as u64;
                    self.inflight.send(data.bytes as u64);
                    self.metrics.message_sent(data.bytes as u64);
                    // The message span rides along with the payload; the
                    // receive-side CommDone stamps the delivery time.
                    let msg = obs::MsgSpan {
                        src: node,
                        dst: self.node_of(consumer),
                        kind,
                        bytes: data.bytes as u64,
                        enqueue_ns: enqueue.as_nanos(),
                        inject_ns: now.as_nanos(),
                        deliver_ns: 0,
                    };
                    sched.schedule_in(
                        VirtualDuration::from_secs_f64(arrival),
                        Ev::Arrive {
                            consumer,
                            slot,
                            data,
                            msg,
                        },
                    );
                    sched.schedule_in(
                        VirtualDuration::from_secs_f64(busy),
                        Ev::CommDone {
                            node,
                            started: now,
                            deliver: None,
                            msg: None,
                        },
                    );
                }
                CommJob::Recv {
                    consumer,
                    slot,
                    data,
                    msg,
                } => {
                    sched.schedule_in(
                        VirtualDuration::from_secs_f64(self.net.msg_cost),
                        Ev::CommDone {
                            node,
                            started: now,
                            deliver: Some((consumer, slot, data)),
                            msg: Some(msg),
                        },
                    );
                }
            }
        }
    }

    fn finish_task(&mut self, node: u32, lane: u32, now: VirtualTime, sched: &mut Scheduler<Ev>) {
        let st = &mut self.nodes[node as usize];
        let run = st.running[lane as usize]
            .take()
            .unwrap_or_else(|| panic!("lane {lane} of node {node} finished but ran no task"));
        st.busy[lane as usize].stop(now.as_nanos());
        let key = run.task.key;
        // Keep the program alive independently of `self` so the class
        // reference does not pin the whole struct borrow.
        let program = Arc::clone(&self.program);
        let class = program.graph.class(key.class);

        let kind = self.program.graph.kind_of(key);
        self.local.task_instance(
            node,
            lane,
            kind,
            key.instance_id(),
            run.start.as_nanos(),
            now.as_nanos(),
        );
        self.metrics.task_done(class.redundant_flops(key.params));
        // Produce outputs: real bodies or size-only placeholders.
        let mut task = run.task;
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
            let dst = self.node_of(dep.consumer);
            if dst == node {
                self.local_flows += 1;
                self.deliver(dep.consumer, dep.slot, data, sched);
            } else {
                self.nodes[node as usize]
                    .comm_queue
                    .push_back(CommJob::Send {
                        consumer: dep.consumer,
                        slot: dep.slot,
                        data,
                        kind,
                        enqueue: now,
                    });
                self.pump_comm(node, now, sched);
            }
        }
        flows.clear();
        self.flows = flows;
        self.deps = deps;

        // Free the lane so the dispatcher can reuse it.
        self.nodes[node as usize].free_lanes.push(lane);

        self.completed += 1;
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
        let w0 = self.last_sample.as_nanos();
        let w1 = now.as_nanos();
        if w1 <= w0 {
            return;
        }
        let (inflight_msgs, inflight_bytes) = self.inflight.snapshot();
        let pending_tasks = self.pending.len();
        for (n, st) in self.nodes.iter_mut().enumerate() {
            let readings = st.busy.iter().map(|c| c.read(w1));
            live.publish(LiveSample {
                t_ns: w1,
                window_ns: w1 - w0,
                node: n as u32,
                lane_busy: window_busy(&mut st.sampled_busy, readings, w1 - w0),
                ready_depth: st.ready.len(),
                pending_tasks,
                inflight_msgs,
                inflight_bytes,
                // The simulator's central per-node queue never steals or
                // spills.
                steals: 0,
                steal_fails: 0,
                overflow_pushes: 0,
            });
        }
        self.last_sample = now;
    }
}

impl Model for Sim {
    type Event = Ev;

    fn handle(&mut self, now: VirtualTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Ready(ready) => {
                let node = self.node_of(ready.key);
                self.nodes[node as usize].ready.push(ready);
                self.metrics
                    .queue_depth
                    .set(self.nodes[node as usize].ready.len() as i64);
                self.request_dispatch(node, sched);
            }
            Ev::Dispatch { node } => {
                self.nodes[node as usize].dispatch_scheduled = false;
                self.dispatch(node, now, sched);
            }
            Ev::TaskDone { node, lane } => self.finish_task(node, lane, now, sched),
            Ev::CommDone {
                node,
                started,
                deliver,
                msg,
            } => {
                let st = &mut self.nodes[node as usize];
                st.comm_busy.record(now, st.comm_active as f64);
                st.comm_active -= 1;
                self.local.comm(
                    node,
                    self.lanes_per_node,
                    started.as_nanos(),
                    now.as_nanos(),
                );
                // Receive processing done: the payload is now visible to
                // the consumer — stamp and record the message span.
                // Recording only reads virtual time, so traced and
                // untraced runs stay bit-identical.
                if let Some(mut msg) = msg {
                    msg.deliver_ns = now.as_nanos();
                    self.msg_local.record(msg);
                }
                if let Some((consumer, slot, data)) = deliver {
                    self.deliver(consumer, slot, data, sched);
                }
                self.pump_comm(node, now, sched);
            }
            Ev::Arrive {
                consumer,
                slot,
                data,
                msg,
            } => {
                self.inflight.arrive(data.bytes as u64);
                let dst = self.node_of(consumer);
                self.nodes[dst as usize]
                    .comm_queue
                    .push_back(CommJob::Recv {
                        consumer,
                        slot,
                        data,
                        msg,
                    });
                self.pump_comm(dst, now, sched);
            }
            Ev::Sample => {
                // Stop ticking once the run is over; the tail window up
                // to the makespan is covered by the final sample
                // `simulate` takes after the event loop drains.
                if self.completed < self.program.total_tasks {
                    self.take_sample(now);
                    if let Some(period) = self.sample_period {
                        sched.schedule_in(period, Ev::Sample);
                    }
                }
            }
        }
    }
}

/// Everything a finished simulation yields, before either report shape is
/// assembled.
struct SimOutcome {
    makespan: VirtualTime,
    tasks_executed: u64,
    remote_messages: u64,
    remote_bytes: u64,
    local_flows: u64,
    activations: u64,
    comm_utilization: Vec<f64>,
}

/// Run the event loop to completion.
///
/// Panics when the run deadlocks (tasks remain pending after the event
/// queue drains) — run `analyze::assert_clean` (or
/// [`crate::unfold::assert_consistent`]) on a scaled-down instance to
/// debug the graph.
fn simulate(
    program: &Program,
    cfg: &RunConfig,
    profile: &MachineProfile,
    recorder: &Recorder,
    metrics: &Metrics,
    live: Option<Live>,
) -> SimOutcome {
    assert!(cfg.nodes >= 1, "need at least one node");
    assert!(cfg.comm_engines >= 1, "need at least one comm engine");
    assert!(program.total_tasks > 0, "empty program");

    let lanes = profile.compute_threads();
    let net = NetworkModel::from_profile(profile);
    let sample_period_ns = cfg.sample_period();
    let nodes = (0..cfg.nodes)
        .map(|_| NodeState {
            free_lanes: (0..lanes).rev().collect(),
            ready: ReadyQueue::new(cfg.scheduler, Arc::clone(&program.graph)),
            dispatch_scheduled: false,
            running: (0..lanes).map(|_| None).collect(),
            busy: vec![BusyClock::default(); lanes as usize],
            sampled_busy: vec![0; lanes as usize],
            comm_queue: VecDeque::new(),
            comm_active: 0,
            comm_busy: TimeWeighted::new(),
        })
        .collect();

    let program = Arc::new(Program {
        graph: Arc::clone(&program.graph),
        roots: program.roots.clone(),
        total_tasks: program.total_tasks,
    });

    let sim = Sim {
        program: Arc::clone(&program),
        net,
        comm_engines: cfg.comm_engines,
        execute_bodies: cfg.execute_bodies,
        lanes_per_node: lanes,
        pending: PendingTable::new(&program.graph),
        spares: SpareTasks::new(),
        activations: 0,
        deps: Vec::new(),
        flows: Vec::new(),
        nodes,
        completed: 0,
        last_task_done: VirtualTime::ZERO,
        remote_messages: 0,
        remote_bytes: 0,
        local_flows: 0,
        local: recorder.local(),
        msg_local: recorder.msg_local(),
        metrics: SimMetrics::new(metrics),
        inflight: InFlight::new(),
        live,
        sample_period: sample_period_ns.map(|ns| VirtualDuration::from_nanos(ns.max(1))),
        last_sample: VirtualTime::ZERO,
    };

    let mut engine = Engine::new(sim);
    for &root in &program.roots {
        let ready = PendingTable::root(&program.graph, root);
        engine.prime(Ev::Ready(ready));
    }
    if sample_period_ns.is_some() {
        engine.prime(Ev::Sample);
    }
    engine.run();

    let mut sim = engine.into_model();
    if sim.completed != program.total_tasks {
        panic!(
            "simulated run deadlocked: {}/{} tasks done, {} pending (first stuck: {:?})",
            sim.completed,
            program.total_tasks,
            sim.pending.len(),
            sim.pending.waiting(&program.graph).next()
        );
    }

    let makespan_t = sim.last_task_done;
    // Final sample: cover the tail window up to the makespan so the
    // sample windows tile the run exactly.
    sim.take_sample(makespan_t);
    let comm_utilization = sim
        .nodes
        .iter()
        .map(|n| n.comm_busy.mean_until(makespan_t, n.comm_active as f64) / cfg.comm_engines as f64)
        .collect();

    SimOutcome {
        makespan: makespan_t,
        tasks_executed: sim.completed,
        remote_messages: sim.remote_messages,
        remote_bytes: sim.remote_bytes,
        local_flows: sim.local_flows,
        activations: sim.activations,
        comm_utilization,
    }
}

/// Run `program` under `cfg` on the virtual-time engine (entered through
/// [`crate::run`]).
pub(crate) fn execute(program: &Program, cfg: &RunConfig) -> RunReport {
    let profile = cfg
        .profile
        .as_ref()
        .expect("simulated mode requires a machine profile");
    let lanes = profile.compute_threads();
    let recorder = cfg.recorder();
    let metrics = Metrics::new();
    let live = cfg.live_board();
    let outcome = simulate(program, cfg, profile, &recorder, &metrics, live.clone());
    metrics.counter(names::ACTIVATIONS).add(outcome.activations);
    let samples = live.map(|l| l.history()).unwrap_or_default();

    assemble_report(
        cfg,
        ExecMode::Simulated,
        outcome.makespan.as_nanos(),
        lanes,
        outcome.tasks_executed,
        &recorder,
        &metrics,
        samples,
        ModeExt::Simulated {
            remote_messages: outcome.remote_messages,
            remote_bytes: outcome.remote_bytes,
            local_flows: outcome.local_flows,
            comm_utilization: outcome.comm_utilization,
        },
    )
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

    fn sim_ext(r: &RunReport) -> (u64, u64, u64) {
        match &r.ext {
            ModeExt::Simulated {
                remote_messages,
                remote_bytes,
                local_flows,
                ..
            } => (*remote_messages, *remote_bytes, *local_flows),
            _ => panic!("wrong ext"),
        }
    }

    #[test]
    fn single_task_makespan_is_its_cost() {
        let p = program(&[], &[], &[], &[0], 1, 1e-3, 8);
        let r = run(&p, &cfg(1));
        assert!((r.makespan - 1e-3).abs() < 1e-9, "makespan {}", r.makespan);
        assert_eq!(r.tasks_executed, 1);
        assert_eq!(sim_ext(&r).0, 0);
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
        let r = run(&p, &cfg(1));
        assert!((r.makespan - 3e-3).abs() < 1e-8, "makespan {}", r.makespan);
    }

    #[test]
    fn remote_edge_pays_network_latency() {
        // 0 on node 0 -> 1 on node 1; one 8-byte message.
        let p = program(&[(0, 1, 0)], &[(1, 1)], &[(1, 1)], &[0], 2, 1e-3, 8);
        let r = run(&p, &cfg(2));
        let net = NetworkModel::from_profile(&MachineProfile::nacl());
        let msg_cost = MachineProfile::nacl().runtime_msg_cost;
        // task + send processing + wire + receive processing + task
        let expected = 2e-3 + msg_cost + net.transfer_time(8) + msg_cost;
        assert!(
            (r.makespan - expected).abs() < 1e-8,
            "makespan {} vs expected {expected}",
            r.makespan
        );
        let (messages, bytes, local) = sim_ext(&r);
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
        let (messages, _, local) = sim_ext(&r);
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
        let r = run(&p, &cfg(2));
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
        let got = r.comm_utilization()[0];
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
        assert_eq!(sim_ext(&r).0, 2);
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
        let r = run(&p, &cfg(3).with_trace());
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
        assert!(r.overhead.events > 0);
        assert!(r.overhead.per_event_ns > 0.0);
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
    #[should_panic(expected = "deadlocked")]
    fn inconsistent_graph_detected() {
        // task 1 declares 2 inputs but only one edge targets it
        let p = program(&[(0, 1, 0)], &[(1, 2)], &[], &[0], 2, 1e-3, 8);
        run(&p, &cfg(1));
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
