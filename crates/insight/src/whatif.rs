//! Causal what-if profiling: replay the *realized* DAG under perturbed
//! costs and predict the end-to-end effect — the Coz idea ("virtual
//! speedup") applied to a task-parallel stencil run.
//!
//! Eyeballing a profile says where time *went*; it cannot say what
//! happens to the makespan if a cost changes, because waits overlap and
//! the critical path moves. [`WhatIf`] answers the causal question
//! directly: it rebuilds the run as a discrete-event replay over the
//! unfolded DAG — realized task durations taken from the drained trace,
//! communication costs from the same LogGP formulas the simulator charges
//! (`runtime_msg_cost` processing on both ends, sender occupancy
//! serializing back-to-back sends, eager/rendezvous transfer time) — and
//! re-runs it under a [`Perturbation`]:
//!
//! * [`Perturbation::TaskKind`] — scale every task of one kind by `f`
//!   ("what if the kernel were 30 % faster?");
//! * [`Perturbation::Link`] — scale network bandwidth and/or latency
//!   ("what if we had Stampede2's fabric?");
//! * [`Perturbation::Injection`] — scale one node's per-message
//!   processing rate ("what if rank 3's comm thread kept up?").
//!
//! The unperturbed replay ([`WhatIf::baseline`]) anchors fidelity: its
//! makespan should land within a few percent of the traced run, and every
//! prediction is a *delta against that replay*, so model error largely
//! cancels. The `stencil-whatif` bench binary validates predictions
//! against actual simulator re-runs and commits the agreement band.

use machine::MachineProfile;
use netsim::NetworkModel;
use obs::Trace;
use runtime::UnfoldedDag;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One hypothetical cost change to replay the run under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Scale the duration of every task of `kind` by `factor`
    /// (0.7 = 30 % faster kernels).
    TaskKind {
        /// Trace kind tag (see `TaskClass::kind`).
        kind: u32,
        /// Duration multiplier; must be > 0.
        factor: f64,
    },
    /// Scale the interconnect: effective bandwidth by `bandwidth`,
    /// one-way latency by `latency` (2.0 bandwidth = twice the wire
    /// speed; 0.5 latency = half the hop time). Applies to every link —
    /// the fabric is a full crossbar.
    Link {
        /// Bandwidth multiplier; must be > 0.
        bandwidth: f64,
        /// Latency multiplier; must be > 0.
        latency: f64,
    },
    /// Scale `node`'s message-injection rate by `factor`: 0.5 halves the
    /// rate (its comm thread takes twice as long per message), 2.0
    /// doubles it. Models a slow or offloaded communication thread.
    Injection {
        /// The node whose comm processing changes.
        node: u32,
        /// Injection-rate multiplier; must be > 0.
        factor: f64,
    },
}

/// What the replay predicts for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted end-to-end makespan, seconds.
    pub makespan_s: f64,
    /// Predicted mean worker-lane occupancy over the makespan.
    pub occupancy: f64,
}

/// A labelled scenario with its prediction and speedup vs the baseline
/// replay, as produced by [`WhatIf::rank`].
#[derive(Debug, Clone)]
pub struct RankedScenario {
    /// Human-readable scenario label.
    pub label: String,
    /// The perturbations applied together.
    pub perturbations: Vec<Perturbation>,
    /// Replay outcome under the perturbations.
    pub prediction: Prediction,
    /// `baseline_makespan / predicted_makespan` — > 1 means the change
    /// helps end-to-end, ≈ 1 means the cost was off the critical path.
    pub speedup: f64,
}

/// Replay context built once per (trace, DAG, machine) triple.
pub struct WhatIf {
    durations_ns: Vec<u64>,
    kinds: Vec<u32>,
    node_of: Vec<u32>,
    /// Out-edges per task: `(consumer, bytes)`.
    succs: Vec<Vec<(usize, u64)>>,
    indeg: Vec<usize>,
    nodes: u32,
    lanes: u32,
    msg_cost: f64,
    net: NetworkModel,
}

/// Replay events, ordered by (time, sequence).
enum Ev {
    Ready(usize),
    TaskDone(usize),
    /// Sender engine freed on `node`.
    SendDone(u32),
    /// Message for edge → `task` reached `node`'s NIC; queue for receive.
    Arrive {
        node: u32,
        task: usize,
    },
    /// Receive processing done on `node`: deliver to `task`.
    RecvDone {
        node: u32,
        task: usize,
    },
}

#[derive(Clone, Copy)]
enum CommJob {
    Send { dst: u32, task: usize, bytes: u64 },
    Recv { task: usize },
}

impl WhatIf {
    /// Build the replay context: realized durations joined from `trace`
    /// (tasks without a recorded span fall back to their static class
    /// cost), communication parameters from `profile`, topology from the
    /// DAG's node mapping. `nodes` is the run's node count.
    pub fn new(trace: &Trace, dag: &UnfoldedDag, profile: &MachineProfile, nodes: u32) -> Self {
        let join = crate::join(trace, dag);
        let mut durations_ns = Vec::with_capacity(dag.len());
        let mut kinds = Vec::with_capacity(dag.len());
        let mut node_of = Vec::with_capacity(dag.len());
        for (ti, &key) in dag.tasks.iter().enumerate() {
            let class = dag.graph.class(key.class);
            let dur = match join.span_of_task[ti] {
                Some(si) => trace.spans[si].duration_ns(),
                None => (class.cost(key.params) * 1e9).round() as u64,
            };
            durations_ns.push(dur);
            kinds.push(dag.graph.kind_of(key));
            node_of.push(dag.node_of(ti));
        }
        let mut succs = vec![Vec::new(); dag.len()];
        let mut indeg = vec![0usize; dag.len()];
        for e in &dag.edges {
            succs[e.producer].push((e.consumer, e.bytes as u64));
            indeg[e.consumer] += 1;
        }
        WhatIf {
            durations_ns,
            kinds,
            node_of,
            succs,
            indeg,
            nodes,
            lanes: profile.compute_threads(),
            msg_cost: profile.runtime_msg_cost,
            net: NetworkModel::from_profile(profile),
        }
    }

    /// The unperturbed replay — the model's own account of the run, the
    /// anchor every prediction is a delta against.
    pub fn baseline(&self) -> Prediction {
        self.replay(&[])
    }

    /// Replay the realized DAG under `perturbations` (applied together)
    /// and predict makespan and occupancy.
    pub fn replay(&self, perturbations: &[Perturbation]) -> Prediction {
        // Fold the perturbations into concrete cost tables.
        let mut bw_factor = 1.0f64;
        let mut lat_factor = 1.0f64;
        let mut msg_cost: Vec<f64> = vec![self.msg_cost; self.nodes as usize];
        let mut dur: Vec<f64> = self
            .durations_ns
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        for p in perturbations {
            match *p {
                Perturbation::TaskKind { kind, factor } => {
                    assert!(factor > 0.0, "duration factor must be positive");
                    for (ti, d) in dur.iter_mut().enumerate() {
                        if self.kinds[ti] == kind {
                            *d *= factor;
                        }
                    }
                }
                Perturbation::Link { bandwidth, latency } => {
                    assert!(
                        bandwidth > 0.0 && latency > 0.0,
                        "link factors must be positive"
                    );
                    bw_factor *= bandwidth;
                    lat_factor *= latency;
                }
                Perturbation::Injection { node, factor } => {
                    assert!(factor > 0.0, "injection factor must be positive");
                    assert!(
                        node < self.nodes,
                        "injection node {node} out of range ({} nodes)",
                        self.nodes
                    );
                    msg_cost[node as usize] /= factor;
                }
            }
        }
        // The perturbed interconnect: the same model type the simulator
        // charges, so the formulas cannot drift apart.
        let mut net = self.net.clone();
        net.bandwidth *= bw_factor;
        net.latency *= lat_factor;
        let transfer = |bytes: u64| net.transfer_time(bytes.max(1) as usize);
        let occupancy_of = |bytes: u64| net.sender_occupancy(bytes.max(1) as usize);

        // Discrete-event replay mirroring the simulator's comm pipeline:
        // FIFO ready queues, `lanes` compute lanes per node, one send/receive
        // engine per node (the simulator's default) charging msg_cost on
        // both ends.
        let n_nodes = self.nodes as usize;
        let mut indeg = self.indeg.clone();
        let mut free_lanes: Vec<u32> = vec![self.lanes; n_nodes];
        let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_nodes];
        let mut comm_free: Vec<usize> = vec![1; n_nodes];
        let mut comm_queue: Vec<VecDeque<CommJob>> = vec![VecDeque::new(); n_nodes];
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut events: Vec<Option<Ev>> = Vec::new();
        let push = |heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    events: &mut Vec<Option<Ev>>,
                    t: u64,
                    ev: Ev| {
            let seq = events.len() as u64;
            events.push(Some(ev));
            heap.push(Reverse((t, seq)));
        };
        let ns = |s: f64| (s * 1e9).round() as u64;

        for (ti, d) in indeg.iter().enumerate() {
            if *d == 0 {
                push(&mut heap, &mut events, 0, Ev::Ready(ti));
            }
        }

        let mut makespan = 0u64;
        let mut busy_ns = 0u64;
        while let Some(Reverse((now, seq))) = heap.pop() {
            let ev = events[seq as usize].take().expect("event fired once");
            match ev {
                Ev::Ready(ti) => {
                    let n = self.node_of[ti] as usize;
                    ready[n].push_back(ti);
                    while free_lanes[n] > 0 && !ready[n].is_empty() {
                        let t = ready[n].pop_front().expect("nonempty");
                        free_lanes[n] -= 1;
                        let d = ns(dur[t]);
                        busy_ns += d;
                        push(&mut heap, &mut events, now + d, Ev::TaskDone(t));
                    }
                }
                Ev::TaskDone(ti) => {
                    makespan = makespan.max(now);
                    let n = self.node_of[ti] as usize;
                    free_lanes[n] += 1;
                    for &(c, bytes) in &self.succs[ti] {
                        let dst = self.node_of[c];
                        if dst as usize == n {
                            indeg[c] -= 1;
                            if indeg[c] == 0 {
                                push(&mut heap, &mut events, now, Ev::Ready(c));
                            }
                        } else {
                            comm_queue[n].push_back(CommJob::Send {
                                dst,
                                task: c,
                                bytes,
                            });
                        }
                    }
                    // Dispatch the freed lane and pump queued sends.
                    if let Some(t) = ready[n].pop_front() {
                        free_lanes[n] -= 1;
                        let d = ns(dur[t]);
                        busy_ns += d;
                        push(&mut heap, &mut events, now + d, Ev::TaskDone(t));
                    }
                    self.pump(
                        n,
                        now,
                        &msg_cost,
                        &transfer,
                        &occupancy_of,
                        &mut comm_free,
                        &mut comm_queue,
                        &mut heap,
                        &mut events,
                    );
                }
                Ev::SendDone(node) => {
                    let n = node as usize;
                    comm_free[n] += 1;
                    self.pump(
                        n,
                        now,
                        &msg_cost,
                        &transfer,
                        &occupancy_of,
                        &mut comm_free,
                        &mut comm_queue,
                        &mut heap,
                        &mut events,
                    );
                }
                Ev::Arrive { node, task } => {
                    let n = node as usize;
                    comm_queue[n].push_back(CommJob::Recv { task });
                    self.pump(
                        n,
                        now,
                        &msg_cost,
                        &transfer,
                        &occupancy_of,
                        &mut comm_free,
                        &mut comm_queue,
                        &mut heap,
                        &mut events,
                    );
                }
                Ev::RecvDone { node, task } => {
                    let n = node as usize;
                    comm_free[n] += 1;
                    indeg[task] -= 1;
                    if indeg[task] == 0 {
                        push(&mut heap, &mut events, now, Ev::Ready(task));
                    }
                    self.pump(
                        n,
                        now,
                        &msg_cost,
                        &transfer,
                        &occupancy_of,
                        &mut comm_free,
                        &mut comm_queue,
                        &mut heap,
                        &mut events,
                    );
                }
            }
        }

        let makespan_s = makespan as f64 / 1e9;
        let lane_ns = makespan * self.lanes as u64 * self.nodes as u64;
        Prediction {
            makespan_s,
            occupancy: if lane_ns == 0 {
                0.0
            } else {
                (busy_ns as f64 / lane_ns as f64).min(1.0)
            },
        }
    }

    /// Replay every labelled scenario and rank by predicted speedup
    /// (largest first) against the unperturbed baseline — the "what to
    /// optimize next" table.
    pub fn rank(&self, scenarios: &[(String, Vec<Perturbation>)]) -> Vec<RankedScenario> {
        let base = self.baseline();
        let mut out: Vec<RankedScenario> = scenarios
            .iter()
            .map(|(label, ps)| {
                let prediction = self.replay(ps);
                RankedScenario {
                    label: label.clone(),
                    perturbations: ps.clone(),
                    prediction,
                    speedup: if prediction.makespan_s > 0.0 {
                        base.makespan_s / prediction.makespan_s
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect();
        out.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
        out
    }
}

impl WhatIf {
    /// Start queued comm jobs on `node` while engines are free —
    /// the replay twin of the simulator's `pump_comm`.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &self,
        n: usize,
        now: u64,
        msg_cost: &[f64],
        transfer: &dyn Fn(u64) -> f64,
        occupancy_of: &dyn Fn(u64) -> f64,
        comm_free: &mut [usize],
        comm_queue: &mut [VecDeque<CommJob>],
        heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
        events: &mut Vec<Option<Ev>>,
    ) {
        let ns = |s: f64| (s * 1e9).round() as u64;
        while comm_free[n] > 0 {
            let Some(job) = comm_queue[n].pop_front() else {
                return;
            };
            comm_free[n] -= 1;
            let mut push = |t: u64, ev: Ev| {
                let seq = events.len() as u64;
                events.push(Some(ev));
                heap.push(Reverse((t, seq)));
            };
            match job {
                CommJob::Send { dst, task, bytes } => {
                    let occupancy = msg_cost[n] + occupancy_of(bytes);
                    let arrival = msg_cost[n] + transfer(bytes);
                    push(now + ns(arrival), Ev::Arrive { node: dst, task });
                    push(now + ns(occupancy), Ev::SendDone(n as u32));
                }
                CommJob::Recv { task } => {
                    push(
                        now + ns(msg_cost[n]),
                        Ev::RecvDone {
                            node: n as u32,
                            task,
                        },
                    );
                }
            }
        }
    }
}
