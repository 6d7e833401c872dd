//! Causal what-if profiling: replay the *realized* DAG under perturbed
//! costs and predict the end-to-end effect — the Coz idea ("virtual
//! speedup") applied to a task-parallel stencil run.
//!
//! Eyeballing a profile says where time *went*; it cannot say what
//! happens to the makespan if a cost changes, because waits overlap and
//! the critical path moves. [`WhatIf`] answers the causal question
//! directly: it rebuilds the run as a discrete-event replay over the
//! unfolded DAG — realized task durations taken from the drained trace,
//! every message charge from the simulator's own [`NetworkModel`]
//! (`send_busy` and `arrival` on the sender, `msg_cost` on the receiver),
//! events ordered by the simulator's own [`Engine`] — and re-runs
//! it under a [`Perturbation`]:
//!
//! * [`Perturbation::TaskKind`] — scale every task of one kind by `f`
//!   ("what if the kernel were 30 % faster?");
//! * [`Perturbation::Link`] — scale network bandwidth and/or latency
//!   ("what if we had Stampede2's fabric?");
//! * [`Perturbation::Injection`] — scale one node's per-message
//!   processing rate ("what if rank 3's comm thread kept up?").
//!
//! The replay mirrors the simulator's resources under its default FIFO
//! scheduler: `compute_threads` worker lanes and one comm engine per
//! node. Replaying a simulated run's trace ([`WhatIf::baseline`])
//! reproduces its makespan to the nanosecond, and a prediction equals
//! the simulator re-run with the same change made real; the
//! `stencil-whatif` bench binary and this crate's tests gate both.
//!
//! The replay is a second [`Model`] rather than a wrapper around
//! `runtime::sim_exec`: it walks a flat, already-unfolded DAG with no
//! pending table, payloads or telemetry, which makes it about five times
//! cheaper per scenario than a simulator run.

use machine::MachineProfile;
use netsim::desim::{Engine, Model, Scheduler, VirtualDuration, VirtualTime};
use netsim::NetworkModel;
use obs::Trace;
use runtime::UnfoldedDag;
use std::collections::VecDeque;

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
pub struct WhatIf<'a> {
    /// The DAG replayed; each finished task releases its out-edges.
    dag: &'a UnfoldedDag,
    /// Realized service time per task, seconds.
    durations_s: Vec<f64>,
    kinds: Vec<u32>,
    node_of: Vec<u32>,
    indeg: Vec<usize>,
    nodes: u32,
    lanes: u32,
    net: NetworkModel,
}

impl<'a> WhatIf<'a> {
    /// Build the replay context: realized durations joined from `trace`
    /// (tasks without a recorded span fall back to their static class
    /// cost), communication parameters from `profile`, topology from the
    /// DAG's node mapping. `nodes` is the run's node count.
    pub fn new(trace: &Trace, dag: &'a UnfoldedDag, profile: &MachineProfile, nodes: u32) -> Self {
        let join = crate::join(trace, dag);
        let mut durations_s = Vec::with_capacity(dag.len());
        let mut kinds = Vec::with_capacity(dag.len());
        let mut node_of = Vec::with_capacity(dag.len());
        for (ti, &key) in dag.tasks.iter().enumerate() {
            let class = dag.graph.class(key.class);
            let dur = match join.span_of_task[ti] {
                Some(si) => trace.spans[si].duration_ns(),
                None => (class.cost(key.params) * 1e9).round() as u64,
            };
            durations_s.push(dur as f64 / 1e9);
            kinds.push(dag.graph.kind_of(key));
            node_of.push(dag.node_of(ti));
        }
        WhatIf {
            dag,
            durations_s,
            kinds,
            node_of,
            indeg: (0..dag.len()).map(|t| join.in_edges.of(t).len()).collect(),
            nodes,
            lanes: profile.compute_threads(),
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
        // Fold the perturbations into concrete cost tables: durations,
        // and one message-cost model per node.
        let mut bw_factor = 1.0f64;
        let mut lat_factor = 1.0f64;
        let mut nets = vec![self.net.clone(); self.nodes as usize];
        let mut dur = self.durations_s.clone();
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
                    nets[node as usize].msg_cost /= factor;
                }
            }
        }
        for net in &mut nets {
            net.bandwidth *= bw_factor;
            net.latency *= lat_factor;
        }

        let n_nodes = self.nodes as usize;
        let mut engine = Engine::new(Replay {
            ctx: self,
            dur: dur
                .into_iter()
                .map(VirtualDuration::from_secs_f64)
                .collect(),
            nets,
            indeg: self.indeg.clone(),
            free_lanes: vec![self.lanes; n_nodes],
            ready: vec![VecDeque::new(); n_nodes],
            comm_idle: vec![true; n_nodes],
            comm_queue: vec![VecDeque::new(); n_nodes],
            makespan: VirtualTime::ZERO,
            busy: 0,
        });
        for (ti, &d) in self.indeg.iter().enumerate() {
            if d == 0 {
                engine.prime(Ev::Ready(ti));
            }
        }
        engine.run();
        let replay = engine.into_model();

        let makespan = replay.makespan.as_nanos();
        let lane_ns = makespan * self.lanes as u64 * self.nodes as u64;
        Prediction {
            makespan_s: makespan as f64 / 1e9,
            occupancy: if lane_ns == 0 {
                0.0
            } else {
                (replay.busy as f64 / lane_ns as f64).min(1.0)
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

/// Replay events, delivered in the simulator's `(time, sequence)` order.
enum Ev {
    Ready(usize),
    TaskDone(usize),
    /// `node`'s comm engine finished a job; a receive also delivers the
    /// flow to `deliver`.
    CommDone {
        node: usize,
        deliver: Option<usize>,
    },
    /// A message for `task` reached `node`'s NIC; queue it for receive.
    Arrive {
        node: usize,
        task: usize,
    },
}

#[derive(Clone, Copy)]
enum CommJob {
    Send {
        dst: usize,
        task: usize,
        bytes: usize,
    },
    Recv {
        task: usize,
    },
}

/// One scenario's replay state: the perturbed costs and, per node,
/// `lanes` worker lanes behind a FIFO ready queue and one comm engine
/// behind a FIFO job queue — the simulator's resources.
struct Replay<'a> {
    ctx: &'a WhatIf<'a>,
    /// Perturbed service time per task.
    dur: Vec<VirtualDuration>,
    /// Each node's perturbed message-cost model.
    nets: Vec<NetworkModel>,
    indeg: Vec<usize>,
    free_lanes: Vec<u32>,
    ready: Vec<VecDeque<usize>>,
    comm_idle: Vec<bool>,
    comm_queue: Vec<VecDeque<CommJob>>,
    makespan: VirtualTime,
    /// Summed task service time, ns.
    busy: u64,
}

impl Replay<'_> {
    /// Start ready tasks on `n`'s free lanes.
    fn dispatch(&mut self, n: usize, sched: &mut Scheduler<Ev>) {
        while self.free_lanes[n] > 0 {
            let Some(t) = self.ready[n].pop_front() else {
                return;
            };
            self.free_lanes[n] -= 1;
            self.busy += self.dur[t].as_nanos();
            sched.schedule_in(self.dur[t], Ev::TaskDone(t));
        }
    }

    /// One input of `task` arrived; it becomes ready with its last.
    fn satisfy(&mut self, task: usize, sched: &mut Scheduler<Ev>) {
        self.indeg[task] -= 1;
        if self.indeg[task] == 0 {
            sched.schedule_now(Ev::Ready(task));
        }
    }

    /// Start `n`'s next queued comm job if its engine is idle — the
    /// replay twin of the simulator's `pump_comm`, charging the same
    /// [`NetworkModel`] terms.
    fn pump(&mut self, n: usize, sched: &mut Scheduler<Ev>) {
        if !self.comm_idle[n] {
            return;
        }
        let Some(job) = self.comm_queue[n].pop_front() else {
            return;
        };
        self.comm_idle[n] = false;
        let net = &self.nets[n];
        let secs = VirtualDuration::from_secs_f64;
        match job {
            CommJob::Send { dst, task, bytes } => {
                let arrive = Ev::Arrive { node: dst, task };
                sched.schedule_in(secs(net.arrival(bytes)), arrive);
                let done = Ev::CommDone {
                    node: n,
                    deliver: None,
                };
                sched.schedule_in(secs(net.send_busy(bytes)), done);
            }
            CommJob::Recv { task } => {
                let done = Ev::CommDone {
                    node: n,
                    deliver: Some(task),
                };
                sched.schedule_in(secs(net.msg_cost), done);
            }
        }
    }
}

impl Model for Replay<'_> {
    type Event = Ev;

    fn handle(&mut self, now: VirtualTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let ctx = self.ctx;
        match ev {
            Ev::Ready(t) => {
                let n = ctx.node_of[t] as usize;
                self.ready[n].push_back(t);
                self.dispatch(n, sched);
            }
            Ev::TaskDone(t) => {
                self.makespan = now;
                let n = ctx.node_of[t] as usize;
                self.free_lanes[n] += 1;
                for e in ctx.dag.out_edges(t) {
                    let (c, bytes) = (e.consumer as usize, e.bytes as usize);
                    let dst = ctx.node_of[c] as usize;
                    if dst == n {
                        self.satisfy(c, sched);
                    } else {
                        self.comm_queue[n].push_back(CommJob::Send {
                            dst,
                            task: c,
                            bytes,
                        });
                    }
                }
                self.dispatch(n, sched);
                self.pump(n, sched);
            }
            Ev::CommDone { node, deliver } => {
                self.comm_idle[node] = true;
                if let Some(task) = deliver {
                    self.satisfy(task, sched);
                }
                self.pump(node, sched);
            }
            Ev::Arrive { node, task } => {
                self.comm_queue[node].push_back(CommJob::Recv { task });
                self.pump(node, sched);
            }
        }
    }
}
