//! Causal what-if profiling: replay the *realized* DAG under perturbed
//! costs and predict the end-to-end effect — the Coz idea ("virtual
//! speedup") applied to a task-parallel stencil run.
//!
//! Eyeballing a profile says where time *went*; it cannot say what
//! happens to the makespan if a cost changes, because waits overlap and
//! the critical path moves. [`WhatIf`] answers the causal question
//! directly: it replays the unfolded DAG on the simulator's own cluster
//! model ([`DagSim`]) — realized task durations taken from the
//! drained trace, every message charged by the simulator's
//! [`NetworkModel`] — and re-runs it under a [`Perturbation`]:
//!
//! * [`Perturbation::TaskKind`] — scale every task of one kind by `f`
//!   ("what if the kernel were 30 % faster?");
//! * [`Perturbation::Link`] — scale network bandwidth and/or latency
//!   ("what if we had Stampede2's fabric?");
//! * [`Perturbation::Injection`] — scale one node's per-message
//!   processing rate ("what if rank 3's comm thread kept up?").
//!
//! This module keeps only the cost source and the perturbations; the
//! lanes, FIFO ready queues and comm engines are the simulator's. So
//! replaying a simulated run's trace ([`WhatIf::baseline`]) reproduces
//! its makespan to the nanosecond, and a prediction equals the simulator
//! re-run with the same change made real; the `stencil-whatif` bench
//! binary and this crate's tests gate both.

use machine::MachineProfile;
use netsim::desim::VirtualDuration;
use netsim::NetworkModel;
use obs::Trace;
use runtime::{DagSim, UnfoldedDag};

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
    /// The replay's outcome under the perturbations.
    pub prediction: Prediction,
    /// `baseline_makespan / predicted_makespan` — > 1 means the change
    /// helps end-to-end, ≈ 1 means the cost was off the critical path.
    pub speedup: f64,
}

/// The what-if context, built once per (trace, DAG, machine) triple.
pub struct WhatIf<'a> {
    /// The DAG on the simulator's cluster model.
    sim: DagSim<'a>,
    /// Realized service time per task, seconds.
    durations_s: Vec<f64>,
    kinds: Vec<u32>,
    nodes: u32,
    lanes: u32,
    net: NetworkModel,
}

impl<'a> WhatIf<'a> {
    /// Build the replay context: realized durations joined from `trace`
    /// (tasks without a recorded span fall back to their static class
    /// cost), communication parameters from `profile`, topology from the
    /// DAG's node mapping. `nodes` is the run's node count.
    ///
    /// # Panics
    ///
    /// When the DAG has structural faults: a truncated or inconsistent
    /// DAG would replay another program.
    pub fn new(trace: &Trace, dag: &'a UnfoldedDag, profile: &MachineProfile, nodes: u32) -> Self {
        let faults: Vec<String> = dag.faults.iter().take(5).map(|f| f.to_string()).collect();
        assert!(
            faults.is_empty(),
            "what-if needs a consistent DAG; {} faults: {}",
            dag.faults.len(),
            faults.join("; ")
        );
        let join = crate::join(trace, dag);
        let mut durations_s = Vec::with_capacity(dag.len());
        let mut kinds = Vec::with_capacity(dag.len());
        for (ti, &key) in dag.tasks.iter().enumerate() {
            let dur = match join.span_of_task[ti] {
                Some(si) => trace.spans[si].duration_ns(),
                None => (dag.cost_of(ti) * 1e9).round() as u64,
            };
            durations_s.push(dur as f64 / 1e9);
            kinds.push(dag.graph.kind_of(key));
        }
        WhatIf {
            sim: DagSim::new(dag),
            durations_s,
            kinds,
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

    /// Re-run the realized DAG under `perturbations` (applied together)
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

        let dur: Vec<_> = dur
            .into_iter()
            .map(VirtualDuration::from_secs_f64)
            .collect();
        let (makespan, busy) = self.sim.run(&dur, &nets, self.lanes);
        Prediction {
            makespan_s: makespan as f64 / 1e9,
            occupancy: obs::occupancy(busy, self.lanes * self.nodes, makespan).min(1.0),
        }
    }

    /// Re-run every labelled scenario and rank by predicted speedup
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
