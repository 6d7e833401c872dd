//! `stencil-whatif`: causal what-if profiling of a stencil run, held to
//! the simulator to the nanosecond.
//!
//! [`insight::WhatIf`] replays the realized DAG of a traced run under
//! perturbed costs — faster kernels, a fatter or lower-latency fabric, a
//! slower message-injection rate — and predicts the end-to-end makespan
//! effect (the Coz "virtual speedup" idea). The replay is
//! [`runtime::DagSim`]: the simulator's own cluster model, fed the
//! unfolded DAG with realized durations instead of the program, so it
//! *is* the simulator, minus the telemetry and payload machinery. This
//! experiment holds it to that. It re-runs the simulator once per
//! scenario with the change made real ([`realize`]: a cost-scaled task
//! class, a scaled machine-profile network, a scaled per-message runtime
//! cost), and [`WhatIfRun::disagreements`] lists every prediction whose
//! integer-nanosecond makespan differs from its re-run's, and the
//! baseline replay if it differs from the traced run. The committed
//! `BENCH_whatif.json` records one makespan per run.

use analyze::AnalyzeConfig;
use ca_stencil::{build_base, kind_names, Problem, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR};
use insight::{Band, Baseline, Perturbation, Prediction, WhatIf};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{
    ClassId, FlowData, Footprint, OutputDep, Params, Program, RunConfig, TaskClass, TaskGraph,
    TaskKey,
};
use std::sync::Arc;

/// The what-if experiment's run parameters.
#[derive(Debug, Clone)]
pub struct WhatIfConfig {
    /// Grid edge length.
    pub n: usize,
    /// Tile edge length.
    pub tile: usize,
    /// Jacobi iterations.
    pub iters: u32,
    /// Process grid edge (`grid × grid` nodes).
    pub grid: u32,
    /// Kernel adjustment ratio (Figures 8–10 use 0.4).
    pub ratio: f64,
}

impl Default for WhatIfConfig {
    /// The committed-baseline configuration: the base scheme on a 2×2
    /// node grid, small enough that the five simulator re-runs finish in
    /// seconds, comm-heavy enough that network scenarios move the
    /// makespan. Deterministic (simulated executor), so exactly
    /// reproducible.
    fn default() -> Self {
        WhatIfConfig {
            n: 2304,
            tile: 288,
            iters: 8,
            grid: 2,
            ratio: 0.4,
        }
    }
}

impl WhatIfConfig {
    /// The config-identity string stored in the baseline file.
    pub fn describe(&self) -> String {
        format!(
            "base n={} tile={} iters={} grid={}x{} ratio={} profile=NaCL",
            self.n, self.tile, self.iters, self.grid, self.grid, self.ratio
        )
    }
}

/// A task class that delegates to an existing registered class but scales
/// [`TaskClass::cost`] by `factor` for tasks of one trace kind — how the
/// validation harness makes "the boundary kernel is 30 % faster" *true*
/// in a re-run rather than hypothesized in a replay.
struct ScaledKind {
    inner: Arc<TaskGraph>,
    id: ClassId,
    kind: u32,
    factor: f64,
}

impl ScaledKind {
    fn class(&self) -> &dyn TaskClass {
        self.inner.class(self.id)
    }
}

impl TaskClass for ScaledKind {
    fn name(&self) -> &str {
        self.class().name()
    }
    fn param_box(&self) -> [u32; 4] {
        self.class().param_box()
    }
    fn node_of(&self, p: Params) -> netsim::NodeId {
        self.class().node_of(p)
    }
    fn home(&self, p: Params, lanes: usize) -> Option<usize> {
        self.class().home(p, lanes)
    }
    fn activation_count(&self, p: Params) -> usize {
        self.class().activation_count(p)
    }
    fn num_input_slots(&self, p: Params) -> usize {
        self.class().num_input_slots(p)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        self.class().num_output_flows(p)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        self.class().outputs(p, out)
    }
    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        self.class().execute(p, inputs, out)
    }
    fn cost(&self, p: Params) -> f64 {
        let k = self.inner.kind_of(TaskKey::new(self.id, p));
        let f = if k == self.kind { self.factor } else { 1.0 };
        self.class().cost(p) * f
    }
    fn kind(&self, p: Params) -> u32 {
        self.class().kind(p)
    }
    fn priority(&self, p: Params) -> i32 {
        self.class().priority(p)
    }
    fn footprint(&self, p: Params, fp: &mut Footprint) {
        self.class().footprint(p, fp)
    }
    fn flops(&self, p: Params) -> f64 {
        self.class().flops(p)
    }
    fn redundant_flops(&self, p: Params) -> u64 {
        self.class().redundant_flops(p)
    }
}

/// Rebuild `program` with every class wrapped so tasks of trace `kind`
/// cost `factor ×` their original service time. Class ids, roots, and the
/// task count are preserved, so the same unfolded DAG describes both.
pub fn scale_kind_cost(program: &Program, kind: u32, factor: f64) -> Program {
    let mut graph = TaskGraph::new();
    for id in 0..program.graph.num_classes() {
        graph.add_class(Arc::new(ScaledKind {
            inner: Arc::clone(&program.graph),
            id: id as ClassId,
            kind,
            factor,
        }));
    }
    Program {
        graph: Arc::new(graph),
        roots: program.roots.clone(),
        total_tasks: program.total_tasks,
    }
}

/// One scenario's prediction joined with the makespan of the simulator
/// re-run that makes the change real.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Human-readable scenario label.
    pub label: String,
    /// Replay prediction under the perturbation.
    pub prediction: Prediction,
    /// Predicted speedup vs the baseline replay.
    pub speedup: f64,
    /// Makespan of the re-run, seconds.
    pub rerun_s: f64,
}

/// The full what-if experiment: traced run, baseline replay, ranked
/// scenarios with their re-runs.
#[derive(Debug)]
pub struct WhatIfRun {
    /// The run parameters.
    pub config: WhatIfConfig,
    /// Makespan of the traced run the replay is anchored to, seconds.
    pub makespan_s: f64,
    /// The unperturbed replay of the traced run.
    pub replay: Prediction,
    /// Scenarios ranked by predicted speedup, largest first.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// A makespan in whole nanoseconds, the simulator's clock unit.
fn ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

impl WhatIfRun {
    /// Assemble the committed baseline from this run: the traced
    /// makespan plus `<label>.makespan_s` for every scenario's re-run.
    pub fn baseline(&self) -> Baseline {
        let mut b = Baseline::new(self.config.describe());
        b.scalars.insert("makespan_s".into(), self.makespan_s);
        for s in &self.scenarios {
            b.scalars
                .insert(format!("{}.makespan_s", s.label), s.rerun_s);
        }
        b
    }

    /// One line per replay whose makespan differs from its simulator run
    /// in integer nanoseconds: the baseline replay against the traced
    /// run, each prediction against its re-run. Empty when the replay and
    /// the simulator agree exactly.
    pub fn disagreements(&self) -> Vec<String> {
        let baseline = ("baseline replay", self.replay.makespan_s, self.makespan_s);
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| (s.label.as_str(), s.prediction.makespan_s, s.rerun_s));
        std::iter::once(baseline)
            .chain(scenarios)
            .filter(|&(_, predicted, simulated)| ns(predicted) != ns(simulated))
            .map(|(label, predicted, simulated)| {
                format!(
                    "{label}: replay {} ns differs from the simulator's {} ns",
                    ns(predicted),
                    ns(simulated)
                )
            })
            .collect()
    }
}

/// The band every committed what-if scalar is checked to: the runs are
/// deterministic, so ±2 % only absorbs cost-model evolution small enough
/// to re-baseline consciously.
pub const BAND: Band = Band::Rel(0.02);

/// Make `perturbations` real: the program and profile whose simulator run
/// tests the replay's prediction. Task kinds are scaled in the classes
/// (their costs are baked in at build time); link and injection changes
/// go into the profile. Panics on an injection change that does not
/// scale every one of `nodes` alike: the profile has one
/// `runtime_msg_cost`.
pub fn realize(
    program: &Program,
    profile: &MachineProfile,
    nodes: u32,
    perturbations: &[Perturbation],
) -> (Program, MachineProfile) {
    let mut program = Program {
        graph: Arc::clone(&program.graph),
        roots: program.roots.clone(),
        total_tasks: program.total_tasks,
    };
    let mut profile = profile.clone();
    let mut injection = vec![1.0f64; nodes as usize];
    for p in perturbations {
        match *p {
            Perturbation::TaskKind { kind, factor } => {
                program = scale_kind_cost(&program, kind, factor);
            }
            Perturbation::Link { bandwidth, latency } => {
                profile.net_eff_bw_bits *= bandwidth;
                profile.net_peak_bw_bits *= bandwidth;
                profile.net_latency *= latency;
            }
            Perturbation::Injection { node, factor } => injection[node as usize] *= factor,
        }
    }
    let rate = injection[0];
    assert!(
        injection.iter().all(|&f| f == rate),
        "a re-run can only scale every node's injection rate alike"
    );
    profile.runtime_msg_cost /= rate;
    (program, profile)
}

/// Run the experiment: trace the base scheme on the simulator, build the
/// replay context, rank the scenario portfolio, and re-run the simulator
/// once per scenario with the change made real.
pub fn run(wc: &WhatIfConfig) -> WhatIfRun {
    let profile = MachineProfile::nacl();
    let nodes = wc.grid * wc.grid;
    let cfg = StencilConfig::new(
        Problem::laplace(wc.n),
        wc.tile,
        wc.iters,
        ProcessGrid::new(wc.grid, wc.grid),
    )
    .with_ratio(wc.ratio)
    .with_profile(profile.clone());
    let program = build_base(&cfg, false).program;
    let dag = analyze::unfold(&program, &AnalyzeConfig::new());

    let report = runtime::run(
        &program,
        &RunConfig::simulated(profile.clone(), nodes)
            .with_trace()
            .with_kind_names(kind_names()),
    );
    let trace = report.trace.as_ref().expect("trace requested");
    let w = WhatIf::new(trace, &dag, &profile, nodes);
    let replay = w.baseline();

    let kernel = |kind| vec![Perturbation::TaskKind { kind, factor: 0.7 }];
    let link = |bandwidth, latency| vec![Perturbation::Link { bandwidth, latency }];
    let every_node_half_rate: Vec<Perturbation> = (0..nodes)
        .map(|node| Perturbation::Injection { node, factor: 0.5 })
        .collect();
    let portfolio: Vec<(String, Vec<Perturbation>)> = vec![
        ("boundary kernel 30% faster".into(), kernel(KIND_BOUNDARY)),
        ("interior kernel 30% faster".into(), kernel(KIND_INTERIOR)),
        ("network bandwidth 2x".into(), link(2.0, 1.0)),
        ("network latency halved".into(), link(1.0, 0.5)),
        ("comm injection half rate".into(), every_node_half_rate),
    ];

    WhatIfRun {
        config: wc.clone(),
        makespan_s: report.makespan,
        replay,
        scenarios: w
            .rank(&portfolio)
            .into_iter()
            .map(|r| {
                let (program, profile) = realize(&program, &profile, nodes, &r.perturbations);
                let rerun = runtime::run(&program, &RunConfig::simulated(profile, nodes));
                ScenarioOutcome {
                    label: r.label,
                    prediction: r.prediction,
                    speedup: r.speedup,
                    rerun_s: rerun.makespan,
                }
            })
            .collect(),
    }
}

/// Print the ranked "what to optimize next" table beside each re-run.
pub fn print(run: &WhatIfRun) {
    println!("stencil-whatif: {}", run.config.describe());
    println!(
        "traced makespan {} ns · baseline replay {} ns",
        ns(run.makespan_s),
        ns(run.replay.makespan_s)
    );
    println!("\nwhat to optimize next (ranked by predicted end-to-end speedup):");
    println!("  scenario                       predicted ns   re-run ns   speedup   occupancy");
    for s in &run.scenarios {
        println!(
            "  {:<30} {:>12} {:>11} {:>9.3} {:>11.3}",
            s.label,
            ns(s.prediction.makespan_s),
            ns(s.rerun_s),
            s.speedup,
            s.prediction.occupancy
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> WhatIfConfig {
        WhatIfConfig {
            n: 1152,
            tile: 288,
            iters: 4,
            grid: 2,
            ratio: 0.4,
        }
    }

    fn fast_program() -> Program {
        let wc = fast_config();
        let cfg = StencilConfig::new(
            Problem::laplace(wc.n),
            wc.tile,
            wc.iters,
            ProcessGrid::new(wc.grid, wc.grid),
        )
        .with_ratio(wc.ratio)
        .with_profile(MachineProfile::nacl());
        build_base(&cfg, false).program
    }

    /// The acceptance gate, on a shrunken grid: the baseline replay
    /// equals the traced run, and every scenario's prediction equals its
    /// re-run, in integer nanoseconds.
    #[test]
    fn predictions_equal_reruns_to_the_nanosecond() {
        let r = run(&fast_config());
        assert_eq!(r.scenarios.len(), 5);
        assert_eq!(ns(r.replay.makespan_s), ns(r.makespan_s));
        for s in &r.scenarios {
            assert_eq!(ns(s.prediction.makespan_s), ns(s.rerun_s), "{}", s.label);
        }
        assert!(r.disagreements().is_empty(), "{:?}", r.disagreements());
    }

    /// Cost-scaling wrapper sanity: the rebuilt program re-runs to a
    /// strictly shorter makespan, and only the targeted kind changed
    /// (message and byte counters are identical).
    #[test]
    fn scaled_kind_rerun_shrinks_makespan_only() {
        let program = fast_program();
        let rc = RunConfig::simulated(MachineProfile::nacl(), 4);
        let before = runtime::run(&program, &rc);
        let after = runtime::run(&scale_kind_cost(&program, KIND_BOUNDARY, 0.7), &rc);
        assert!(after.makespan < before.makespan);
        assert_eq!(after.remote_bytes(), before.remote_bytes());
    }

    #[test]
    fn baseline_round_trips_and_flags_band_violations() {
        let outcome = |label: &str, predicted_s: f64, rerun_s: f64| ScenarioOutcome {
            label: label.into(),
            prediction: Prediction {
                makespan_s: predicted_s,
                occupancy: 0.5,
            },
            speedup: 1.0,
            rerun_s,
        };
        let mut r = WhatIfRun {
            config: fast_config(),
            makespan_s: 1.0,
            replay: Prediction {
                makespan_s: 1.0,
                occupancy: 0.5,
            },
            scenarios: vec![outcome("faster", 0.9, 0.9), outcome("same", 1.0, 1.0)],
        };
        let b = r.baseline();
        assert_eq!(b.scalars.len(), 3, "{b:?}");
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert!(parsed.compare(&b, |_| BAND).is_empty());
        assert!(r.disagreements().is_empty());

        // A scalar pushed 10 % fails the ±2 % band.
        let mut drifted = b.clone();
        *drifted.scalars.get_mut("faster.makespan_s").unwrap() *= 1.10;
        let violations = parsed.compare(&drifted, |_| BAND);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("faster.makespan_s"),
            "{violations:?}"
        );

        // A scenario cannot silently drop out of the file.
        r.scenarios.pop();
        let violations = parsed.compare(&r.baseline(), |_| BAND);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("same.makespan_s"),
            "{violations:?}"
        );

        // One nanosecond between a prediction and its re-run, or between
        // the baseline replay and the traced run, is a disagreement.
        r.scenarios[0].rerun_s = 0.9 + 1e-9;
        r.replay.makespan_s = 1.0 - 1e-9;
        let lines = r.disagreements();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("baseline replay"), "{lines:?}");
        assert!(lines[1].starts_with("faster"), "{lines:?}");
    }

    /// A re-run makes link and injection changes real in the profile.
    #[test]
    fn realize_scales_the_profile() {
        let profile = MachineProfile::nacl();
        let changes: Vec<Perturbation> = (0..4)
            .map(|node| Perturbation::Injection { node, factor: 0.5 })
            .chain([Perturbation::Link {
                bandwidth: 2.0,
                latency: 0.5,
            }])
            .collect();
        let (_, p) = realize(&fast_program(), &profile, 4, &changes);
        assert_eq!(p.runtime_msg_cost, 2.0 * profile.runtime_msg_cost);
        assert_eq!(p.net_eff_bw_bits, 2.0 * profile.net_eff_bw_bits);
        assert_eq!(p.net_latency, 0.5 * profile.net_latency);
    }

    /// The profile has one per-message cost, so a re-run cannot slow one
    /// node's comm thread alone.
    #[test]
    #[should_panic(expected = "every node's injection rate alike")]
    fn realize_rejects_a_one_node_injection_change() {
        let one_node = [Perturbation::Injection {
            node: 1,
            factor: 0.5,
        }];
        realize(&fast_program(), &MachineProfile::nacl(), 4, &one_node);
    }
}
