//! `stencil-whatif`: causal what-if profiling of a stencil run, validated
//! against actual simulator re-runs.
//!
//! [`insight::WhatIf`] replays the realized DAG of a traced run under
//! perturbed costs — faster kernels, a fatter or lower-latency fabric, a
//! slower message-injection rate — and predicts the end-to-end makespan
//! effect (the Coz "virtual speedup" idea). Predictions are only worth
//! ranking if the replay is honest, so this experiment closes the loop:
//! for a subset of scenarios it *actually re-runs the simulator* with the
//! equivalent cost change applied for real (a cost-scaled task class, a
//! scaled machine-profile network, a doubled per-message runtime cost)
//! and reports the prediction error. The committed `BENCH_whatif.json`
//! records both numbers per scenario; every validated error of the
//! current run must stay inside [`AGREEMENT_BAND`].

use analyze::AnalyzeConfig;
use ca_stencil::{build_base, kind_names, Problem, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR};
use insight::{Band, Baseline, Perturbation, Prediction, WhatIf};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{
    ClassId, FlowData, OutputDep, Params, Program, ReadRegion, RunConfig, TaskClass, TaskGraph,
    WriteRegion,
};
use std::collections::BTreeMap;
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
        let c = self.class();
        // Resolve the effective trace kind the way TaskGraph::kind_of
        // does: a class that leaves kind() at the MAX sentinel is tagged
        // by its class id.
        let k = c.kind(p);
        let k = if k == u32::MAX { self.id as u32 } else { k };
        let f = if k == self.kind { self.factor } else { 1.0 };
        c.cost(p) * f
    }
    fn kind(&self, p: Params) -> u32 {
        self.class().kind(p)
    }
    fn priority(&self, p: Params) -> i32 {
        self.class().priority(p)
    }
    fn write_region(&self, p: Params) -> Option<WriteRegion> {
        self.class().write_region(p)
    }
    fn read_region(&self, p: Params) -> Option<ReadRegion> {
        self.class().read_region(p)
    }
    fn delivered_region(&self, p: Params, flow: usize) -> Option<ReadRegion> {
        self.class().delivered_region(p, flow)
    }
    fn pinned_region(&self, p: Params) -> Option<ReadRegion> {
        self.class().pinned_region(p)
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

/// One scenario's prediction, joined (when validated) with the makespan an
/// actual simulator re-run produced under the equivalent real change.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Human-readable scenario label.
    pub label: String,
    /// Replay prediction under the perturbation.
    pub prediction: Prediction,
    /// Predicted speedup vs the baseline replay.
    pub speedup: f64,
    /// Makespan of the validating re-run, seconds (`None` for
    /// prediction-only scenarios).
    pub actual_s: Option<f64>,
}

impl ScenarioOutcome {
    /// Relative prediction error against the validating re-run.
    pub fn rel_err(&self) -> Option<f64> {
        self.actual_s
            .map(|a| (self.prediction.makespan_s - a).abs() / a)
    }
}

/// The full what-if experiment: traced run, baseline replay, ranked
/// scenarios with validation re-runs.
#[derive(Debug)]
pub struct WhatIfRun {
    /// The run parameters.
    pub config: WhatIfConfig,
    /// Makespan of the traced run the replay is anchored to, seconds.
    pub actual_makespan_s: f64,
    /// The unperturbed replay (model fidelity anchor).
    pub replay: Prediction,
    /// Scenarios ranked by predicted speedup, largest first.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl WhatIfRun {
    /// Relative error of the unperturbed replay against the traced run.
    pub fn replay_rel_err(&self) -> f64 {
        (self.replay.makespan_s - self.actual_makespan_s).abs() / self.actual_makespan_s
    }

    /// Assemble the committed baseline from this run: the traced and
    /// replayed makespans plus `<label>.predicted_s` for every scenario
    /// and `<label>.actual_s` for the validated ones.
    pub fn baseline(&self) -> Baseline {
        let mut b = Baseline::new(self.config.describe());
        b.scalars
            .insert("actual_makespan_s".into(), self.actual_makespan_s);
        b.scalars.insert("replay_s".into(), self.replay.makespan_s);
        for s in &self.scenarios {
            b.scalars
                .insert(format!("{}.predicted_s", s.label), s.prediction.makespan_s);
            if let Some(a) = s.actual_s {
                b.scalars.insert(format!("{}.actual_s", s.label), a);
            }
        }
        b
    }

    /// One line per validated scenario whose prediction misses its re-run
    /// by more than [`AGREEMENT_BAND`]; empty when the replay is honest.
    pub fn agreement_violations(&self) -> Vec<String> {
        self.scenarios
            .iter()
            .filter_map(|s| {
                let (actual, err) = s.actual_s.zip(s.rel_err())?;
                (err > AGREEMENT_BAND).then(|| {
                    format!(
                        "{}: prediction {:.6} vs re-run {:.6} — {:.2}% error exceeds the \
                         {:.0}% agreement band",
                        s.label,
                        s.prediction.makespan_s,
                        actual,
                        100.0 * err,
                        100.0 * AGREEMENT_BAND
                    )
                })
            })
            .collect()
    }
}

/// Maximum relative error a validated prediction may show against its
/// re-run, checked on the current run by `stencil-whatif --check`.
pub const AGREEMENT_BAND: f64 = 0.10;

/// The band every committed what-if scalar is checked to: the runs are
/// deterministic, so ±2 % only absorbs cost-model evolution small enough
/// to re-baseline consciously.
pub const BAND: Band = Band::Rel(0.02);

/// Run the experiment: trace the base scheme on the simulator, build the
/// replay context, rank the scenario portfolio, and validate the network,
/// injection, and kernel scenarios against actual re-runs.
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

    let sim = |program: &Program, profile: MachineProfile| {
        runtime::run(
            program,
            &RunConfig::simulated(profile, nodes)
                .with_trace()
                .with_kind_names(kind_names()),
        )
    };
    let report = sim(&program, profile.clone());
    let trace = report.trace.as_ref().expect("trace requested");
    let w = WhatIf::new(trace, &dag, &profile, nodes);
    let replay = w.baseline();

    let every_node_half_rate: Vec<Perturbation> = (0..nodes)
        .map(|node| Perturbation::Injection { node, factor: 0.5 })
        .collect();
    let portfolio: Vec<(String, Vec<Perturbation>)> = vec![
        (
            "boundary kernel 30% faster".into(),
            vec![Perturbation::TaskKind {
                kind: KIND_BOUNDARY,
                factor: 0.7,
            }],
        ),
        (
            "interior kernel 30% faster".into(),
            vec![Perturbation::TaskKind {
                kind: KIND_INTERIOR,
                factor: 0.7,
            }],
        ),
        (
            "network bandwidth 2x".into(),
            vec![Perturbation::Link {
                bandwidth: 2.0,
                latency: 1.0,
            }],
        ),
        (
            "network latency halved".into(),
            vec![Perturbation::Link {
                bandwidth: 1.0,
                latency: 0.5,
            }],
        ),
        ("comm injection half rate".into(), every_node_half_rate),
    ];
    let ranked = w.rank(&portfolio);

    // Validation re-runs: make each hypothetical change *real* and let
    // the simulator disagree if it can. Task costs are baked into the
    // classes at build time, so editing the profile's network fields
    // perturbs exactly what the replay's Link/Injection scenarios do.
    let mut actual: BTreeMap<String, f64> = BTreeMap::new();
    let scaled = scale_kind_cost(&program, KIND_BOUNDARY, 0.7);
    actual.insert(
        "boundary kernel 30% faster".into(),
        sim(&scaled, profile.clone()).makespan,
    );
    let mut fat = profile.clone();
    fat.net_eff_bw_bits *= 2.0;
    fat.net_peak_bw_bits *= 2.0;
    actual.insert("network bandwidth 2x".into(), sim(&program, fat).makespan);
    let mut low = profile.clone();
    low.net_latency *= 0.5;
    actual.insert("network latency halved".into(), sim(&program, low).makespan);
    let mut slow = profile.clone();
    slow.runtime_msg_cost *= 2.0;
    actual.insert(
        "comm injection half rate".into(),
        sim(&program, slow).makespan,
    );

    WhatIfRun {
        config: wc.clone(),
        actual_makespan_s: report.makespan,
        replay,
        scenarios: ranked
            .into_iter()
            .map(|r| ScenarioOutcome {
                actual_s: actual.get(&r.label).copied(),
                label: r.label,
                prediction: r.prediction,
                speedup: r.speedup,
            })
            .collect(),
    }
}

/// Print the ranked "what to optimize next" table with validation notes.
pub fn print(run: &WhatIfRun) {
    println!("stencil-whatif: {}", run.config.describe());
    println!(
        "traced makespan {:.6} s · baseline replay {:.6} s ({:+.2} % model error)",
        run.actual_makespan_s,
        run.replay.makespan_s,
        100.0 * (run.replay.makespan_s - run.actual_makespan_s) / run.actual_makespan_s
    );
    println!("\nwhat to optimize next (ranked by predicted end-to-end speedup):");
    println!("  scenario                        predicted s   speedup   occupancy   validated");
    for s in &run.scenarios {
        let validated = match (s.actual_s, s.rel_err()) {
            (Some(a), Some(e)) => format!("re-run {:.6} s ({:+.2} % err)", a, 100.0 * e),
            _ => "—".to_string(),
        };
        println!(
            "  {:<30} {:>12.6} {:>9.3} {:>11.3}   {}",
            s.label, s.prediction.makespan_s, s.speedup, s.prediction.occupancy, validated
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

    /// The acceptance gate, on a shrunken grid: every validated scenario's
    /// prediction lands within the agreement band of its actual re-run,
    /// and the unperturbed replay tracks the traced run.
    #[test]
    fn predictions_match_actual_reruns_within_band() {
        let r = run(&fast_config());
        assert!(
            r.replay_rel_err() < AGREEMENT_BAND,
            "baseline replay {:.6} vs traced {:.6}",
            r.replay.makespan_s,
            r.actual_makespan_s
        );
        let validated = r.scenarios.iter().filter(|s| s.actual_s.is_some());
        assert!(validated.count() >= 3, "too few validated scenarios");
        let violations = r.agreement_violations();
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Cost-scaling wrapper sanity: the rebuilt program re-runs to a
    /// strictly shorter makespan, and only the targeted kind changed
    /// (message and byte counters are identical).
    #[test]
    fn scaled_kind_rerun_shrinks_makespan_only() {
        let wc = fast_config();
        let profile = MachineProfile::nacl();
        let cfg = StencilConfig::new(
            Problem::laplace(wc.n),
            wc.tile,
            wc.iters,
            ProcessGrid::new(wc.grid, wc.grid),
        )
        .with_ratio(wc.ratio)
        .with_profile(profile.clone());
        let program = build_base(&cfg, false).program;
        let rc = RunConfig::simulated(profile, wc.grid * wc.grid);
        let before = runtime::run(&program, &rc);
        let after = runtime::run(&scale_kind_cost(&program, KIND_BOUNDARY, 0.7), &rc);
        assert!(after.makespan < before.makespan);
        assert_eq!(after.remote_bytes(), before.remote_bytes());
    }

    #[test]
    fn baseline_round_trips_and_flags_band_violations() {
        let outcome = |label: &str, predicted_s: f64, actual_s: Option<f64>| ScenarioOutcome {
            label: label.into(),
            prediction: Prediction {
                makespan_s: predicted_s,
                occupancy: 0.5,
            },
            speedup: 1.0,
            actual_s,
        };
        let mut r = WhatIfRun {
            config: fast_config(),
            actual_makespan_s: 1.0,
            replay: Prediction {
                makespan_s: 1.01,
                occupancy: 0.5,
            },
            scenarios: vec![
                outcome("faster", 0.9, Some(0.92)),
                outcome("unvalidated", 0.95, None),
            ],
        };
        let b = r.baseline();
        assert_eq!(b.scalars.len(), 5, "{b:?}");
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert!(parsed.compare(&b, |_| BAND).is_empty());
        assert!(r.agreement_violations().is_empty());

        // A scalar pushed 10 % fails the ±2 % band.
        let mut drifted = b.clone();
        *drifted.scalars.get_mut("replay_s").unwrap() *= 1.10;
        let violations = parsed.compare(&drifted, |_| BAND);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("replay_s"), "{violations:?}");

        // A validated scenario cannot silently lose its re-run.
        r.scenarios[0].actual_s = None;
        let violations = parsed.compare(&r.baseline(), |_| BAND);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("faster.actual_s"),
            "{violations:?}"
        );

        // A prediction outside the agreement band of its re-run.
        r.scenarios[0].actual_s = Some(0.9 / 1.2);
        let violations = r.agreement_violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("agreement band"), "{violations:?}");
    }
}
