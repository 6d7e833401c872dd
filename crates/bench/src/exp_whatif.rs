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
//! records both numbers per scenario and the agreement band the errors
//! must stay inside.

use analyze::AnalyzeConfig;
use ca_stencil::{build_base, kind_names, Problem, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR};
use insight::{Perturbation, Prediction, WhatIf};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{
    ClassId, FlowData, OutputDep, Params, Program, ReadRegion, RunConfig, TaskClass, TaskGraph,
    WriteRegion,
};
use serde::{Number, Value};
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
    fn output_bytes(&self, p: Params, flow: usize) -> usize {
        self.class().output_bytes(p, flow)
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

    /// Assemble the committed baseline from this run.
    pub fn baseline(&self) -> WhatIfBaseline {
        WhatIfBaseline {
            config: self.config.describe(),
            agreement_band: AGREEMENT_BAND,
            actual_makespan_s: self.actual_makespan_s,
            replay_s: self.replay.makespan_s,
            scenarios: self
                .scenarios
                .iter()
                .map(|s| {
                    (
                        s.label.clone(),
                        ScenarioBaseline {
                            predicted_s: s.prediction.makespan_s,
                            actual_s: s.actual_s,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Maximum relative error a validated prediction may show against its
/// re-run — the committed agreement band of `BENCH_whatif.json`.
pub const AGREEMENT_BAND: f64 = 0.10;

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

/// One scenario's committed numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBaseline {
    /// Replay-predicted makespan, seconds.
    pub predicted_s: f64,
    /// Validating re-run makespan, seconds (absent for prediction-only
    /// scenarios).
    pub actual_s: Option<f64>,
}

/// The committed `BENCH_whatif.json` contents.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfBaseline {
    /// Config-identity string; compared verbatim.
    pub config: String,
    /// Maximum allowed relative error between a validated prediction and
    /// its re-run.
    pub agreement_band: f64,
    /// Traced-run makespan, seconds.
    pub actual_makespan_s: f64,
    /// Unperturbed-replay makespan, seconds.
    pub replay_s: f64,
    /// Scenario label → committed numbers.
    pub scenarios: BTreeMap<String, ScenarioBaseline>,
}

fn num(v: f64) -> Value {
    Value::Num(Number::F(v))
}

impl WhatIfBaseline {
    /// Serialize to the committed pretty-printed JSON format.
    pub fn to_json(&self) -> String {
        let scenarios = self
            .scenarios
            .iter()
            .map(|(label, s)| {
                let mut fields = vec![("predicted_s".to_string(), num(s.predicted_s))];
                if let Some(a) = s.actual_s {
                    fields.push(("actual_s".into(), num(a)));
                }
                (label.clone(), Value::Object(fields))
            })
            .collect();
        let v = Value::Object(vec![
            ("config".into(), Value::Str(self.config.clone())),
            ("agreement_band".into(), num(self.agreement_band)),
            ("actual_makespan_s".into(), num(self.actual_makespan_s)),
            ("replay_s".into(), num(self.replay_s)),
            ("scenarios".into(), Value::Object(scenarios)),
        ]);
        let mut text = serde_json::to_string_pretty(&v).expect("baseline serialization");
        text.push('\n');
        text
    }

    /// Parse the committed JSON format back.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("whatif baseline: {e}"))?;
        let f = |name: &str| {
            v.field(name)
                .as_f64()
                .ok_or_else(|| format!("baseline field {name} missing or not a number"))
        };
        let config = v
            .field("config")
            .as_str()
            .ok_or("baseline missing config string")?
            .to_string();
        let Value::Object(pairs) = v.field("scenarios") else {
            return Err("baseline missing scenarios object".into());
        };
        let mut scenarios = BTreeMap::new();
        for (label, sv) in pairs {
            let predicted_s = sv
                .field("predicted_s")
                .as_f64()
                .ok_or_else(|| format!("scenario {label}: predicted_s missing"))?;
            scenarios.insert(
                label.clone(),
                ScenarioBaseline {
                    predicted_s,
                    actual_s: sv.field("actual_s").as_f64(),
                },
            );
        }
        Ok(WhatIfBaseline {
            config,
            agreement_band: f("agreement_band")?,
            actual_makespan_s: f("actual_makespan_s")?,
            replay_s: f("replay_s")?,
            scenarios,
        })
    }

    /// Diff `current` against this committed baseline. Returns one line
    /// per violation: scalar drift beyond `rel_band` (the runs are
    /// deterministic, so the band only absorbs cost-model evolution small
    /// enough to re-baseline consciously), scenario-set changes, and —
    /// the point of the file — any validated prediction whose error
    /// against its re-run exceeds the committed agreement band.
    pub fn compare(&self, current: &WhatIfBaseline, rel_band: f64) -> Vec<String> {
        let mut bad = Vec::new();
        if self.config != current.config {
            bad.push(format!(
                "config mismatch: baseline \"{}\" vs current \"{}\"",
                self.config, current.config
            ));
            return bad;
        }
        let rel = |bad: &mut Vec<String>, name: &str, b: f64, c: f64| {
            if (c - b).abs() > rel_band * b.abs().max(f64::MIN_POSITIVE) {
                bad.push(format!(
                    "{name}: {c:.6} deviates from baseline {b:.6} by more than {:.1}%",
                    rel_band * 100.0
                ));
            }
        };
        rel(
            &mut bad,
            "actual_makespan_s",
            self.actual_makespan_s,
            current.actual_makespan_s,
        );
        rel(&mut bad, "replay_s", self.replay_s, current.replay_s);
        for (label, b) in &self.scenarios {
            let Some(c) = current.scenarios.get(label) else {
                bad.push(format!("scenario \"{label}\" missing from current run"));
                continue;
            };
            rel(
                &mut bad,
                &format!("{label}.predicted_s"),
                b.predicted_s,
                c.predicted_s,
            );
            match (b.actual_s, c.actual_s) {
                (Some(ba), Some(ca)) => {
                    rel(&mut bad, &format!("{label}.actual_s"), ba, ca);
                    let err = (c.predicted_s - ca).abs() / ca;
                    if err > self.agreement_band {
                        bad.push(format!(
                            "{label}: prediction {:.6} vs re-run {:.6} — {:.2}% error exceeds \
                             the {:.0}% agreement band",
                            c.predicted_s,
                            ca,
                            100.0 * err,
                            100.0 * self.agreement_band
                        ));
                    }
                }
                (Some(_), None) => {
                    bad.push(format!("scenario \"{label}\" lost its validation re-run"));
                }
                (None, _) => {}
            }
        }
        for label in current.scenarios.keys() {
            if !self.scenarios.contains_key(label) {
                bad.push(format!("scenario \"{label}\" absent from baseline"));
            }
        }
        bad
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
        let validated: Vec<_> = r
            .scenarios
            .iter()
            .filter(|s| s.actual_s.is_some())
            .collect();
        assert!(validated.len() >= 3, "only {} validated", validated.len());
        for s in validated {
            let err = s.rel_err().expect("validated");
            assert!(
                err < AGREEMENT_BAND,
                "{}: predicted {:.6} vs re-run {:.6} ({:.2} % error)",
                s.label,
                s.prediction.makespan_s,
                s.actual_s.unwrap(),
                100.0 * err
            );
        }
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
        let mut scenarios = BTreeMap::new();
        scenarios.insert(
            "faster".to_string(),
            ScenarioBaseline {
                predicted_s: 0.9,
                actual_s: Some(0.92),
            },
        );
        scenarios.insert(
            "unvalidated".to_string(),
            ScenarioBaseline {
                predicted_s: 0.95,
                actual_s: None,
            },
        );
        let b = WhatIfBaseline {
            config: "test".into(),
            agreement_band: 0.10,
            actual_makespan_s: 1.0,
            replay_s: 1.01,
            scenarios,
        };
        let parsed = WhatIfBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert!(parsed.compare(&b, 0.02).is_empty());

        // Prediction drifts outside the agreement band of its re-run.
        let mut bad = b.clone();
        bad.scenarios.get_mut("faster").unwrap().predicted_s = 0.92 * 1.2;
        let violations = parsed.compare(&bad, 0.5);
        assert!(
            violations.iter().any(|v| v.contains("agreement band")),
            "{violations:?}"
        );
        // A validated scenario cannot silently lose its re-run.
        let mut lost = b.clone();
        lost.scenarios.get_mut("faster").unwrap().actual_s = None;
        assert!(!parsed.compare(&lost, 0.5).is_empty());
    }
}
