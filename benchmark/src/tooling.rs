//! The tooling workload: what `stencil-lint` and `stencil-doctor` do to
//! one CA program — prove it clean (races and steady-state dataflow
//! included), check the traced run's comm matrix against the static one,
//! diagnose the trace, rank the what-if portfolio, and catch the
//! shrunken-halo mutant.

use crate::golden::Golden;
use crate::metrics::Metrics;
use crate::sim::SimSpec;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{obs_layer, Phases, Workload};
use analyze::{Analysis, AnalyzeConfig, DataflowMode, Diagnostic};
use ca_stencil::{
    build_ca, build_ca_shrunk, kind_names, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR,
};
use insight::{Perturbation, RankedScenario, RunDiagnosis, WhatIf};
use machine::MachineProfile;
use runtime::{Program, RunConfig, RunReport};
use std::time::Instant;

pub struct Tooling {
    spec: SimSpec,
    profile: MachineProfile,
}

/// The program under analysis and the traced simulated run of it.
pub struct Traced {
    cfg: StencilConfig,
    program: Program,
    report: RunReport,
}

pub struct Findings {
    analysis: Analysis,
    comm_matrix: Result<(), String>,
    diagnosis: RunDiagnosis,
    ranked: Vec<RankedScenario>,
    mutant: Analysis,
}

impl Tooling {
    pub fn new(spec: SimSpec) -> Self {
        Tooling {
            spec,
            profile: MachineProfile::nacl(),
        }
    }

    fn nodes(&self) -> u32 {
        self.spec.grid * self.spec.grid
    }

    fn lanes(&self) -> u32 {
        self.profile.compute_threads()
    }

    fn config(&self) -> StencilConfig {
        self.spec.config(&self.profile)
    }

    /// The five scenarios of `BENCH_whatif.json`.
    fn portfolio(&self) -> Vec<(String, Vec<Perturbation>)> {
        let kernel = |kind| vec![Perturbation::TaskKind { kind, factor: 0.7 }];
        let link = |bandwidth, latency| vec![Perturbation::Link { bandwidth, latency }];
        vec![
            ("boundary kernel 30% faster".into(), kernel(KIND_BOUNDARY)),
            ("interior kernel 30% faster".into(), kernel(KIND_INTERIOR)),
            ("network bandwidth 2x".into(), link(2.0, 1.0)),
            ("network latency halved".into(), link(1.0, 0.5)),
            (
                "comm injection half rate".into(),
                (0..self.nodes())
                    .map(|node| Perturbation::Injection { node, factor: 0.5 })
                    .collect(),
            ),
        ]
    }
}

impl Workload for Tooling {
    type Ready = Traced;
    type Output = Findings;

    fn tasks(&self) -> u64 {
        let cfg = self.config();
        cfg.geometry().num_tiles() as u64 * (u64::from(cfg.iterations) + 1)
    }

    fn nominal_flops(&self) -> f64 {
        self.config().nominal_flops()
    }

    fn setup(&self, rec: &mut Recorder, _traced: bool) -> Traced {
        let cfg = self.config();
        let program = rec.span("core.build", |_| build_ca(&cfg, false).program);
        let run_cfg = RunConfig::simulated(self.profile.clone(), self.nodes())
            .with_trace()
            .with_kind_names(kind_names());
        let report = rec.span("runtime.sim_traced", |_| runtime::run(&program, &run_cfg));
        Traced {
            cfg,
            program,
            report,
        }
    }

    fn run(&self, ready: &Traced, rec: &mut Recorder, _traced: bool) -> Findings {
        let lint = AnalyzeConfig::new()
            .with_lanes(self.lanes())
            .with_dataflow(DataflowMode::SteadyState);
        let trace = ready.report.trace.as_ref().expect("set-up traced the run");
        let dag = rec.span("analyze.unfold", |_| analyze::unfold(&ready.program, &lint));
        let analysis = rec.span("analyze.dag", |_| analyze::analyze_dag(&dag, &lint));
        let comm_matrix = rec.span("analyze.comm_matrix", |_| {
            analyze::verify_comm_matrix(&analyze::peer_matrix(&dag), &trace.comm_matrix())
        });
        let diagnosis = rec.span("insight.diagnose", |_| {
            insight::diagnose(trace, &dag, self.lanes())
        });
        let ranked = rec.span("insight.whatif", |_| {
            WhatIf::new(trace, &dag, &self.profile, self.nodes()).rank(&self.portfolio())
        });
        // The mutant only mis-declares a delivered region, so the dataflow
        // pass alone must catch it; the race pass adds nothing here.
        let mutant = rec.span("analyze.mutant", |_| {
            let broken = build_ca_shrunk(&ready.cfg).program;
            analyze::analyze_program(&broken, &lint.clone().without_races())
        });
        Findings {
            analysis,
            comm_matrix,
            diagnosis,
            ranked,
            mutant,
        }
    }

    fn verify(&self, ready: &Traced, out: &Findings, golden: &mut Golden) -> Result<(), String> {
        let a = &out.analysis;
        if !a.is_clean() {
            return Err(format!("correct program not clean: {}", a.report()));
        }
        out.comm_matrix.clone()?;
        if a.dataflow.is_none() {
            return Err("dataflow pass did not run".into());
        }
        if out.mutant.is_clean()
            || !out
                .mutant
                .diagnostics
                .iter()
                .any(|d| matches!(d, Diagnostic::UncoveredRead { .. }))
        {
            return Err("shrunken-halo mutant was not caught as an uncovered read".into());
        }
        let tasks = ready.report.tasks_executed;
        if a.tasks as u64 != tasks || out.diagnosis.joined_spans as u64 != tasks {
            return Err(format!(
                "{tasks} tasks ran, {} analysed, {} spans joined",
                a.tasks, out.diagnosis.joined_spans
            ));
        }
        if out.ranked.len() != self.portfolio().len() {
            return Err("what-if ranking lost a scenario".into());
        }
        golden.check("tasks", a.tasks as f64)?;
        golden.check("edges", a.edges as f64)?;
        golden.check("msgs", a.comm.cross_messages as f64)?;
        golden.check("bytes", a.comm.cross_bytes as f64)?;
        golden.check("redundant_flops", a.flops.redundant as f64)?;
        golden.check("sim_makespan_s", ready.report.makespan)?;
        golden.check(
            "whatif_best_makespan_s",
            out.ranked[0].prediction.makespan_s,
        )?;
        golden.check("mutant_diagnostics", out.mutant.diagnostics.len() as f64)
    }

    fn layers(&self, _last: &Findings, phases: &Phases, rec: &Recorder, m: &mut Metrics) {
        let span_s = |name| median(&rec.durations_s(name));
        m.set("core.build.s", span_s("core.build"));
        m.set("analyze.unfold_s", span_s("analyze.unfold"));
        m.set("analyze.comm_matrix_s", span_s("analyze.comm_matrix"));
        m.set("analyze.mutant_s", span_s("analyze.mutant"));
        m.set("insight.diagnose_s", span_s("insight.diagnose"));
        m.set("insight.whatif_rank_s", span_s("insight.whatif"));

        // Split the analyzer's time by pass: structural alone, then
        // structural + dataflow; the race pass is what remains of the full
        // analysis.
        let ready = self.setup(&mut Recorder::new(false), false);
        let base = AnalyzeConfig::new()
            .with_lanes(self.lanes())
            .without_races();
        let dag = analyze::unfold(&ready.program, &base);
        let time = |cfg: &AnalyzeConfig| {
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let clock = Instant::now();
                    std::hint::black_box(analyze::analyze_dag(&dag, cfg));
                    clock.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let structural_s = time(&base);
        let dataflow_s =
            time(&base.clone().with_dataflow(DataflowMode::SteadyState)) - structural_s;
        let races_s = span_s("analyze.dag") - structural_s - dataflow_s;
        m.set("analyze.structural_s", structural_s);
        m.set("analyze.dataflow_s", dataflow_s);
        m.set("analyze.races_s", races_s);
        m.set("analyze.races_share", races_s / phases.traced_run_s);
        m.set(
            "analyze.tasks_per_s",
            self.tasks() as f64 / (span_s("analyze.unfold") + span_s("analyze.dag")),
        );
        m.set("runtime.sim_exec.ca_makespan_sim_s", ready.report.makespan);
        obs_layer(&ready.report, m);
    }
}
