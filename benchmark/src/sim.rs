//! The simulated-cluster workload: what a figure binary does — build both
//! schemes, unfold them for the static columns, simulate base then CA —
//! with no kernel and no real message anywhere.

use crate::golden::Golden;
use crate::metrics::Metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{obs_layer, Phases, Workload};
use analyze::AnalyzeConfig;
use ca_stencil::{build_base, build_ca, kind_names, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::names;
use runtime::{Program, RunConfig, RunReport, UnfoldedDag};

#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub n: usize,
    pub tile: usize,
    pub iters: u32,
    /// Edge of the square node grid.
    pub grid: u32,
    pub steps: usize,
    /// The paper's kernel adjustment ratio.
    pub ratio: f64,
}

impl SimSpec {
    pub fn config(&self, profile: &MachineProfile) -> StencilConfig {
        StencilConfig::new(
            Problem::laplace(self.n),
            self.tile,
            self.iters,
            ProcessGrid::new(self.grid, self.grid),
        )
        .with_steps(self.steps)
        .with_ratio(self.ratio)
        .with_profile(profile.clone())
    }
}

pub struct Sim {
    spec: SimSpec,
    profile: MachineProfile,
}

/// One scheme, built and unfolded.
pub struct Scheme {
    name: &'static str,
    program: Program,
    dag: UnfoldedDag,
}

impl Sim {
    pub fn new(spec: SimSpec) -> Self {
        Sim {
            spec,
            profile: MachineProfile::nacl(),
        }
    }

    fn config(&self) -> StencilConfig {
        self.spec.config(&self.profile)
    }
}

impl Workload for Sim {
    type Ready = [Scheme; 2];
    type Output = [RunReport; 2];

    fn tasks(&self) -> u64 {
        let cfg = self.config();
        2 * cfg.geometry().num_tiles() as u64 * (u64::from(cfg.iterations) + 1)
    }

    fn nominal_flops(&self) -> f64 {
        2.0 * self.config().nominal_flops()
    }

    fn setup(&self, rec: &mut Recorder, _traced: bool) -> [Scheme; 2] {
        let cfg = self.config();
        let [base, ca] = rec.span("core.build", |_| {
            [
                build_base(&cfg, false).program,
                build_ca(&cfg, false).program,
            ]
        });
        let acfg = AnalyzeConfig::new()
            .with_lanes(self.profile.compute_threads())
            .without_races();
        rec.span("runtime.unfold", |_| {
            [("base", base), ("ca", ca)].map(|(name, program)| Scheme {
                name,
                dag: analyze::unfold(&program, &acfg),
                program,
            })
        })
    }

    fn run(&self, ready: &[Scheme; 2], rec: &mut Recorder, traced: bool) -> [RunReport; 2] {
        let nodes = self.spec.grid * self.spec.grid;
        let mut cfg = RunConfig::simulated(self.profile.clone(), nodes);
        if traced {
            cfg = cfg.with_trace().with_kind_names(kind_names());
        }
        let [base, ca] = ready;
        [
            rec.span("runtime.sim_base", |_| runtime::run(&base.program, &cfg)),
            rec.span("runtime.sim_ca", |_| runtime::run(&ca.program, &cfg)),
        ]
    }

    fn verify(
        &self,
        ready: &[Scheme; 2],
        out: &[RunReport; 2],
        golden: &mut Golden,
    ) -> Result<(), String> {
        for (scheme, report) in ready.iter().zip(out) {
            let name = scheme.name;
            if !scheme.dag.is_consistent() {
                return Err(format!("{name}: unfolded DAG has {:?}", scheme.dag.faults));
            }
            let peers = analyze::peer_matrix(&scheme.dag);
            let msgs: u64 = peers.values().map(|p| p.messages).sum();
            let bytes: u64 = peers.values().map(|p| p.bytes).sum();
            for (what, got, want) in [
                ("tasks", report.tasks_executed, scheme.program.total_tasks),
                ("tasks", report.tasks_executed, scheme.dag.len() as u64),
                ("messages", report.remote_messages(), msgs),
                ("bytes", report.remote_bytes(), bytes),
            ] {
                if got != want {
                    return Err(format!(
                        "{name} {what}: got {got}, the unfolded DAG says {want}"
                    ));
                }
            }
            golden.check(&format!("{name}_makespan_s"), report.makespan)?;
            golden.check(&format!("{name}_msgs"), msgs as f64)?;
            golden.check(&format!("{name}_bytes"), bytes as f64)?;
            golden.check(
                &format!("{name}_redundant_flops"),
                report.counter(names::REDUNDANT_FLOPS) as f64,
            )?;
        }
        Ok(())
    }

    fn layers(&self, last: &[RunReport; 2], phases: &Phases, rec: &Recorder, m: &mut Metrics) {
        let [base, ca] = last;
        let tasks = self.tasks() as f64;
        m.set("core.build.s", median(&rec.durations_s("core.build")));
        let unfold_s = median(&rec.durations_s("runtime.unfold"));
        m.set("runtime.unfold.s", unfold_s);
        m.set("runtime.unfold.tasks_per_s", tasks / unfold_s);
        m.set(
            "runtime.sim_exec.base_host_s",
            median(&rec.durations_s("runtime.sim_base")),
        );
        m.set(
            "runtime.sim_exec.ca_host_s",
            median(&rec.durations_s("runtime.sim_ca")),
        );
        m.set(
            "runtime.sim_exec.host_ns_per_task",
            phases.untraced_run_s / tasks * 1e9,
        );
        m.set("runtime.sim_exec.msgs", ca.remote_messages() as f64);
        m.set("runtime.sim_exec.base_makespan_sim_s", base.makespan);
        m.set("runtime.sim_exec.ca_makespan_sim_s", ca.makespan);
        m.set(
            "core.ca.redundant_flops",
            ca.counter(names::REDUNDANT_FLOPS) as f64,
        );
        m.set("desim.engine.events_per_s", probes::desim_events_per_s());

        obs_layer(ca, m);
    }
}
