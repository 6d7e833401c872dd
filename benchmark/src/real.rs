//! Real-engine workloads: a Jacobi solve on the shared-memory or the
//! multi-process engine, verified bit for bit against `jacobi_reference`.

use crate::golden::Golden;
use crate::metrics::Metrics;
use crate::probes;
use crate::spans::Recorder;
use crate::stats::{fastest, median, tail_percentile};
use crate::workload::{obs_layer, Phases, Workload};
use ca_stencil::{
    build_base, build_ca, jacobi_reference, kind_names, Problem, StencilBuild, StencilConfig,
};
use netsim::ProcessGrid;
use obs::names;
use runtime::{RunConfig, RunReport};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    SharedMemory,
    MultiProcess,
}

#[derive(Debug, Clone, Copy)]
pub struct RealSpec {
    pub engine: Engine,
    /// CA scheme with step size `steps`; otherwise the base scheme.
    pub ca: bool,
    pub n: usize,
    pub tile: usize,
    pub iters: u32,
    /// Node grid (rows, columns); 1 × 1 on the shared-memory engine.
    pub grid: (u32, u32),
    pub steps: usize,
    /// Worker threads per node.
    pub workers: usize,
    /// Traced run also measures STREAM and the kernel's roofline share.
    pub roofline: bool,
    /// Traced run also measures zero-body dispatch and METG-50.
    pub dispatch_probes: bool,
}

/// What every solve of this spec must do exactly, from the unfolded DAG.
struct Expected {
    tasks: u64,
    msgs: u64,
    bytes: u64,
    redundant_flops: u64,
    /// Strip and corner flows of one solve, and their payload bytes.
    flows: u64,
    flow_bytes: u64,
}

pub struct Real {
    spec: RealSpec,
    seed: u64,
    reference: Vec<f64>,
    reference_s: f64,
    expected: Expected,
}

impl Real {
    /// Computes the reference field and the exact counts once, outside
    /// every timed region.
    pub fn new(spec: RealSpec, seed: u64) -> Self {
        let cfg = config(&spec, seed);
        let clock = Instant::now();
        let reference = jacobi_reference(&cfg.problem, spec.iters);
        let reference_s = clock.elapsed().as_secs_f64();

        let program = build(&spec, &cfg, false).program;
        let dag = runtime::UnfoldedDag::enumerate(&program);
        assert!(dag.is_consistent(), "{:?}", dag.faults);
        let peers = analyze::peer_matrix(&dag);
        let payloads = || dag.edges.iter().filter(|e| e.bytes > 0);
        let expected = Expected {
            tasks: dag.len() as u64,
            msgs: peers.values().map(|p| p.messages).sum(),
            bytes: peers.values().map(|p| p.bytes).sum(),
            redundant_flops: dag
                .tasks
                .iter()
                .map(|k| dag.graph.class(k.class).redundant_flops(k.params))
                .sum(),
            flows: payloads().count() as u64,
            flow_bytes: payloads().map(|e| e.bytes as u64).sum(),
        };
        Real {
            spec,
            seed,
            reference,
            reference_s,
            expected,
        }
    }

    /// Solve another seed's problem while keeping this seed's reference.
    #[cfg(test)]
    pub fn with_seed_for_test(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn nodes(&self) -> u32 {
        self.spec.grid.0 * self.spec.grid.1
    }

    fn run_config(&self, traced: bool) -> RunConfig {
        let cfg = match self.spec.engine {
            Engine::SharedMemory => RunConfig::shared_memory(self.spec.workers),
            Engine::MultiProcess => RunConfig::multi_process(self.nodes(), self.spec.workers),
        }
        .with_steal_seed(self.seed);
        if traced {
            cfg.with_trace().with_kind_names(kind_names())
        } else {
            cfg
        }
    }
}

fn config(spec: &RealSpec, seed: u64) -> StencilConfig {
    StencilConfig::new(
        Problem::scrambled(spec.n, seed),
        spec.tile,
        spec.iters,
        ProcessGrid::new(spec.grid.0, spec.grid.1),
    )
    .with_steps(spec.steps)
}

fn build(spec: &RealSpec, cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    if spec.ca {
        build_ca(cfg, carry_data)
    } else {
        build_base(cfg, carry_data)
    }
}

impl Workload for Real {
    type Ready = StencilBuild;
    type Output = RunReport;

    fn tasks(&self) -> u64 {
        self.expected.tasks
    }

    fn nominal_flops(&self) -> f64 {
        config(&self.spec, self.seed).nominal_flops()
    }

    fn setup(&self, rec: &mut Recorder, _traced: bool) -> StencilBuild {
        let cfg = config(&self.spec, self.seed);
        rec.span("core.build", |_| build(&self.spec, &cfg, true))
    }

    fn run(&self, ready: &StencilBuild, rec: &mut Recorder, traced: bool) -> RunReport {
        let cfg = self.run_config(traced);
        rec.span("runtime.engine", |_| runtime::run(&ready.program, &cfg))
    }

    fn verify(
        &self,
        ready: &StencilBuild,
        out: &RunReport,
        golden: &mut Golden,
    ) -> Result<(), String> {
        let want = &self.expected;
        let same = |what: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: got {got}, the unfolded DAG says {want}"))
            }
        };
        same(
            "tasks executed",
            out.tasks_executed,
            ready.program.total_tasks,
        )?;
        same("tasks executed", out.tasks_executed, want.tasks)?;
        same("cross-node messages", out.remote_messages(), want.msgs)?;
        same("cross-node bytes", out.remote_bytes(), want.bytes)?;
        let redundant = out.counter(names::REDUNDANT_FLOPS);
        same("redundant flops", redundant, want.redundant_flops)?;
        golden.check("tasks", want.tasks as f64)?;
        golden.check("msgs", want.msgs as f64)?;
        golden.check("bytes", want.bytes as f64)?;
        golden.check("redundant_flops", want.redundant_flops as f64)?;

        let store = ready.store.as_ref().ok_or("build carries no data")?;
        let field = store.gather();
        let bitwise_equal = field.len() == self.reference.len()
            && field
                .iter()
                .zip(&self.reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if bitwise_equal {
            Ok(())
        } else {
            Err("field differs from jacobi_reference".into())
        }
    }

    fn layers(&self, last: &RunReport, phases: &Phases, rec: &Recorder, m: &mut Metrics) {
        let s = &self.spec;
        let cfg = config(s, self.seed);
        let run_s = phases.untraced_run_s;
        let tasks = self.expected.tasks as f64;
        let threads = (self.nodes() as usize * s.workers) as f64;
        let flops = cfg.nominal_flops();

        m.set("core.build.s", median(&rec.durations_s("core.build")));
        m.set("harness.reference_s", self.reference_s);
        m.set("core.reference.gflops", flops / self.reference_s / 1e9);
        m.set("core.reference.speedup", self.reference_s / run_s);
        m.set(
            "core.ca.redundant_flops",
            self.expected.redundant_flops as f64,
        );
        m.set("core.tile.strip_bytes", self.expected.flow_bytes as f64);

        let ca_steps = s.ca.then_some(s.steps);
        let (kernel_s, points) = probes::kernel_only(&cfg.geometry(), s.iters, ca_steps, s.workers);
        m.set("core.tile.kernel_only_s", kernel_s);
        m.set(
            "core.tile.jacobi_gflops",
            9.0 * points as f64 / kernel_s / 1e9,
        );
        let gbs = 16.0 * points as f64 / kernel_s / 1e9;
        m.set("core.tile.jacobi_gbs_computed", gbs);
        m.set("core.tile.kernel_share", kernel_s / run_s);
        m.set(
            "core.tile.jacobi_cached_gflops",
            probes::cached_gflops(s.tile),
        );
        let depth = ca_steps.unwrap_or(1);
        let strip_pair_ns = probes::strip_pair_ns(s.tile, depth);
        m.set("core.tile.strip_pair_ns", strip_pair_ns);
        if s.ca {
            m.set(
                "core.tile.corner_pair_ns",
                probes::corner_pair_ns(s.tile, depth),
            );
            m.set(
                "core.tile.ca_extent_gflops",
                probes::ca_extent_gflops(s.tile, depth),
            );
        }
        if s.roofline {
            let (triad_gbs, array_mb) = probes::stream_triad(threads as usize);
            m.set("machine.stream.triad_gbs", triad_gbs);
            m.set("machine.stream.array_mb", array_mb);
            m.set("core.tile.jacobi_roofline_frac", gbs / triad_gbs);
        }

        obs_layer(last, m);
        let trace = last.trace.as_ref().expect("traced run carries its trace");

        let occupancy = last.node_occupancy.iter().sum::<f64>() / last.node_occupancy.len() as f64;
        match s.engine {
            Engine::SharedMemory => {
                m.set(
                    "runtime.real_exec.ns_per_task",
                    run_s * threads / tasks * 1e9,
                );
                // What is left of a worker's time per task once the bare
                // kernel and the strip copies are taken out: the residual.
                // (One node has no node boundary, so every flow is a
                // depth-1 strip whichever scheme runs.)
                let hand_over_ns = self.expected.flows as f64 * strip_pair_ns;
                let overhead = ((run_s - kernel_s) * threads * 1e9 - hand_over_ns) / tasks;
                m.set("runtime.real_exec.overhead_ns_per_task", overhead);
                m.set("runtime.real_exec.occupancy", occupancy);
                m.set(
                    "runtime.real_exec.steals",
                    last.counter(names::STEALS) as f64,
                );
                m.set(
                    "runtime.real_exec.steal_fails",
                    last.counter(names::STEAL_FAILS) as f64,
                );
                m.set(
                    "runtime.real_exec.overflow_pushes",
                    last.counter(names::OVERFLOW_PUSHES) as f64,
                );
            }
            Engine::MultiProcess => {
                m.set("runtime.mp_exec.msgs", last.remote_messages() as f64);
                m.set("runtime.mp_exec.bytes", last.remote_bytes() as f64);
                m.set("runtime.mp_exec.occupancy", occupancy);
                let us = |f: fn(&obs::MsgSpan) -> u64| -> Vec<f64> {
                    trace.msgs.iter().map(|msg| f(msg) as f64 / 1e3).collect()
                };
                let latency = us(obs::MsgSpan::inflight_ns);
                m.set("runtime.mp_exec.msg_samples", latency.len() as f64);
                m.set("runtime.mp_exec.msg_latency_p50_us", median(&latency));
                m.set(
                    "runtime.mp_exec.msg_latency_p99_us",
                    tail_percentile(&latency, 0.99).unwrap_or(0.0),
                );
                m.set(
                    "runtime.mp_exec.msg_queue_p50_us",
                    median(&us(obs::MsgSpan::queue_ns)),
                );
                // The same grid, tiling and sweeps on one node with as many
                // workers: what the node split costs.
                let one_node = RealSpec {
                    engine: Engine::SharedMemory,
                    ca: false,
                    grid: (1, 1),
                    workers: threads as usize,
                    ..*s
                };
                let shm_cfg = config(&one_node, self.seed);
                let shm_run = RunConfig::shared_memory(one_node.workers).with_steal_seed(self.seed);
                let samples: Vec<f64> = (0..3)
                    .map(|_| {
                        let b = build(&one_node, &shm_cfg, true);
                        let clock = Instant::now();
                        runtime::run(&b.program, &shm_run);
                        clock.elapsed().as_secs_f64()
                    })
                    .collect();
                m.set("runtime.mp_exec.vs_shm_ratio", run_s / fastest(&samples));
            }
        }
        if s.dispatch_probes {
            let workers = threads as usize;
            let [chain, fan, storm] = probes::dispatch_ns_per_task(workers);
            m.set("runtime.dispatch.chain_ns_per_task", chain);
            m.set("runtime.dispatch.fan_ns_per_task", fan);
            m.set("runtime.dispatch.steal_storm_ns_per_task", storm);
            m.set(
                "runtime.metg50_us",
                probes::metg50_us(self.seed, workers).unwrap_or(0.0),
            );
        }
    }
}
