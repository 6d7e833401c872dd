//! The single entry point into both engines: build a [`RunConfig`],
//! call [`run`], get back one [`RunReport`] — whichever engine actually
//! carried the tasks.
//!
//! # The builder pattern
//!
//! Configuration follows the same builder style as
//! `ca_stencil::StencilConfig`: a constructor fixes the required
//! parameters, `with_*` methods refine the rest, and every method
//! consumes and returns the config so calls chain:
//!
//! ```ignore
//! let report = runtime::run(
//!     &program,
//!     &RunConfig::simulated(MachineProfile::nacl(), 4)
//!         .with_scheduler(SchedulerPolicy::Priority)
//!         .with_trace(),
//! );
//! ```
//!
//! Both engines feed the same observability layer (the `obs` crate).
//! Every [`RunReport`] carries per-node occupancy, read from the worker
//! lanes' busy clocks (`obs::BusyClock`), and a [`MetricsSnapshot`] built
//! from the plain counts the engine kept. Task, communication and message
//! spans are recorded only when [`RunConfig::with_trace`] is set; the
//! report then carries the full span [`Trace`], ready for
//! Chrome/Perfetto export via `obs::chrome::to_chrome_json`. Live samples
//! read the same busy clocks, not spans.

use crate::dispatch::StealTotals;
use crate::scheduler::SchedulerPolicy;
use crate::task::Program;
use machine::MachineProfile;
use obs::{names, GaugeValue, Live, LiveSample, MetricsSnapshot, Recorder, Trace, TracerOverhead};

/// Which engine executes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real threads and wall-clock time: one thread pool per node, plus a
    /// comm thread per node carrying real channel-borne messages when
    /// there is more than one node (see [`crate::mp_exec`]).
    MultiProcess,
    /// Virtual-time simulation of the whole cluster over a machine
    /// profile and network model.
    Simulated,
}

/// Configuration of one run, valid for every [`ExecMode`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The engine to run on.
    pub mode: ExecMode,
    /// Worker threads per node (ignored by [`ExecMode::Simulated`], whose
    /// lane count comes from the machine profile).
    pub threads: usize,
    /// Number of nodes; every task's `node_of` must map below this.
    pub nodes: u32,
    /// Machine profile (required for [`ExecMode::Simulated`]).
    pub profile: Option<MachineProfile>,
    /// Execute task bodies in the simulator (always true on the real
    /// engines).
    pub execute_bodies: bool,
    /// Attach the full span [`Trace`] to the report.
    pub capture_trace: bool,
    /// The ready-queue discipline of every node (see
    /// [`crate::scheduler`]).
    pub scheduler: SchedulerPolicy,
    /// Parallel send engines per node (simulator only).
    pub comm_engines: usize,
    /// Human-readable names for application span kinds, for exporters.
    pub kind_names: Vec<(u32, String)>,
    /// Live-sampler cadence in nanoseconds on the engine's clock
    /// (wall-clock for the real engines, virtual for the simulator).
    /// `None` disables sampling unless a [`RunConfig::with_live`] board
    /// is attached, which turns it on at
    /// [`RunConfig::DEFAULT_SAMPLE_PERIOD_NS`].
    pub sample_period_ns: Option<u64>,
    /// External live board to publish samples to, so a concurrent
    /// observer (`stencil-top`, a test) can watch the
    /// run. When sampling is on without a board, the engine creates a
    /// private one and the samples still land in the report.
    pub live: Option<Live>,
    /// Seed for the real engines' work-stealing victim order (ignored by
    /// the simulator). A fixed seed reproduces the same per-worker
    /// victim sequence run over run — the "seed-stable" half of the
    /// determinism contract in `docs/EXECUTOR.md`.
    pub steal_seed: u64,
}

impl RunConfig {
    /// Shared-memory run on `threads` workers: exactly
    /// `multi_process(1, threads)`. One node is one address space, so
    /// every flow stays local and no comm thread exists (the paper's
    /// single-node runs).
    pub fn shared_memory(threads: usize) -> Self {
        Self::multi_process(1, threads)
    }

    /// Multi-process-semantics run: `nodes` pools of `threads_per_node`
    /// workers, plus one comm thread per node when `nodes > 1`.
    pub fn multi_process(nodes: u32, threads_per_node: usize) -> Self {
        RunConfig {
            mode: ExecMode::MultiProcess,
            threads: threads_per_node,
            nodes,
            profile: None,
            execute_bodies: true,
            capture_trace: false,
            scheduler: SchedulerPolicy::Fifo,
            comm_engines: 1,
            kind_names: Vec::new(),
            sample_period_ns: None,
            live: None,
            steal_seed: Self::DEFAULT_STEAL_SEED,
        }
    }

    /// Simulated run of `nodes` nodes of `profile` (the paper's
    /// configuration: compute lanes plus one dedicated comm engine).
    pub fn simulated(profile: MachineProfile, nodes: u32) -> Self {
        RunConfig {
            mode: ExecMode::Simulated,
            threads: 0,
            nodes,
            profile: Some(profile),
            execute_bodies: false,
            capture_trace: false,
            scheduler: SchedulerPolicy::Fifo,
            comm_engines: 1,
            kind_names: Vec::new(),
            sample_period_ns: None,
            live: None,
            steal_seed: Self::DEFAULT_STEAL_SEED,
        }
    }

    /// Default work-stealing seed: an arbitrary constant, fixed so runs
    /// are seed-stable out of the box.
    pub const DEFAULT_STEAL_SEED: u64 = 0xCA5C_ADE5_7EA1;

    /// Seed the real engines' steal-victim order (see
    /// [`RunConfig::steal_seed`]).
    pub fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// Replace the machine profile.
    pub fn with_profile(mut self, profile: MachineProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Select the scheduling policy every engine's ready queues follow.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Execute task bodies (verifies numerics in the simulator).
    pub fn with_bodies(mut self) -> Self {
        self.execute_bodies = true;
        self
    }

    /// Attach the full span trace to the report.
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Use `n` parallel send engines per node.
    pub fn with_comm_engines(mut self, n: usize) -> Self {
        self.comm_engines = n;
        self
    }

    /// Name application span kinds for trace exporters (the comm kind is
    /// named automatically).
    pub fn with_kind_names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = (u32, S)>,
        S: Into<String>,
    {
        self.kind_names
            .extend(names.into_iter().map(|(k, s)| (k, s.into())));
        self
    }

    /// Default sampler cadence when a live board is attached without an
    /// explicit period: 10 ms on the engine's clock.
    pub const DEFAULT_SAMPLE_PERIOD_NS: u64 = 10_000_000;

    /// Enable live sampling at `period_ns` on the engine's clock
    /// (wall-clock nanoseconds for the real engines, virtual nanoseconds
    /// for the simulator). Samples land in [`RunReport::samples`].
    pub fn with_sampling(mut self, period_ns: u64) -> Self {
        self.sample_period_ns = Some(period_ns.max(1));
        self
    }

    /// Publish live samples to `live` so a concurrent observer can watch
    /// the run; implies sampling (at
    /// [`RunConfig::DEFAULT_SAMPLE_PERIOD_NS`] unless
    /// [`RunConfig::with_sampling`] chose a cadence).
    pub fn with_live(mut self, live: Live) -> Self {
        self.live = Some(live);
        self
    }

    /// The effective sampler cadence: the explicit period, the default
    /// when only a board was attached, `None` when sampling is off.
    pub fn sample_period(&self) -> Option<u64> {
        self.sample_period_ns
            .or(self.live.as_ref().map(|_| Self::DEFAULT_SAMPLE_PERIOD_NS))
    }

    /// The board the engine should publish samples to: the attached one,
    /// or a fresh private board when sampling is on without an external
    /// observer. `None` when sampling is off.
    pub(crate) fn live_board(&self) -> Option<Live> {
        if let Some(live) = &self.live {
            return Some(live.clone());
        }
        self.sample_period_ns.map(|_| Live::new())
    }

    /// Build the run's recorder with the configured kind names registered.
    pub(crate) fn recorder(&self) -> Recorder {
        let rec = Recorder::new();
        rec.register_kind(obs::KIND_COMM, "comm");
        for (kind, name) in &self.kind_names {
            rec.register_kind(*kind, name);
        }
        rec
    }
}

/// What an engine counted over one run, in plain integers. The simulator
/// counts into one; each threaded worker counts into its own, and the
/// engine merges them once every thread has joined. [`assemble_report`]
/// turns the total into the report's [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCounts {
    pub(crate) tasks: u64,
    /// Flows delivered into the activation table, local or remote.
    pub(crate) activations: u64,
    pub(crate) redundant_flops: u64,
    /// Messages and payload bytes sent between nodes.
    pub(crate) messages: u64,
    pub(crate) bytes: u64,
    /// The ready-queue depth last seen, and the highest.
    pub(crate) depth: GaugeValue,
    /// Work-stealing totals; the threaded engine always has them, the
    /// simulator's central queues never do.
    pub(crate) steals: Option<StealTotals>,
}

impl RunCounts {
    /// A ready queue was seen `depth` deep.
    pub(crate) fn queue_depth(&mut self, depth: usize) {
        let depth = depth as i64;
        self.depth = GaugeValue {
            current: depth,
            max: self.depth.max.max(depth),
        };
    }

    /// Add another thread's counts; its last depth becomes the current one.
    pub(crate) fn merge(&mut self, other: &RunCounts) {
        self.tasks += other.tasks;
        self.activations += other.activations;
        self.redundant_flops += other.redundant_flops;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.depth = GaugeValue {
            current: other.depth.current,
            max: self.depth.max.max(other.depth.max),
        };
    }

    /// The snapshot's key set: tasks, activations and the queue-depth
    /// gauge always; redundant flops and the sent pair only when nonzero;
    /// the steal counters and home hits on the work-stealing engine.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = vec![
            (names::TASKS_EXECUTED, self.tasks),
            (names::ACTIVATIONS, self.activations),
        ];
        if self.redundant_flops > 0 {
            counters.push((names::REDUNDANT_FLOPS, self.redundant_flops));
        }
        if self.messages > 0 {
            counters.extend([
                (names::MESSAGES_SENT, self.messages),
                (names::BYTES_SENT, self.bytes),
            ]);
        }
        if let Some(s) = self.steals {
            counters.extend([
                (names::STEALS, s.steals),
                (names::STEAL_FAILS, s.steal_fails),
                (names::OVERFLOW_PUSHES, s.overflow_pushes),
                (names::HOME_HITS, s.home_hits),
            ]);
        }
        let mut snapshot = MetricsSnapshot::from_counters(counters);
        snapshot
            .gauges
            .insert(names::QUEUE_DEPTH.to_string(), self.depth);
        snapshot
    }
}

/// Outcome of a run, identical in shape for every engine.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The engine that produced this report.
    pub mode: ExecMode,
    /// Name of the policy that drove the run
    /// ([`crate::SchedulerPolicy::name`]), so traces from different
    /// policies stay distinguishable downstream.
    pub scheduler: String,
    /// Tasks executed (equals the program's `total_tasks` on success).
    pub tasks_executed: u64,
    /// Seconds from the start of the run to its last task completion on
    /// the engine's clock: wall-clock for the threaded engine, virtual
    /// for the simulator. Occupancy and the tracer's lane time are
    /// measured over this same horizon.
    pub makespan: f64,
    /// Per-node worker-lane occupancy in `[0, 1]` over the makespan (the
    /// paper's "CPU occupancy"): the node's lanes' busy-clock readings at
    /// the horizon over `horizon × lanes`. Bit-equal to
    /// `obs::Trace::occupancy` of the run's trace.
    pub node_occupancy: Vec<f64>,
    /// Counter/gauge snapshot (see `obs::names` for the standard keys).
    pub metrics: MetricsSnapshot,
    /// Full span trace, when [`RunConfig::with_trace`] was set.
    pub trace: Option<Trace>,
    /// Live samples collected during the run, when sampling was enabled
    /// (see [`RunConfig::with_sampling`]); empty otherwise.
    pub samples: Vec<LiveSample>,
    /// The tracer's measured self-overhead over this run: records
    /// times the calibrated per-event cost, against total worker-lane
    /// time. An untraced run records nothing, so its `events` is 0. The
    /// budget is [`TracerOverhead::BUDGET_FRACTION`].
    pub overhead: TracerOverhead,
    /// Per-node communication-engine utilization over the makespan
    /// (simulator only; empty for the threaded engine).
    pub comm_utilization: Vec<f64>,
}

impl RunReport {
    /// Shorthand for a counter from the metric snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Messages that crossed between nodes: network messages for the
    /// simulator, comm-thread flows for a threaded run (0 on one node).
    pub fn remote_messages(&self) -> u64 {
        self.counter(names::MESSAGES_SENT)
    }

    /// Payload bytes that crossed between nodes.
    pub fn remote_bytes(&self) -> u64 {
        self.counter(names::BYTES_SENT)
    }
}

/// Assemble a [`RunReport`] from a finished run. `horizon_ns` is the
/// makespan on the engine's clock; `node_busy` holds each node's busy
/// time over it, summed over its `lanes` worker lanes. One parameter per
/// report ingredient — both engines hold these as locals, so a params
/// struct would only move the arity around.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_report(
    cfg: &RunConfig,
    horizon_ns: u64,
    lanes: u32,
    node_busy: &[u64],
    counts: &RunCounts,
    recorder: &Recorder,
    samples: Vec<LiveSample>,
    comm_utilization: Vec<f64>,
) -> RunReport {
    // Overhead is accounted before drain() so the drain itself (an
    // analysis step, not instrumentation) stays out of the figure.
    let lane_time_ns = horizon_ns * lanes as u64 * cfg.nodes as u64;
    let overhead = recorder.overhead(lane_time_ns);
    RunReport {
        mode: cfg.mode,
        scheduler: cfg.scheduler.name().to_string(),
        tasks_executed: counts.tasks,
        makespan: horizon_ns as f64 * 1e-9,
        node_occupancy: node_busy
            .iter()
            .map(|&busy| obs::occupancy(busy, lanes, horizon_ns))
            .collect(),
        metrics: counts.snapshot(),
        trace: cfg.capture_trace.then(|| recorder.drain()),
        samples,
        overhead,
        comm_utilization,
    }
}

/// Run `program` on the engine selected by `cfg.mode`. The single entry
/// point every caller should use.
pub fn run(program: &Program, cfg: &RunConfig) -> RunReport {
    match cfg.mode {
        ExecMode::MultiProcess => crate::mp_exec::execute(program, cfg),
        ExecMode::Simulated => crate::sim_exec::execute(program, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::DtdBuilder;

    fn diamond(nodes: u32) -> Program {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 1e-5, &[]);
        let mids: Vec<_> = (0..6).map(|i| b.insert(i % nodes, 1e-5, &[root])).collect();
        let _sink = b.insert(0, 1e-5, &mids);
        b.build()
    }

    #[test]
    fn all_three_modes_agree_on_task_counts() {
        let p = diamond(1);
        for cfg in [
            RunConfig::shared_memory(2),
            RunConfig::multi_process(2, 2),
            RunConfig::simulated(MachineProfile::nacl(), 1),
        ] {
            let r = run(&p, &cfg.with_trace());
            assert_eq!(r.tasks_executed, 8, "{:?}", r.mode);
            assert_eq!(r.counter(names::TASKS_EXECUTED), 8, "{:?}", r.mode);
            assert_eq!(r.counter(names::MESSAGES_SENT), 0, "{:?}", r.mode);
            let trace = r.trace.expect("with_trace attaches the trace");
            assert_eq!(trace.task_spans().count(), 8, "{:?}", r.mode);
        }
    }

    #[test]
    fn trace_absent_unless_requested() {
        let r = run(&diamond(1), &RunConfig::shared_memory(2));
        assert!(r.trace.is_none());
        assert_eq!(r.node_occupancy.len(), 1);
        assert!(r.node_occupancy[0] > 0.0);
    }

    #[test]
    fn multi_process_counts_cross_node_messages() {
        let p = diamond(2);
        let r = run(&p, &RunConfig::multi_process(2, 2));
        let sent = r.counter(names::MESSAGES_SENT);
        assert!(sent >= 6, "cross flows: {sent}");
        assert!(r.counter(names::BYTES_SENT) >= sent);
        assert_eq!(r.remote_messages(), sent);
        assert!(r.comm_utilization.is_empty());
    }

    #[test]
    fn simulated_reports_virtual_makespan() {
        let r = run(
            &diamond(1),
            &RunConfig::simulated(MachineProfile::nacl(), 1),
        );
        // 1e-5 cost, depth-3 diamond: exactly 3e-5 of virtual time.
        assert!((r.makespan - 3e-5).abs() < 1e-12, "{}", r.makespan);
        assert_eq!(r.remote_messages(), 0);
        assert_eq!(r.comm_utilization, [0.0]);
    }

    #[test]
    fn sampling_reaches_report_on_every_engine() {
        let p = diamond(1);
        for cfg in [
            RunConfig::shared_memory(2),
            RunConfig::multi_process(2, 2),
            RunConfig::simulated(MachineProfile::nacl(), 1),
        ] {
            let mode = cfg.mode;
            let r = run(&p, &cfg.with_sampling(1_000_000));
            assert!(!r.samples.is_empty(), "{mode:?} published no samples");
            assert!(r.samples.iter().all(|s| s.window_ns > 0));
            // Samples read busy clocks: an untraced run records nothing.
            assert_eq!(r.overhead.events, 0, "{mode:?} recorded untraced");
            assert!(r.overhead.per_event_ns > 0.0);
        }
        // Traced with sampling off: no samples, every record accounted.
        let r = run(&p, &RunConfig::shared_memory(2).with_trace());
        assert!(r.samples.is_empty());
        assert_eq!(r.overhead.events, 8, "one span per task");
    }

    #[test]
    fn run_counts_merge_adds_counts_and_keeps_the_deepest_queue() {
        let mut total = RunCounts::default();
        for (tasks, deepest, last) in [(3, 7, 2), (5, 4, 1)] {
            let mut worker = RunCounts {
                tasks,
                messages: 1,
                bytes: 8,
                ..RunCounts::default()
            };
            worker.queue_depth(deepest);
            worker.queue_depth(last);
            total.merge(&worker);
        }
        assert_eq!((total.tasks, total.messages, total.bytes), (8, 2, 16));
        assert_eq!(total.depth, GaugeValue { current: 1, max: 7 });
    }

    #[test]
    fn run_counts_track_the_queue_depth_high_water_mark() {
        let mut counts = RunCounts::default();
        for depth in [3, 7, 1] {
            counts.queue_depth(depth);
        }
        let snap = counts.snapshot();
        assert_eq!(snap.gauges[names::QUEUE_DEPTH].current, 1);
        assert_eq!(snap.gauge_max(names::QUEUE_DEPTH), 7);
    }

    #[test]
    fn external_live_board_sees_the_run() {
        let live = obs::Live::new();
        let cfg = RunConfig::shared_memory(2).with_live(live.clone());
        assert_eq!(
            cfg.sample_period(),
            Some(RunConfig::DEFAULT_SAMPLE_PERIOD_NS),
            "attaching a board implies sampling"
        );
        let r = run(&diamond(1), &cfg);
        assert!(!live.is_empty(), "board saw nothing");
        assert_eq!(live.history().len(), r.samples.len());
    }

    #[test]
    fn kind_names_reach_the_trace() {
        let cfg = RunConfig::shared_memory(1)
            .with_kind_names([(0u32, "work")])
            .with_trace();
        let r = run(&diamond(1), &cfg);
        let trace = r.trace.unwrap();
        assert_eq!(trace.kinds.get(&0).map(String::as_str), Some("work"));
        assert_eq!(
            trace.kinds.get(&obs::KIND_COMM).map(String::as_str),
            Some("comm")
        );
    }
}
