//! The pluggable scheduling surface: **which** ready task a worker picks
//! and **where** a task runs.
//!
//! The executors used to hard-code one policy (FIFO channels on the real
//! engines, a [`SchedulerPolicy`] enum on the simulator). This module
//! turns scheduling into a first-class API:
//!
//! * [`Scheduler`] — a factory bound into [`crate::RunConfig`] via
//!   [`crate::RunConfig::with_scheduler`]. Before a run starts, every
//!   engine calls [`Scheduler::instance`] once with a [`SchedContext`]
//!   (the program, the machine profile when one exists, the cluster
//!   shape) so the scheduler can precompute static ranks over the
//!   unfolded DAG ([`crate::UnfoldedDag`], the same graph the `analyze`
//!   crate's critical-path pass sweeps).
//! * [`TaskSelector`] — the per-run instance the engines consult. It is a
//!   **pure** oracle: [`TaskSelector::rank`] orders ready tasks (higher
//!   first, FIFO-by-arrival within a rank) and [`TaskSelector::place`]
//!   may override owner-computes placement. Selectors must be
//!   deterministic functions of the task key — no interior mutability, no
//!   clocks, no randomness — which is what keeps simulated runs
//!   bit-identical under a fixed configuration.
//!
//! The classic queue disciplines are the [`SchedulerPolicy`] enum, which
//! implements [`Scheduler`] itself, so
//! `with_scheduler(SchedulerPolicy::Priority)` selects one directly.
//!
//! # The list-scheduler portfolio
//!
//! On top of the trait this module ships the classic static list
//! schedulers, each computing one rank vector over the statically
//! unfolded DAG and then dispatching highest-rank-first:
//!
//! | name | rank of task *i* |
//! |------|------------------|
//! | [`HeftScheduler`] | upward rank `w(i) + max_j (c(i,j) + rank(j))` |
//! | [`PeftScheduler`] | optimistic cost table `max_j (OCT(j) + w(j) + c(i,j))` |
//! | [`DlsScheduler`]  | communication-free static level `w(i) + max_j sl(j)` |
//! | [`LookaheadScheduler`] | depth-limited upward rank (bounded horizon) |
//!
//! `w(i)` is the task's cost-model service time; `c(i,j)` is the
//! predicted dependence-edge delay: zero when producer and consumer share
//! a node under owner-computes placement, otherwise two comm-thread
//! processings plus the wire time from the run's [`netsim::NetworkModel`]
//! — exactly the latency the simulated executor charges a remote edge.
//! Under the runtime's fixed owner-computes placement HEFT's upward rank
//! and PEFT's OCT collapse to the same recurrence offset by the task's
//! own cost, so the two orderings differ precisely in whether a task's
//! own service time counts toward its urgency.
//!
//! # Schedulers and the work-stealing executors
//!
//! The real executors dispatch through per-worker lock-free deques (see
//! `docs/EXECUTOR.md`), which changes *where* each [`SelectMode`] is
//! enforced but not *what* it promises:
//!
//! * `Fifo` / `Lifo` lanes use the deque directly — FIFO owners pop from
//!   the steal end so local order matches the central-queue order, LIFO
//!   owners pop from the bottom;
//! * `Rank` lanes keep a small mutex-guarded
//!   [`ReadyQueue`](crate::ready_queue::ReadyQueue) per lane, because
//!   best-first selection needs a global view a deque cannot give;
//!   thieves lock it to steal the victim's best-ranked task.
//!
//! Determinism splits accordingly: the simulator remains **bit-identical**
//! under a fixed config, while the real engines are **seed-stable** — the
//! steal victim order is a pure function of
//! [`crate::RunConfig::with_steal_seed`], but OS thread timing still
//! decides which worker wins a race, so only per-lane order (not the
//! global interleaving) is reproducible.

use crate::task::{Program, TaskGraph, TaskKey};
use crate::unfold::UnfoldedDag;
use machine::MachineProfile;
use netsim::{NetworkModel, NodeId};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How a [`TaskSelector`] orders the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMode {
    /// Oldest ready task first; [`TaskSelector::rank`] is ignored.
    Fifo,
    /// Newest ready task first; [`TaskSelector::rank`] is ignored.
    Lifo,
    /// Highest [`TaskSelector::rank`] first, FIFO-by-arrival within a
    /// rank.
    Rank,
}

/// Everything a [`Scheduler`] may consult when instantiating its per-run
/// [`TaskSelector`]: the program (whose DAG it can unfold for static
/// ranks), the machine profile when the engine has one (the simulator
/// always does; the real engines run unmodeled), and the cluster shape.
#[derive(Clone, Copy)]
pub struct SchedContext<'a> {
    /// The program about to run.
    pub program: &'a Program,
    /// The machine/network model, when the engine applies one.
    pub profile: Option<&'a MachineProfile>,
    /// Number of nodes in the run.
    pub nodes: u32,
    /// Worker lanes per node.
    pub lanes: u32,
}

/// A per-run scheduling oracle, consulted by every engine's ready queue
/// (and placement path) during one run.
///
/// # Contract
///
/// Selection must be **pure and deterministic**: the same key must always
/// yield the same rank and placement, with no side effects — the
/// simulated executor's bit-identical replays and the cross-executor
/// equivalence tests both lean on this. Implementations precompute
/// anything expensive in [`Scheduler::instance`] and only look tables up
/// here.
pub trait TaskSelector: Send + Sync {
    /// The queue discipline. Defaults to rank order.
    fn mode(&self) -> SelectMode {
        SelectMode::Rank
    }

    /// Static urgency of `key`: higher ranks dispatch first, ties resolve
    /// FIFO by arrival order. Ignored under [`SelectMode::Fifo`] /
    /// [`SelectMode::Lifo`].
    fn rank(&self, key: TaskKey) -> i64 {
        let _ = key;
        0
    }

    /// Override the owner-computes placement of `key`, or `None` to keep
    /// the task class's [`crate::TaskClass::node_of`]. A returned node
    /// must be below the run's node count.
    fn place(&self, key: TaskKey) -> Option<NodeId> {
        let _ = key;
        None
    }
}

/// A scheduling policy that can be bound into a [`crate::RunConfig`]:
/// given the run's [`SchedContext`], produce the [`TaskSelector`] the
/// engines will consult.
pub trait Scheduler: Send + Sync {
    /// Stable short name, recorded in [`crate::RunReport::scheduler`] and
    /// every exported trace/metric header.
    fn name(&self) -> &str;

    /// Build the per-run selector. Called once per run, before any task
    /// is dispatched; this is where static ranks over the unfolded DAG
    /// are computed.
    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector>;
}

/// A cheaply clonable handle to a [`Scheduler`] trait object — the type
/// [`crate::RunConfig`] actually stores, so configs stay `Clone + Debug`.
///
/// ```
/// use runtime::SchedulerHandle;
///
/// let heft = SchedulerHandle::by_name("heft").expect("built-in");
/// assert_eq!(heft.name(), "heft");
/// assert_eq!(SchedulerHandle::default().name(), "fifo");
/// ```
#[derive(Clone)]
pub struct SchedulerHandle(Arc<dyn Scheduler>);

impl SchedulerHandle {
    /// Wrap a scheduler.
    pub fn new(scheduler: impl Scheduler + 'static) -> Self {
        SchedulerHandle(Arc::new(scheduler))
    }

    /// The scheduler's stable name.
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Build the per-run selector (see [`Scheduler::instance`]).
    pub fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        self.0.instance(ctx)
    }

    /// Every built-in scheduler, in a stable order: the three
    /// [`SchedulerPolicy`] shims first, then the static list schedulers.
    /// This is the lineup the `stencil-tournament` bench runs.
    pub fn portfolio() -> Vec<SchedulerHandle> {
        vec![
            SchedulerPolicy::Fifo.into(),
            SchedulerPolicy::Lifo.into(),
            SchedulerPolicy::Priority.into(),
            HeftScheduler.into(),
            PeftScheduler.into(),
            DlsScheduler.into(),
            LookaheadScheduler::default().into(),
        ]
    }

    /// Look a built-in scheduler up by its stable name.
    pub fn by_name(name: &str) -> Option<SchedulerHandle> {
        Self::portfolio().into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulerHandle({:?})", self.name())
    }
}

impl Default for SchedulerHandle {
    /// FIFO — the historical default of every engine.
    fn default() -> Self {
        SchedulerPolicy::Fifo.into()
    }
}

impl<S: Scheduler + 'static> From<S> for SchedulerHandle {
    fn from(s: S) -> Self {
        SchedulerHandle::new(s)
    }
}

/// Ready-queue discipline of the node-local scheduler: the three classic
/// policies, each a [`Scheduler`] itself (pass one to
/// [`crate::RunConfig::with_scheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SchedulerPolicy {
    /// Oldest ready task first (default; matches the real executor).
    Fifo,
    /// Newest ready task first (depth-first; PaRSEC's default locality
    /// heuristic).
    Lifo,
    /// Highest [`crate::task::TaskClass::priority`] first, FIFO within a
    /// level (e.g. boundary tiles before interior tiles, so their strips
    /// reach the comm thread early).
    Priority,
}

impl Scheduler for SchedulerPolicy {
    fn name(&self) -> &str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::Lifo => "lifo",
            SchedulerPolicy::Priority => "priority",
        }
    }

    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        match self {
            SchedulerPolicy::Fifo => Arc::new(FifoSelector),
            SchedulerPolicy::Lifo => Arc::new(LifoSelector),
            SchedulerPolicy::Priority => Arc::new(ClassPrioritySelector {
                graph: Arc::clone(&ctx.program.graph),
            }),
        }
    }
}

/// FIFO selection: oldest ready task first.
pub struct FifoSelector;

impl TaskSelector for FifoSelector {
    fn mode(&self) -> SelectMode {
        SelectMode::Fifo
    }
}

/// LIFO selection: newest ready task first.
pub struct LifoSelector;

impl TaskSelector for LifoSelector {
    fn mode(&self) -> SelectMode {
        SelectMode::Lifo
    }
}

/// Rank by the task class's declared [`crate::TaskClass::priority`] —
/// the dynamic behavior of the old `SchedulerPolicy::Priority`.
pub struct ClassPrioritySelector {
    /// The class registry priorities are read from.
    pub graph: Arc<TaskGraph>,
}

impl TaskSelector for ClassPrioritySelector {
    fn rank(&self, key: TaskKey) -> i64 {
        self.graph.class(key.class).priority(key.params) as i64
    }
}

/// A selector over a precomputed per-task rank table — the shared
/// back-end of every static list scheduler, and a convenient building
/// block for custom [`Scheduler`] implementations (fill the map from any
/// analysis you like). Tasks absent from the table rank 0.
///
/// ```
/// use runtime::scheduler::{StaticRanks, TaskSelector};
/// use runtime::TaskKey;
/// use std::collections::HashMap;
///
/// let urgent = TaskKey::new(0, [7, 0, 0, 0]);
/// let sel = StaticRanks::new(HashMap::from([(urgent, 100)]));
/// assert_eq!(sel.rank(urgent), 100);
/// assert_eq!(sel.rank(TaskKey::new(0, [8, 0, 0, 0])), 0); // unranked
/// ```
pub struct StaticRanks {
    ranks: HashMap<TaskKey, i64>,
}

impl StaticRanks {
    /// Selector over an explicit rank table.
    pub fn new(ranks: HashMap<TaskKey, i64>) -> Self {
        StaticRanks { ranks }
    }

    /// Number of ranked tasks.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when no task is ranked.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

impl TaskSelector for StaticRanks {
    fn rank(&self, key: TaskKey) -> i64 {
        self.ranks.get(&key).copied().unwrap_or(0)
    }
}

/// The per-edge delay model rank computations charge a dependence edge:
/// free when producer and consumer share a node, otherwise
/// [`NetworkModel::edge_delay`] — send processing + wire time + receive
/// processing, the latency the simulated executor pays for a remote flow.
/// Without a machine profile (the real engines) every edge is free and
/// ranks degrade to communication-free levels.
type EdgeDelay = Option<NetworkModel>;

fn edge_delay(ctx: &SchedContext<'_>) -> EdgeDelay {
    ctx.profile.map(NetworkModel::from_profile)
}

fn edge_cost(delay: &EdgeDelay, same_node: bool, bytes: usize) -> f64 {
    match delay {
        Some(net) if !same_node => net.edge_delay(bytes),
        _ => 0.0,
    }
}

/// Shared preamble of every list scheduler: unfold the DAG and order it.
/// `None` (cyclic or truncated graphs, which the executors reject anyway)
/// makes the scheduler degrade to FIFO rather than panic in `instance`.
fn unfolded(ctx: &SchedContext<'_>) -> Option<(UnfoldedDag, Vec<usize>)> {
    let dag = UnfoldedDag::enumerate(ctx.program);
    let topo = dag.topo_order()?;
    Some((dag, topo))
}

/// Convert per-task f64 ranks (seconds) to the selector's integer ranks
/// (nanoseconds), keeping comparisons exact and platform-independent.
fn rank_selector(dag: &UnfoldedDag, ranks: &[f64]) -> Arc<dyn TaskSelector> {
    let table = dag
        .tasks
        .iter()
        .zip(ranks)
        .map(|(&key, &r)| (key, (r * 1e9).round() as i64))
        .collect();
    Arc::new(StaticRanks::new(table))
}

/// Upward ranks: `rank(i) = w(i) + max over out-edges (c(i,j) + rank(j))`,
/// computed in one reverse-topological sweep.
fn upward_ranks(dag: &UnfoldedDag, topo: &[usize], delay: &EdgeDelay) -> Vec<f64> {
    let adj = dag.out_adjacency();
    let mut rank = vec![0.0f64; dag.len()];
    for &i in topo.iter().rev() {
        let mut tail = 0.0f64;
        for &ei in &adj[i] {
            let e = &dag.edges[ei as usize];
            let same = dag.node_of(e.producer) == dag.node_of(e.consumer);
            tail = tail.max(edge_cost(delay, same, e.bytes) + rank[e.consumer]);
        }
        rank[i] = dag.cost_of(i) + tail;
    }
    rank
}

/// HEFT: dispatch by communication-aware upward rank (Topcuoglu et al.).
/// The deepest cost-weighted chain below a task — including the network
/// delays its flows will pay — runs first.
pub struct HeftScheduler;

impl Scheduler for HeftScheduler {
    fn name(&self) -> &str {
        "heft"
    }

    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        let Some((dag, topo)) = unfolded(ctx) else {
            return Arc::new(FifoSelector);
        };
        let ranks = upward_ranks(&dag, &topo, &edge_delay(ctx));
        rank_selector(&dag, &ranks)
    }
}

/// PEFT: dispatch by the optimistic cost table (Arabnejad & Barbosa),
/// specialized to the runtime's fixed owner-computes placement:
/// `OCT(i) = max over out-edges (OCT(j) + w(j) + c(i,j))`, i.e. the
/// longest remaining path *after* the task itself — its own service time
/// is optimistically excluded from its urgency, which is exactly where
/// PEFT's ordering departs from HEFT's.
pub struct PeftScheduler;

impl Scheduler for PeftScheduler {
    fn name(&self) -> &str {
        "peft"
    }

    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        let Some((dag, topo)) = unfolded(ctx) else {
            return Arc::new(FifoSelector);
        };
        let up = upward_ranks(&dag, &topo, &edge_delay(ctx));
        // OCT(i) = upward(i) - w(i): the recurrence above, collapsed.
        let oct: Vec<f64> = up
            .iter()
            .enumerate()
            .map(|(i, &r)| r - dag.cost_of(i))
            .collect();
        rank_selector(&dag, &oct)
    }
}

/// Dynamic-list scheduling: the static-level component of DLS (Sih &
/// Lee) — the communication-free bottom level `sl(i) = w(i) + max sl(j)`.
/// The dynamic component (earliest start time) is supplied by the ready
/// queue itself: a task only competes once its inputs arrived.
pub struct DlsScheduler;

impl Scheduler for DlsScheduler {
    fn name(&self) -> &str {
        "dls"
    }

    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        let Some((dag, topo)) = unfolded(ctx) else {
            return Arc::new(FifoSelector);
        };
        let ranks = upward_ranks(&dag, &topo, &None);
        rank_selector(&dag, &ranks)
    }
}

/// Depth-limited lookahead: rank a task by the heaviest
/// communication-aware chain within `depth` successors —
/// `r_0(i) = w(i)`, `r_d(i) = w(i) + max (c(i,j) + r_{d-1}(j))` — so
/// urgency reflects the near-term tasks a dispatch unlocks rather than
/// the whole remaining graph. With `depth >= ` the DAG's height this is
/// HEFT; at small depths it trades global critical-path pressure for
/// responsiveness to the current frontier.
pub struct LookaheadScheduler {
    /// Successor horizon (levels of lookahead); 0 ranks by own cost only.
    pub depth: u32,
}

impl Default for LookaheadScheduler {
    /// Three levels — enough to see a stencil tile's halo consumers and
    /// their consumers.
    fn default() -> Self {
        LookaheadScheduler { depth: 3 }
    }
}

impl Scheduler for LookaheadScheduler {
    fn name(&self) -> &str {
        "lookahead"
    }

    fn instance(&self, ctx: &SchedContext<'_>) -> Arc<dyn TaskSelector> {
        let Some((dag, _topo)) = unfolded(ctx) else {
            return Arc::new(FifoSelector);
        };
        let delay = edge_delay(ctx);
        let adj = dag.out_adjacency();
        let costs: Vec<f64> = (0..dag.len()).map(|i| dag.cost_of(i)).collect();
        // r_d depends only on r_{d-1}, so each horizon level is one full
        // sweep — no topological order needed.
        let mut prev = costs.clone();
        for _ in 0..self.depth {
            let mut next = costs.clone();
            for (i, adj_i) in adj.iter().enumerate() {
                let mut tail = 0.0f64;
                for &ei in adj_i {
                    let e = &dag.edges[ei as usize];
                    let same = dag.node_of(e.producer) == dag.node_of(e.consumer);
                    tail = tail.max(edge_cost(&delay, same, e.bytes) + prev[e.consumer]);
                }
                next[i] += tail;
            }
            prev = next;
        }
        rank_selector(&dag, &prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::ExplicitDag;
    use std::collections::HashMap as Map;

    /// 0 -> {1, 2}, 1 -> 3, 2 -> 3; unit costs, node 0 everywhere.
    fn diamond() -> Program {
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        edges.insert(0, vec![(1, 0), (2, 0)]);
        edges.insert(1, vec![(3, 0)]);
        edges.insert(2, vec![(3, 1)]);
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
            bound: [4, 1, 1, 1],
            edges,
            indeg: [(1, 1), (2, 1), (3, 2)].into_iter().collect(),
            node: Map::new(),
            cost: 1.0,
            bytes: 8,
        }));
        Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 4,
        }
    }

    fn ctx(p: &Program) -> SchedContext<'_> {
        SchedContext {
            program: p,
            profile: None,
            nodes: 1,
            lanes: 1,
        }
    }

    fn key(i: i32) -> TaskKey {
        TaskKey::new(0, [i, 0, 0, 0])
    }

    #[test]
    fn heft_ranks_are_upward_path_lengths() {
        let p = diamond();
        let sel = HeftScheduler.instance(&ctx(&p));
        // root sits on a 3-deep chain, mids on 2, the sink on 1 (seconds
        // scaled to integer nanoseconds).
        assert_eq!(sel.rank(key(0)), 3_000_000_000);
        assert_eq!(sel.rank(key(1)), 2_000_000_000);
        assert_eq!(sel.rank(key(2)), 2_000_000_000);
        assert_eq!(sel.rank(key(3)), 1_000_000_000);
    }

    #[test]
    fn peft_oct_excludes_own_cost() {
        let p = diamond();
        let heft = HeftScheduler.instance(&ctx(&p));
        let peft = PeftScheduler.instance(&ctx(&p));
        for i in 0..4 {
            assert_eq!(peft.rank(key(i)), heft.rank(key(i)) - 1_000_000_000);
        }
    }

    #[test]
    fn dls_ignores_comm_and_lookahead_truncates() {
        let p = diamond();
        let dls = DlsScheduler.instance(&ctx(&p));
        assert_eq!(dls.rank(key(0)), 3_000_000_000);
        // depth 0: own cost only
        let la0 = LookaheadScheduler { depth: 0 }.instance(&ctx(&p));
        assert_eq!(la0.rank(key(0)), 1_000_000_000);
        // depth 1: one successor level
        let la1 = LookaheadScheduler { depth: 1 }.instance(&ctx(&p));
        assert_eq!(la1.rank(key(0)), 2_000_000_000);
        // deep enough: equals HEFT (no profile, so comm-free)
        let la9 = LookaheadScheduler { depth: 9 }.instance(&ctx(&p));
        assert_eq!(la9.rank(key(0)), 3_000_000_000);
    }

    #[test]
    fn remote_edges_raise_heft_ranks_under_a_profile() {
        // 0 on node 0 feeds 1 on node 1: the edge pays network delay.
        let mut edges: Map<i32, Vec<(i32, usize)>> = Map::new();
        edges.insert(0, vec![(1, 0)]);
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(ExplicitDag {
            name: "t".into(),
            bound: [2, 1, 1, 1],
            edges,
            indeg: [(1, 1)].into_iter().collect(),
            node: [(1, 1)].into_iter().collect(),
            cost: 1.0,
            bytes: 1 << 20,
        }));
        let p = Program {
            graph: Arc::new(g),
            roots: vec![TaskKey::new(0, [0, 0, 0, 0])],
            total_tasks: 2,
        };
        let profile = MachineProfile::nacl();
        let remote_ctx = SchedContext {
            program: &p,
            profile: Some(&profile),
            nodes: 2,
            lanes: 1,
        };
        let with_net = HeftScheduler.instance(&remote_ctx);
        let without = HeftScheduler.instance(&ctx(&p));
        assert!(
            with_net.rank(key(0)) > without.rank(key(0)),
            "remote edge must add network delay: {} vs {}",
            with_net.rank(key(0)),
            without.rank(key(0))
        );
        let net = NetworkModel::from_profile(&profile);
        let expected = 2.0 + 2.0 * profile.runtime_msg_cost + net.transfer_time(1 << 20);
        assert_eq!(with_net.rank(key(0)), (expected * 1e9).round() as i64);
    }

    #[test]
    fn policy_shim_names_and_selectors() {
        let p = diamond();
        assert_eq!(Scheduler::name(&SchedulerPolicy::Fifo), "fifo");
        assert_eq!(Scheduler::name(&SchedulerPolicy::Lifo), "lifo");
        assert_eq!(Scheduler::name(&SchedulerPolicy::Priority), "priority");
        assert_eq!(
            SchedulerPolicy::Fifo.instance(&ctx(&p)).mode(),
            SelectMode::Fifo
        );
        assert_eq!(
            SchedulerPolicy::Lifo.instance(&ctx(&p)).mode(),
            SelectMode::Lifo
        );
        let pri = SchedulerPolicy::Priority.instance(&ctx(&p));
        assert_eq!(pri.mode(), SelectMode::Rank);
        assert_eq!(pri.rank(key(0)), 0, "ExplicitDag declares no priority");
    }

    #[test]
    fn portfolio_is_stable_and_resolvable() {
        let names: Vec<String> = SchedulerHandle::portfolio()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "fifo",
                "lifo",
                "priority",
                "heft",
                "peft",
                "dls",
                "lookahead"
            ]
        );
        for n in &names {
            assert_eq!(SchedulerHandle::by_name(n).unwrap().name(), n);
        }
        assert!(SchedulerHandle::by_name("nope").is_none());
        assert_eq!(SchedulerHandle::default().name(), "fifo");
        assert_eq!(
            format!("{:?}", SchedulerHandle::new(HeftScheduler)),
            "SchedulerHandle(\"heft\")"
        );
    }

    #[test]
    fn placement_hook_defaults_to_owner_computes() {
        let p = diamond();
        let sel = HeftScheduler.instance(&ctx(&p));
        assert_eq!(sel.place(key(0)), None);
    }
}
