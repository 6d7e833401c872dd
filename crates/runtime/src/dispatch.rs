//! The work-stealing dispatch substrate of the threaded executor.
//!
//! One [`NodeQueues`] per node replaces the old central
//! `Mutex<ReadyQueue>` + token channel: each worker lane owns a local
//! queue it pushes and pops without contention, the global
//! [`ReadyQueue`] survives only as the *injector* — the overflow and
//! external-release queue — and a worker that runs dry sweeps the other
//! lanes' queues as a thief, in a victim order drawn from a seeded
//! per-worker RNG so a fixed [`crate::RunConfig::steal_seed`] reproduces
//! the same victim sequence run over run.
//!
//! The local queue comes in two flavors, chosen by the run's
//! [`SchedulerPolicy`]:
//!
//! * **Fifo / Lifo** — a lock-free bounded Chase–Lev [`StealDeque`];
//!   the owner pops the top (FIFO) or bottom (LIFO) end, thieves always
//!   steal the top (oldest) end. A full deque spills to the injector
//!   (counted as an overflow push).
//! * **Priority** — a per-lane `Mutex<ReadyQueue>` heap: priority order
//!   with FIFO-by-seq ties is preserved *per queue*, which a lock-free
//!   ring cannot express; sharding the lock per lane keeps contention
//!   off the hot path, and a thief simply pops the victim's
//!   highest-priority task.
//!
//! Parking is a sleeper-counted `Condvar` gate ([`Parker`]): a producer
//! pushes, issues a `SeqCst` fence and touches the gate only when the
//! sleeper count says somebody is parked; a consumer raises the count,
//! issues its own `SeqCst` fence and re-checks for work under the gate
//! before waiting. The two fences make it impossible for both sides to
//! miss each other, so the common push — nobody parked — costs no mutex
//! and no `futex_wake`. The wait still carries a timeout so stall
//! detection and shutdown flags are observed even without a notify.
//!
//! The module also holds the worker loop and its task-completion routine
//! ([`worker`]): execute → span → route outputs → release successors, out
//! of per-worker scratch that is reused from task to task (see
//! `docs/EXECUTOR.md` for the allocation ledger).
//!
//! Every lane keeps three cumulative counters — `steals`,
//! `steal_fails`, `overflow_pushes` — surfaced per node in
//! [`obs::LiveSample`] and as end-of-run metrics, and a busy clock
//! ([`obs::BusyClock`]) the live sampler reads for the lane's busy
//! fraction.

use crate::deque::{Steal, StealDeque};
use crate::pending::{Delivery, DeliveryBatch, PendingTable, ReadyTask};
use crate::ready_queue::ReadyQueue;
use crate::scheduler::SchedulerPolicy;
use crate::task::{FlowData, OutputDep, Program, TaskGraph};
#[cfg(loom)]
use loom::sync::{
    atomic::{fence, AtomicUsize},
    Condvar, Mutex as GateMutex,
};
use obs::{names, BusyClock, LocalRecorder, Metrics, WallClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
#[cfg(not(loom))]
use std::sync::{
    atomic::{fence, AtomicUsize},
    Condvar, Mutex as GateMutex,
};
use std::time::Duration;

/// Capacity of each worker's local deque before pushes spill to the
/// injector. Sized so a stencil wavefront per worker fits comfortably;
/// spilling is correct, just slower, so this is a performance knob, not
/// a correctness bound.
pub(crate) const LOCAL_QUEUE_CAP: usize = 256;

/// Cumulative per-lane dispatch counters and the lane's busy clock
/// (relaxed atomics: telemetry, not synchronization). Only the lane's
/// own worker writes them, so they get a cache line of their own.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct LaneStats {
    /// Tasks this lane obtained from another lane's queue.
    pub steals: AtomicU64,
    /// Full sweeps (own queue + injector + every victim) that found
    /// nothing — the "no work anywhere" signal starvation attribution
    /// keys on.
    pub steal_fails: AtomicU64,
    /// Local pushes that found the deque full and spilled to the
    /// injector.
    pub overflow_pushes: AtomicU64,
    /// The lane's [`BusyClock`] as bits: one plain store per transition,
    /// since the worker is its only writer.
    pub busy: AtomicU64,
}

/// Totals of the per-lane counters, for samplers and end-of-run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StealTotals {
    pub steals: u64,
    pub steal_fails: u64,
    pub overflow_pushes: u64,
}

impl StealTotals {
    /// Add the totals to the run's `steals` / `steal_fails` /
    /// `overflow_pushes` counters.
    pub(crate) fn publish(&self, metrics: &Metrics) {
        metrics.counter(names::STEALS).add(self.steals);
        metrics.counter(names::STEAL_FAILS).add(self.steal_fails);
        metrics
            .counter(names::OVERFLOW_PUSHES)
            .add(self.overflow_pushes);
    }
}

/// `xorshift64*` per-worker RNG for victim selection: deterministic for
/// a fixed `(seed, lane)`, decorrelated across lanes by a splitmix64
/// scramble of the lane index.
pub(crate) struct WorkerRng {
    state: u64,
}

impl WorkerRng {
    pub(crate) fn new(seed: u64, lane: u64) -> Self {
        // splitmix64 of seed ^ lane; never zero (xorshift fixpoint).
        let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        WorkerRng { state: z.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The push/park handshake: a `Condvar` gate that producers touch only
/// while somebody is actually parked.
///
/// Protocol — a Dekker-style flag pair, each side writing its own flag,
/// fencing, then reading the other's:
///
/// * producer: publish the task, `fence(SeqCst)`, read `sleepers`; only
///   when it is non-zero take the gate and notify;
/// * consumer: increment `sleepers`, `fence(SeqCst)`, take the gate,
///   re-check for work, wait (which releases the gate atomically).
///
/// Whichever fence comes first in the `SeqCst` order, the other side sees
/// the write before it: either the consumer's re-check finds the task, or
/// the producer finds the sleeper — and then blocks on the gate until the
/// consumer is inside `wait`, so the notify cannot fall into the
/// check-then-wait window. Under `--cfg loom` the primitives come from
/// the `loom` facade (model in `crate::loom_model`).
pub(crate) struct Parker {
    sleepers: AtomicUsize,
    gate: GateMutex<()>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            sleepers: AtomicUsize::new(0),
            gate: GateMutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Producer side, called *after* the new task is published: wake one
    /// parked consumer if there is any.
    pub(crate) fn unpark_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_one();
        }
    }

    /// Wake every parked consumer (shutdown / final-task broadcast).
    pub(crate) fn unpark_all(&self) {
        let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Consumer side: park until notified or `timeout`, unless
    /// `work_visible` (evaluated under the gate, after this thread is
    /// counted as a sleeper) already reports work.
    pub(crate) fn park(&self, timeout: Duration, work_visible: impl FnOnce() -> bool) {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if !work_visible() {
            drop(
                self.cv
                    .wait_timeout(guard, timeout)
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

enum LocalQueue {
    Stealable(StealDeque<ReadyTask>),
    Ranked(Mutex<ReadyQueue>),
}

impl LocalQueue {
    fn len(&self) -> usize {
        match self {
            LocalQueue::Stealable(d) => d.len(),
            LocalQueue::Ranked(q) => q.lock().len(),
        }
    }
}

struct Lane {
    queue: LocalQueue,
    stats: LaneStats,
}

/// One node's dispatch state: per-lane local queues, the injector, and
/// the parking gate.
pub(crate) struct NodeQueues {
    lanes: Vec<Lane>,
    injector: Mutex<ReadyQueue>,
    /// Tasks in the injector: written under its lock, read without it,
    /// so the common "injector empty" poll takes no lock.
    injector_len: AtomicUsize,
    policy: SchedulerPolicy,
    parker: Parker,
}

impl NodeQueues {
    /// Queues for `lanes` workers ordered by `policy` over `graph`'s
    /// classes.
    pub(crate) fn new(policy: SchedulerPolicy, graph: &Arc<TaskGraph>, lanes: usize) -> Self {
        let lanes = (0..lanes)
            .map(|_| Lane {
                queue: match policy {
                    SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => {
                        LocalQueue::Stealable(StealDeque::with_capacity(LOCAL_QUEUE_CAP))
                    }
                    SchedulerPolicy::Priority => {
                        LocalQueue::Ranked(Mutex::new(ReadyQueue::new(policy, Arc::clone(graph))))
                    }
                },
                stats: LaneStats::default(),
            })
            .collect();
        NodeQueues {
            lanes,
            injector: Mutex::new(ReadyQueue::new(policy, Arc::clone(graph))),
            injector_len: AtomicUsize::new(0),
            policy,
            parker: Parker::new(),
        }
    }

    /// Wake every parked worker (shutdown / final-task broadcast).
    pub(crate) fn wake_all(&self) {
        self.parker.unpark_all();
    }

    fn push_injector(&self, task: Box<ReadyTask>) {
        let mut injector = self.injector.lock();
        injector.push(task);
        self.injector_len.store(injector.len(), Ordering::Relaxed);
    }

    fn pop_injector(&self) -> Option<Box<ReadyTask>> {
        if self.injector_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut injector = self.injector.lock();
        let task = injector.pop();
        self.injector_len.store(injector.len(), Ordering::Relaxed);
        task
    }

    /// A worker submits a task released by its own completion: lands in
    /// the lane's local queue, spilling to the injector when the deque
    /// is full.
    pub(crate) fn push_local(&self, lane: usize, task: Box<ReadyTask>) {
        match &self.lanes[lane].queue {
            LocalQueue::Stealable(d) => {
                if let Err(task) = d.push(task) {
                    self.lanes[lane]
                        .stats
                        .overflow_pushes
                        .fetch_add(1, Ordering::Relaxed);
                    self.push_injector(task);
                }
            }
            LocalQueue::Ranked(q) => q.lock().push(task),
        }
        self.parker.unpark_one();
    }

    /// An external release (root task, comm-thread delivery) lands in
    /// the injector.
    pub(crate) fn push_external(&self, task: Box<ReadyTask>) {
        self.push_injector(task);
        self.parker.unpark_one();
    }

    /// `lane`'s next task: own queue, then the injector, then a steal
    /// sweep over the other lanes in RNG order. `None` after a full
    /// failed sweep (counted as a steal fail).
    pub(crate) fn next_task(&self, lane: usize, rng: &mut WorkerRng) -> Option<Box<ReadyTask>> {
        if let Some(t) = self.pop_own(lane) {
            return Some(t);
        }
        if let Some(t) = self.pop_injector() {
            return Some(t);
        }
        let n = self.lanes.len();
        if n > 1 {
            let offset = (rng.next() % (n as u64 - 1)) as usize;
            for i in 0..n - 1 {
                let victim = (lane + 1 + (offset + i) % (n - 1)) % n;
                if let Some(t) = self.steal_from(victim) {
                    self.lanes[lane]
                        .stats
                        .steals
                        .fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        self.lanes[lane]
            .stats
            .steal_fails
            .fetch_add(1, Ordering::Relaxed);
        None
    }

    fn pop_own(&self, lane: usize) -> Option<Box<ReadyTask>> {
        match &self.lanes[lane].queue {
            // FIFO pops the steal (oldest) end so dispatch order matches
            // the old central queue; LIFO pops the cache-warm bottom.
            LocalQueue::Stealable(d) => match self.policy {
                SchedulerPolicy::Lifo => d.pop(),
                _ => d.pop_top(),
            },
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    fn steal_from(&self, victim: usize) -> Option<Box<ReadyTask>> {
        match &self.lanes[victim].queue {
            LocalQueue::Stealable(d) => loop {
                match d.steal() {
                    Steal::Success(t) => return Some(t),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => return None,
                }
            },
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    /// Park until notified or `timeout`, re-checking emptiness under the
    /// gate so a concurrent push cannot be missed. Returns immediately
    /// when work is already visible or `stop` (the caller's shutdown
    /// flag, set before [`NodeQueues::wake_all`]) already holds.
    pub(crate) fn park(&self, timeout: Duration, stop: impl FnOnce() -> bool) {
        self.parker.park(timeout, || self.len() > 0 || stop());
    }

    /// Tasks currently queued on this node (all local queues plus the
    /// injector) — the `ready_depth` live gauge.
    pub(crate) fn len(&self) -> usize {
        let local: usize = self.lanes.iter().map(|l| l.queue.len()).sum();
        local + self.injector_len.load(Ordering::Relaxed)
    }

    /// What `lane` can see without looking at its peers: its own queue
    /// plus the injector. This is what the real engines publish as
    /// `obs::names::QUEUE_DEPTH`.
    pub(crate) fn depth(&self, lane: usize) -> usize {
        self.lanes[lane].queue.len() + self.injector_len.load(Ordering::Relaxed)
    }

    /// Publish `lane`'s busy clock for the sampler.
    fn publish_busy(&self, lane: usize, clock: BusyClock) {
        self.lanes[lane]
            .stats
            .busy
            .store(clock.to_bits(), Ordering::Relaxed);
    }

    /// Each lane's busy clock as last published.
    pub(crate) fn busy_clocks(&self) -> impl Iterator<Item = BusyClock> + '_ {
        self.lanes
            .iter()
            .map(|l| BusyClock::from_bits(l.stats.busy.load(Ordering::Relaxed)))
    }

    /// Cumulative steal/overflow counters summed over this node's lanes.
    pub(crate) fn totals(&self) -> StealTotals {
        let mut t = StealTotals::default();
        for l in &self.lanes {
            t.steals += l.stats.steals.load(Ordering::Relaxed);
            t.steal_fails += l.stats.steal_fails.load(Ordering::Relaxed);
            t.overflow_pushes += l.stats.overflow_pushes.load(Ordering::Relaxed);
        }
        t
    }
}

/// Run-wide state every thread of a threaded run shares.
pub(crate) struct RunShared<'p> {
    pub(crate) program: &'p Program,
    /// The run's one activation table, shared by every node's workers and
    /// comm thread.
    pub(crate) pending: PendingTable,
    /// Tasks completed so far; reaching `program.total_tasks` ends the run.
    pub(crate) completed: AtomicU64,
    /// Set by the worker that completed the last task, or by a thread
    /// unwinding from a panic.
    pub(crate) done: AtomicBool,
    /// `clock` reading when the last task completed: the run's horizon.
    pub(crate) finished_ns: AtomicU64,
    pub(crate) metrics: Metrics,
    pub(crate) clock: WallClock,
}

impl<'p> RunShared<'p> {
    pub(crate) fn new(program: &'p Program) -> Self {
        RunShared {
            program,
            pending: PendingTable::new(&program.graph),
            completed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            finished_ns: AtomicU64::new(0),
            metrics: Metrics::new(),
            clock: WallClock::start(),
        }
    }
}

/// What one worker counted, added to the run's [`Metrics`] once, when the
/// worker exits — the per-task path touches no shared instrument but its
/// own lane's busy clock.
#[derive(Default)]
struct Tally {
    /// This lane's busy clock, published at every start and stop.
    busy: BusyClock,
    tasks: u64,
    /// Flows this worker delivered into the activation table.
    activations: u64,
    redundant_flops: u64,
    messages: u64,
    bytes: u64,
    depth_max: usize,
    depth_last: usize,
}

impl Tally {
    /// Instruments are created only for what was counted, so a run's
    /// snapshot has the same keys as when every event bumped its counter
    /// directly.
    fn publish(&self, metrics: &Metrics) {
        metrics.counter(names::TASKS_EXECUTED).add(self.tasks);
        metrics.counter(names::ACTIVATIONS).add(self.activations);
        if self.redundant_flops > 0 {
            metrics
                .counter(names::REDUNDANT_FLOPS)
                .add(self.redundant_flops);
        }
        if self.messages > 0 {
            metrics.counter(names::MESSAGES_SENT).add(self.messages);
            metrics.counter(names::BYTES_SENT).add(self.bytes);
        }
        let depth = metrics.gauge(names::QUEUE_DEPTH);
        depth.set(self.depth_max as i64);
        depth.set(self.depth_last as i64);
    }
}

/// A worker's reusable buffers: cleared, never freed, between tasks.
#[derive(Default)]
struct Scratch {
    deps: Vec<OutputDep>,
    flows: Vec<FlowData>,
    batch: DeliveryBatch,
}

/// Identity of one worker thread and the handle it records through.
pub(crate) struct WorkerId {
    pub(crate) node: u32,
    pub(crate) lane: u32,
    pub(crate) steal_seed: u64,
    pub(crate) local: LocalRecorder,
}

/// Runs its closure when dropped during a panic, and never otherwise.
pub(crate) struct OnUnwind<F: FnMut()>(pub(crate) F);

impl<F: FnMut()> Drop for OnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// The worker loop of the threaded engine: pop (own queue → injector →
/// steal), complete, park when dry, until the run is over.
///
/// `ship` is the one placement-specific branch: it is offered every output
/// flow together with the producing task's kind, and either returns it
/// (the consumer lives on this node) or sends it to another node and
/// returns `None`. `shutdown` wakes every thread of the run after
/// `run.done` is set: on the worker that completed the final task, or on
/// a worker that is unwinding.
///
/// Panics — failing the run loudly instead of hanging — when a task body
/// panics, or when ~10 s pass without any task completing anywhere (an
/// inconsistent graph). Either way the unwinding worker ends the run for
/// every other thread, so the panic surfaces at once.
pub(crate) fn worker(
    run: &RunShared<'_>,
    node: &NodeQueues,
    mut id: WorkerId,
    mut ship: impl FnMut(Delivery, u32) -> Option<Delivery>,
    shutdown: impl Fn(),
) {
    let _abort = OnUnwind(|| {
        run.done.store(true, Ordering::Release);
        shutdown();
    });
    let mut rng = WorkerRng::new(id.steal_seed, id.lane as u64);
    let mut scratch = Scratch::default();
    let mut tally = Tally::default();
    let mut idle_rounds = 0u32;
    let mut last_seen = run.completed.load(Ordering::Acquire);
    while !run.done.load(Ordering::Acquire) {
        if let Some(task) = node.next_task(id.lane as usize, &mut rng) {
            idle_rounds = 0;
            if complete(
                run,
                node,
                &mut id,
                task,
                &mut scratch,
                &mut tally,
                &mut ship,
            ) {
                run.finished_ns.store(run.clock.now_ns(), Ordering::Release);
                run.done.store(true, Ordering::Release);
                shutdown();
            }
            continue;
        }
        node.park(Duration::from_millis(50), || {
            run.done.load(Ordering::Acquire)
        });
        let now = run.completed.load(Ordering::Acquire);
        if now == last_seen {
            idle_rounds += 1;
        } else {
            idle_rounds = 0;
            last_seen = now;
        }
        if idle_rounds > 200 {
            panic!(
                "node {} worker {} stalled: {now}/{} tasks done, {} pending (first stuck: {:?})",
                id.node,
                id.lane,
                run.program.total_tasks,
                run.pending.len(),
                run.pending.waiting(&run.program.graph).next()
            );
        }
    }
    tally.publish(&run.metrics);
}

/// Execute one ready task, record its span, route its output flows
/// (node-local ones as one batch whose released successors land in this
/// lane's own queue). Returns true when this was the run's final task.
fn complete(
    run: &RunShared<'_>,
    node: &NodeQueues,
    id: &mut WorkerId,
    mut task: Box<ReadyTask>,
    scratch: &mut Scratch,
    tally: &mut Tally,
    ship: &mut impl FnMut(Delivery, u32) -> Option<Delivery>,
) -> bool {
    let graph = &run.program.graph;
    let key = task.key;
    let class = graph.class(key.class);
    let kind = graph.kind_of(key);
    let lane = id.lane as usize;
    let start_ns = run.clock.now_ns();
    tally.busy.start(start_ns);
    node.publish_busy(lane, tally.busy);
    class.execute(key.params, &mut task.inputs, &mut scratch.flows);
    let end_ns = run.clock.now_ns();
    tally.busy.stop(end_ns);
    node.publish_busy(lane, tally.busy);
    id.local
        .task_instance(id.node, id.lane, kind, key.instance_id(), start_ns, end_ns);
    // The body is done with its inputs: retire the box now, so the first
    // pending entry this completion creates can already reuse it.
    scratch.batch.recycle(task);
    class.outputs(key.params, &mut scratch.deps);
    for dep in scratch.deps.drain(..) {
        let data = scratch
            .flows
            .get(dep.flow)
            .unwrap_or_else(|| {
                panic!(
                    "{key:?}: execute produced {} flows but outputs reference flow {}",
                    scratch.flows.len(),
                    dep.flow
                )
            })
            .clone();
        let bytes = data.bytes as u64;
        let delivery = Delivery {
            consumer: dep.consumer,
            slot: dep.slot,
            data,
        };
        match ship(delivery, kind) {
            Some(local) => {
                scratch.batch.push(local);
                tally.activations += 1;
            }
            None => {
                tally.messages += 1;
                tally.bytes += bytes;
            }
        }
    }
    // Drop the producer's references first, so each payload's last owner
    // is its consumer and the buffer is recycled where it is consumed.
    scratch.flows.clear();
    run.pending
        .deliver_batch(graph, &mut scratch.batch, |t| node.push_local(lane, t));
    tally.tasks += 1;
    tally.redundant_flops += class.redundant_flops(key.params);
    tally.depth_last = node.depth(lane);
    tally.depth_max = tally.depth_max.max(tally.depth_last);
    run.completed.fetch_add(1, Ordering::AcqRel) + 1 == run.program.total_tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::prioritized;
    use crate::task::TaskKey;

    fn task(i: i32) -> Box<ReadyTask> {
        Box::new(ReadyTask {
            key: TaskKey::new(0, [i, 0, 0, 0]),
            inputs: Vec::new(),
        })
    }

    fn drain(q: &NodeQueues, lane: usize) -> Vec<i32> {
        let mut rng = WorkerRng::new(7, lane as u64);
        std::iter::from_fn(|| q.next_task(lane, &mut rng))
            .map(|t| t.key.params[0])
            .collect()
    }

    #[test]
    fn local_fifo_preserves_push_order() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 1);
        for i in 0..5 {
            q.push_local(0, task(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&q, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn local_lifo_reverses_push_order() {
        let q = NodeQueues::new(SchedulerPolicy::Lifo, &prioritized(&[]), 1);
        for i in 0..5 {
            q.push_local(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn ranked_lane_pops_by_rank_with_fifo_ties() {
        let graph = prioritized(&[(0, 0), (1, 5), (2, 0), (3, 5)]);
        let q = NodeQueues::new(SchedulerPolicy::Priority, &graph, 1);
        for i in 0..4 {
            q.push_local(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn empty_lane_steals_from_the_loaded_one() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 4);
        for i in 0..8 {
            q.push_local(0, task(i));
        }
        let mut rng = WorkerRng::new(42, 3);
        let got = q.next_task(3, &mut rng).expect("steal finds work");
        // Steals take the victim's oldest task.
        assert_eq!(got.key.params[0], 0);
        assert_eq!(q.totals().steals, 1);
        assert_eq!(q.totals().steal_fails, 0);
    }

    #[test]
    fn failed_sweep_counts_a_steal_fail() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 3);
        let mut rng = WorkerRng::new(1, 0);
        assert!(q.next_task(0, &mut rng).is_none());
        assert_eq!(q.totals().steal_fails, 1);
    }

    #[test]
    fn injector_feeds_any_lane() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 2);
        q.push_external(task(9));
        let mut rng = WorkerRng::new(1, 1);
        assert_eq!(q.next_task(1, &mut rng).unwrap().key.params[0], 9);
    }

    #[test]
    fn overflow_spills_to_injector_and_nothing_is_lost() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 1);
        let n = (LOCAL_QUEUE_CAP + 10) as i32;
        for i in 0..n {
            q.push_local(0, task(i));
        }
        assert_eq!(q.totals().overflow_pushes, 10);
        assert_eq!(q.len(), n as usize);
        let drained = drain(&q, 0);
        assert_eq!(drained.len(), n as usize);
        // Every task appears exactly once.
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn victim_order_is_seed_stable() {
        let order = |seed: u64| {
            let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 8);
            // One task on every other lane; record which victim lane 0's
            // successive sweeps hit first.
            for lane in 1..8 {
                q.push_local(lane, task(lane as i32));
            }
            let mut rng = WorkerRng::new(seed, 0);
            std::iter::from_fn(|| q.next_task(0, &mut rng))
                .map(|t| t.key.params[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(order(123), order(123), "same seed, same victim order");
        assert_eq!(order(123).len(), 7);
    }

    #[test]
    fn sleeper_gated_notify_loses_no_wakeup_over_ten_thousand_handoffs() {
        // Two lanes hand a single task back and forth: each side pushes
        // into its own lane, then parks (2 s timeout) until the peer's
        // reply can be stolen. The waiter really sleeps — its own lane is
        // empty once the peer took the task — so every round races one
        // push against one park. A lost wake-up costs a full timeout, so
        // no park may last that long. (Each park is timed on its own: the
        // rounds' total also grows with whatever else shares the cores.)
        const ROUNDS: i32 = 10_000;
        const TIMEOUT: Duration = Duration::from_secs(2);
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 2);
        let recv = |q: &NodeQueues, from: usize| loop {
            if let Some(t) = q.steal_from(from) {
                return t.key.params[0];
            }
            let parked = std::time::Instant::now();
            q.park(TIMEOUT, || false);
            let slept = parked.elapsed();
            assert!(slept < TIMEOUT, "a park slept {slept:?}: wake-up lost");
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..ROUNDS {
                    q.push_local(0, task(i));
                    assert_eq!(recv(&q, 1), i);
                }
            });
            s.spawn(|| {
                for i in 0..ROUNDS {
                    assert_eq!(recv(&q, 0), i);
                    q.push_local(1, task(i));
                }
            });
        });
    }

    #[test]
    fn injector_length_tracks_pushes_and_pops_without_the_lock() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 2);
        assert_eq!(q.depth(0), 0);
        q.push_external(task(1));
        q.push_local(0, task(2));
        // Lane 0 sees its own task and the injector's; lane 1 only the
        // injector's; the node-wide length counts both once.
        assert_eq!((q.depth(0), q.depth(1), q.len()), (2, 1, 2));
        assert_eq!(drain(&q, 1), vec![1, 2]);
        assert_eq!((q.depth(0), q.len()), (0, 0));
    }

    #[test]
    fn park_returns_promptly_when_work_is_queued() {
        let q = NodeQueues::new(SchedulerPolicy::Fifo, &prioritized(&[]), 1);
        q.push_external(task(0));
        let start = std::time::Instant::now();
        q.park(Duration::from_secs(5), || false);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
