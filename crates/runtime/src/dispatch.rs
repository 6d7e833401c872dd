//! The work-stealing dispatch substrate of the threaded executor.
//!
//! One [`NodeQueues`] per node replaces the old central
//! `Mutex<ReadyQueue>` + token channel: each worker lane owns a local
//! queue it pushes and pops without contention and an *inbox* — a
//! [`ReadyQueue`] behind a lock — that every other thread pushes into. A
//! worker that runs dry sweeps the other lanes as a thief, in a victim
//! order drawn from a seeded per-worker RNG so a fixed
//! [`crate::RunConfig::steal_seed`] reproduces the same victim sequence
//! run over run.
//!
//! **The home rule.** A task whose class names a home lane
//! ([`crate::TaskClass::home`], PaRSEC's affinity clause) is queued on
//! that lane: a release by the home lane itself goes onto its own queue,
//! a release by any other lane, a root and a comm-thread delivery go into
//! the home lane's inbox. A task without a home stays on the lane that
//! released it; an external one enters lane 0's inbox. So a tile's
//! iterates, its pending entries and its strip payloads stay with one
//! core, and stealing is the idle path only.
//!
//! The local queue comes in two flavors, chosen by the run's
//! [`SchedulerPolicy`]:
//!
//! * **Fifo / Lifo** — a lock-free bounded Chase–Lev [`StealDeque`]
//!   beside the inbox; the owner pops the deque's top (FIFO) or bottom
//!   (LIFO) end and then its inbox, thieves steal the deque's top (oldest)
//!   end and then the inbox. A full deque spills to the lane's own inbox
//!   (counted as an overflow push).
//! * **Priority** — a per-lane `Mutex<ReadyQueue>` heap, which doubles as
//!   the lane's inbox: priority order with FIFO-by-seq ties is preserved
//!   *per queue*, which a lock-free ring cannot express; sharding the
//!   lock per lane keeps contention off the hot path, and a thief simply
//!   pops the victim's highest-priority task.
//!
//! Parking is a sleeper-counted `Condvar` gate ([`Parker`]): a producer
//! pushes, issues a `SeqCst` fence and touches the gate only when the
//! sleeper count says somebody is parked; a consumer raises the count,
//! issues its own `SeqCst` fence and re-checks every lane's queue and
//! inbox under the gate before waiting. The two fences make it impossible
//! for both sides to miss each other, so the common push — nobody parked
//! — costs no mutex and no `futex_wake`. The wait still carries a timeout
//! so stall detection and shutdown flags are observed even without a
//! notify.
//!
//! The module also holds the worker loop and its task-completion routine
//! ([`worker`]): execute → span → route outputs → release successors, out
//! of per-worker scratch that is reused from task to task (see
//! `docs/EXECUTOR.md` for the allocation ledger).
//!
//! Every lane keeps four cumulative counters — `steals`, `steal_fails`,
//! `overflow_pushes`, `home_hits` — surfaced per node in
//! [`obs::LiveSample`] and as end-of-run metrics, and a busy clock
//! ([`obs::BusyClock`]) the live sampler reads for the lane's busy
//! fraction.

use crate::deque::{Steal, StealDeque};
use crate::exec::RunCounts;
use crate::pending::{Delivery, DeliveryBatch, PendingTable, ReadyTask};
use crate::ready_queue::ReadyQueue;
use crate::scheduler::SchedulerPolicy;
use crate::task::{FlowData, OutputDep, Program, TaskGraph};
#[cfg(loom)]
use loom::sync::{
    atomic::{fence, AtomicUsize},
    Condvar, Mutex as GateMutex,
};
use obs::{BusyClock, LocalRecorder, WallClock};
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
/// lane's inbox. Sized so a stencil wavefront per worker fits
/// comfortably; spilling is correct, just slower, so this is a
/// performance knob, not a correctness bound.
pub(crate) const LOCAL_QUEUE_CAP: usize = 256;

/// A value on a cache line of its own, so the cores that write it do not
/// evict the lines of its neighbours from other cores' caches (the
/// vendored crossbeam has no `CachePadded`).
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Cumulative per-lane dispatch counters and the lane's busy clock
/// (relaxed atomics: telemetry, not synchronization). Only the lane's
/// own worker writes them, so they get a cache line of their own.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct LaneStats {
    /// Tasks this lane obtained from another lane's deque or inbox.
    pub steals: AtomicU64,
    /// Full sweeps (own deque + own inbox + every victim) that found
    /// nothing — the "no work anywhere" signal starvation attribution
    /// keys on.
    pub steal_fails: AtomicU64,
    /// Local pushes that found the deque full and spilled to the lane's
    /// inbox.
    pub overflow_pushes: AtomicU64,
    /// Tasks this lane ran whose [`crate::TaskClass::home`] is this lane.
    pub home_hits: AtomicU64,
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
    pub home_hits: u64,
}

impl std::ops::AddAssign for StealTotals {
    fn add_assign(&mut self, other: Self) {
        self.steals += other.steals;
        self.steal_fails += other.steal_fails;
        self.overflow_pushes += other.overflow_pushes;
        self.home_hits += other.home_hits;
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

/// A lane's inbox: the locked queue that every thread but the lane's
/// owner pushes into (releases bound for this lane, roots, comm-thread
/// deliveries) and that the owner's full deque spills into. Its length
/// is mirrored in an atomic on a line of its own, so the common "inbox
/// empty" poll takes no lock.
struct Inbox {
    queue: Mutex<ReadyQueue>,
    /// Written under the lock, read without it.
    len: Padded<AtomicUsize>,
}

impl Inbox {
    fn push(&self, task: Box<ReadyTask>) {
        let mut queue = self.queue.lock();
        queue.push(task);
        self.len.store(queue.len(), Ordering::Relaxed);
    }

    fn pop(&self) -> Option<Box<ReadyTask>> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut queue = self.queue.lock();
        let task = queue.pop();
        self.len.store(queue.len(), Ordering::Relaxed);
        task
    }
}

enum LocalQueue {
    /// Fifo / Lifo: the owner's lock-free deque and the lane's inbox.
    Stealable {
        deque: StealDeque<ReadyTask>,
        inbox: Inbox,
    },
    /// Priority: one locked heap takes the owner's pushes and everyone
    /// else's, so it is the lane's inbox too.
    Ranked(Mutex<ReadyQueue>),
}

impl LocalQueue {
    fn len(&self) -> usize {
        match self {
            LocalQueue::Stealable { deque, inbox } => {
                deque.len() + inbox.len.load(Ordering::Relaxed)
            }
            LocalQueue::Ranked(q) => q.lock().len(),
        }
    }
}

struct Lane {
    queue: LocalQueue,
    stats: LaneStats,
}

/// One node's dispatch state: per-lane local queues and inboxes, and the
/// parking gate.
pub(crate) struct NodeQueues {
    lanes: Vec<Lane>,
    /// The classes whose [`crate::TaskClass::home`] routes each task.
    graph: Arc<TaskGraph>,
    policy: SchedulerPolicy,
    parker: Parker,
}

impl NodeQueues {
    /// Queues for `lanes` workers ordered by `policy` over `graph`'s
    /// classes.
    pub(crate) fn new(policy: SchedulerPolicy, graph: &Arc<TaskGraph>, lanes: usize) -> Self {
        let ready = || Mutex::new(ReadyQueue::new(policy, Arc::clone(graph)));
        let lanes = (0..lanes)
            .map(|_| Lane {
                queue: match policy {
                    SchedulerPolicy::Fifo | SchedulerPolicy::Lifo => LocalQueue::Stealable {
                        deque: StealDeque::with_capacity(LOCAL_QUEUE_CAP),
                        inbox: Inbox {
                            queue: ready(),
                            len: Padded::default(),
                        },
                    },
                    SchedulerPolicy::Priority => LocalQueue::Ranked(ready()),
                },
                stats: LaneStats::default(),
            })
            .collect();
        NodeQueues {
            lanes,
            graph: Arc::clone(graph),
            policy,
            parker: Parker::new(),
        }
    }

    /// Wake every parked worker (shutdown / final-task broadcast).
    pub(crate) fn wake_all(&self) {
        self.parker.unpark_all();
    }

    /// The lane that owns `task`'s data, if its class names one.
    fn home(&self, task: &ReadyTask) -> Option<usize> {
        let lanes = self.lanes.len();
        let home = self
            .graph
            .class(task.key.class)
            .home(task.key.params, lanes)?;
        assert!(home < lanes, "{:?}: home lane {home} of {lanes}", task.key);
        Some(home)
    }

    /// Queue `task` on `lane` from any thread: its inbox, or its ranked
    /// queue under the priority policy.
    fn push_inbox(&self, lane: usize, task: Box<ReadyTask>) {
        match &self.lanes[lane].queue {
            LocalQueue::Stealable { inbox, .. } => inbox.push(task),
            LocalQueue::Ranked(q) => q.lock().push(task),
        }
    }

    /// `lane`'s worker submits a task its own completion released. A task
    /// whose home is this lane, or that has no home, lands in the lane's
    /// own queue, and a full deque spills to the lane's inbox; any other
    /// goes to its home lane's inbox.
    pub(crate) fn push_released(&self, lane: usize, task: Box<ReadyTask>) {
        let home = self.home(&task).unwrap_or(lane);
        match &self.lanes[home].queue {
            LocalQueue::Stealable { deque, inbox } if home == lane => {
                if let Err(task) = deque.push(task) {
                    self.lanes[lane]
                        .stats
                        .overflow_pushes
                        .fetch_add(1, Ordering::Relaxed);
                    inbox.push(task);
                }
            }
            _ => self.push_inbox(home, task),
        }
        self.parker.unpark_one();
    }

    /// A comm-thread delivery lands in its home lane's inbox, lane 0's
    /// when it has no home.
    pub(crate) fn push_external(&self, task: Box<ReadyTask>) {
        self.push_inbox(self.home(&task).unwrap_or(0), task);
        self.parker.unpark_one();
    }

    /// Seed the node's root tasks, before its workers start: each into its
    /// home lane's inbox, lane 0's when it has none. Odd lanes take theirs
    /// in reverse order, so two neighbouring lanes sweep toward their
    /// shared band edge, or away from it, in step: neither waits a whole
    /// sweep for the other's edge tiles, which keeps the wavefront of
    /// parked tasks — and the strips they hold — short.
    pub(crate) fn seed(&self, roots: impl Iterator<Item = Box<ReadyTask>>) {
        let mut per_lane: Vec<_> = self.lanes.iter().map(|_| Vec::new()).collect();
        for task in roots {
            per_lane[self.home(&task).unwrap_or(0)].push(task);
        }
        for (lane, mut tasks) in per_lane.into_iter().enumerate() {
            if lane % 2 == 1 {
                tasks.reverse();
            }
            for task in tasks {
                self.push_inbox(lane, task);
            }
        }
    }

    /// `lane`'s next task: own deque, then own inbox, then a steal sweep
    /// over the other lanes in RNG order. `None` after a full failed
    /// sweep (counted as a steal fail).
    pub(crate) fn next_task(&self, lane: usize, rng: &mut WorkerRng) -> Option<Box<ReadyTask>> {
        if let Some(t) = self.pop_own(lane) {
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
            LocalQueue::Stealable { deque, inbox } => match self.policy {
                SchedulerPolicy::Lifo => deque.pop(),
                _ => deque.pop_top(),
            }
            .or_else(|| inbox.pop()),
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    /// The victim's oldest deque entry, else the head of its inbox.
    fn steal_from(&self, victim: usize) -> Option<Box<ReadyTask>> {
        match &self.lanes[victim].queue {
            LocalQueue::Stealable { deque, inbox } => loop {
                match deque.steal() {
                    Steal::Success(t) => return Some(t),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => return inbox.pop(),
                }
            },
            LocalQueue::Ranked(q) => q.lock().pop(),
        }
    }

    /// Count `task`, which `lane` is about to run, as a home hit when
    /// `lane` is its home.
    fn count_home_hit(&self, lane: usize, task: &ReadyTask) {
        if self.home(task) == Some(lane) {
            // The lane's worker is the counter's only writer.
            let hits = &self.lanes[lane].stats.home_hits;
            hits.store(hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Park until notified or `timeout`, re-checking emptiness under the
    /// gate so a concurrent push cannot be missed. Returns immediately
    /// when work is already visible or `stop` (the caller's shutdown
    /// flag, set before [`NodeQueues::wake_all`]) already holds.
    pub(crate) fn park(&self, timeout: Duration, stop: impl FnOnce() -> bool) {
        self.parker.park(timeout, || self.len() > 0 || stop());
    }

    /// Tasks currently queued on this node (every lane's local queue and
    /// inbox) — the `ready_depth` live gauge, and the work a parking
    /// worker re-checks for.
    pub(crate) fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// What `lane` can see without looking at its peers: its own deque
    /// and inbox. This is what the real engines publish as
    /// `obs::names::QUEUE_DEPTH`.
    pub(crate) fn depth(&self, lane: usize) -> usize {
        self.lanes[lane].queue.len()
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

    /// Cumulative steal/overflow/home-hit counters summed over this
    /// node's lanes.
    pub(crate) fn totals(&self) -> StealTotals {
        let mut t = StealTotals::default();
        for l in &self.lanes {
            t.steals += l.stats.steals.load(Ordering::Relaxed);
            t.steal_fails += l.stats.steal_fails.load(Ordering::Relaxed);
            t.overflow_pushes += l.stats.overflow_pushes.load(Ordering::Relaxed);
            t.home_hits += l.stats.home_hits.load(Ordering::Relaxed);
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
    /// Tasks completed so far; reaching `program.total_tasks` ends the
    /// run. Every completion writes it, so it gets a line of its own.
    pub(crate) completed: Padded<AtomicU64>,
    /// Set by the worker that completed the last task, or by a thread
    /// unwinding from a panic. Every worker loads it on every loop, so it
    /// shares no line with `completed`.
    pub(crate) done: Padded<AtomicBool>,
    /// `clock` reading when the last task completed: the run's horizon.
    pub(crate) finished_ns: AtomicU64,
    pub(crate) clock: WallClock,
}

impl<'p> RunShared<'p> {
    pub(crate) fn new(program: &'p Program) -> Self {
        RunShared {
            program,
            pending: PendingTable::new(&program.graph),
            completed: Padded(AtomicU64::new(0)),
            done: Padded(AtomicBool::new(false)),
            finished_ns: AtomicU64::new(0),
            clock: WallClock::start(),
        }
    }
}

/// A worker's reusable buffers: cleared, never freed, between tasks.
#[derive(Default)]
struct Scratch {
    deps: Vec<OutputDep>,
    flows: Vec<FlowData>,
    batch: DeliveryBatch,
}

/// Identity of one worker thread, its lane's busy clock (published at
/// every start and stop) and, on a traced run, the handle it records
/// through.
pub(crate) struct WorkerId {
    pub(crate) node: u32,
    pub(crate) lane: u32,
    pub(crate) steal_seed: u64,
    pub(crate) busy: BusyClock,
    pub(crate) local: Option<LocalRecorder>,
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

/// The worker loop of the threaded engine: pop (own deque → own inbox →
/// steal), complete, park when dry, until the run is over. Returns what
/// the worker counted; the per-task path touches no shared counter but
/// its own lane's busy clock and home-hit count.
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
) -> RunCounts {
    let _abort = OnUnwind(|| {
        run.done.store(true, Ordering::Release);
        shutdown();
    });
    let mut rng = WorkerRng::new(id.steal_seed, id.lane as u64);
    let mut scratch = Scratch::default();
    let mut counts = RunCounts::default();
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
                &mut counts,
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
    counts
}

/// Execute one ready task, record its span, route its output flows
/// (node-local ones as one batch whose released successors land on their
/// home lanes). Returns true when this was the run's final task.
fn complete(
    run: &RunShared<'_>,
    node: &NodeQueues,
    id: &mut WorkerId,
    mut task: Box<ReadyTask>,
    scratch: &mut Scratch,
    counts: &mut RunCounts,
    ship: &mut impl FnMut(Delivery, u32) -> Option<Delivery>,
) -> bool {
    let graph = &run.program.graph;
    let key = task.key;
    let class = graph.class(key.class);
    let kind = graph.kind_of(key);
    let lane = id.lane as usize;
    node.count_home_hit(lane, &task);
    let start_ns = run.clock.now_ns();
    id.busy.start(start_ns);
    node.publish_busy(lane, id.busy);
    class.execute(key.params, &mut task.inputs, &mut scratch.flows);
    let end_ns = run.clock.now_ns();
    id.busy.stop(end_ns);
    node.publish_busy(lane, id.busy);
    if let Some(local) = &mut id.local {
        local.task_instance(id.node, id.lane, kind, key.instance_id(), start_ns, end_ns);
    }
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
                counts.activations += 1;
            }
            None => {
                counts.messages += 1;
                counts.bytes += bytes;
            }
        }
    }
    // Drop the producer's references first, so each payload's last owner
    // is its consumer and the buffer is recycled where it is consumed.
    scratch.flows.clear();
    run.pending
        .deliver_batch(graph, &mut scratch.batch, |t| node.push_released(lane, t));
    counts.tasks += 1;
    counts.redundant_flops += class.redundant_flops(key.params);
    counts.queue_depth(node.depth(lane));
    run.completed.fetch_add(1, Ordering::AcqRel) + 1 == run.program.total_tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::testutil::prioritized;
    use crate::task::TaskKey;

    /// Task `i` without a home lane.
    fn task(i: i32) -> Box<ReadyTask> {
        Box::new(ReadyTask {
            key: TaskKey::new(0, [i, 0, 0, 0]),
            inputs: Vec::new(),
        })
    }

    /// Task `i` whose home is `lane` (see `testutil::Prioritized`).
    fn homed(i: i32, lane: usize) -> Box<ReadyTask> {
        Box::new(ReadyTask {
            key: TaskKey::new(0, [i, lane as i32 + 1, 0, 0]),
            inputs: Vec::new(),
        })
    }

    fn drain(q: &NodeQueues, lane: usize) -> Vec<i32> {
        let mut rng = WorkerRng::new(7, lane as u64);
        std::iter::from_fn(|| q.next_task(lane, &mut rng))
            .map(|t| t.key.params[0])
            .collect()
    }

    fn queues(policy: SchedulerPolicy, lanes: usize) -> NodeQueues {
        NodeQueues::new(policy, &prioritized(&[]), lanes)
    }

    #[test]
    fn local_fifo_preserves_push_order() {
        let q = queues(SchedulerPolicy::Fifo, 1);
        for i in 0..5 {
            q.push_released(0, task(i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&q, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn local_lifo_reverses_push_order() {
        let q = queues(SchedulerPolicy::Lifo, 1);
        for i in 0..5 {
            q.push_released(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn ranked_lane_pops_by_rank_with_fifo_ties() {
        let graph = prioritized(&[(0, 0), (1, 5), (2, 0), (3, 5)]);
        let q = NodeQueues::new(SchedulerPolicy::Priority, &graph, 1);
        for i in 0..4 {
            q.push_released(0, task(i));
        }
        assert_eq!(drain(&q, 0), vec![1, 3, 0, 2]);
    }

    #[test]
    fn ranked_lane_takes_cross_lane_pushes_in_rank_order() {
        let graph = prioritized(&[(0, 0), (1, 5), (2, 9)]);
        let q = NodeQueues::new(SchedulerPolicy::Priority, &graph, 2);
        q.push_released(1, homed(0, 0));
        q.push_released(0, homed(1, 0));
        q.push_external(homed(2, 0));
        assert_eq!((q.depth(0), q.depth(1)), (3, 0));
        assert_eq!(drain(&q, 0), vec![2, 1, 0]);
        assert_eq!(q.totals().steals, 0);
    }

    #[test]
    fn empty_lane_steals_from_the_loaded_one() {
        let q = queues(SchedulerPolicy::Fifo, 4);
        for i in 0..8 {
            q.push_released(0, task(i));
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
        let q = queues(SchedulerPolicy::Fifo, 3);
        let mut rng = WorkerRng::new(1, 0);
        assert!(q.next_task(0, &mut rng).is_none());
        assert_eq!(q.totals().steal_fails, 1);
    }

    #[test]
    fn cross_lane_push_lands_in_the_home_inbox() {
        for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Lifo] {
            let q = queues(policy, 3);
            q.push_released(0, homed(5, 2));
            q.push_external(homed(6, 1));
            assert_eq!((q.depth(0), q.depth(1), q.depth(2)), (0, 1, 1));
            // Each home lane pops its task as its own, without a steal.
            let mut rng = WorkerRng::new(5, 0);
            for (lane, want) in [(2, 5), (1, 6)] {
                let got = q.next_task(lane, &mut rng).expect("queued at home");
                assert_eq!(got.key.params[0], want, "{policy:?}");
            }
            assert_eq!(q.totals().steals, 0, "{policy:?}");
        }
    }

    #[test]
    fn owner_pops_its_deque_before_its_inbox() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        q.push_external(homed(1, 0));
        q.push_released(1, homed(2, 0));
        q.push_released(0, homed(3, 0));
        q.push_released(0, task(4));
        assert_eq!(drain(&q, 0), vec![3, 4, 1, 2]);
        assert_eq!(q.totals().steals, 0);
    }

    #[test]
    fn thief_takes_a_victims_inbox() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        q.push_external(homed(7, 0));
        let mut rng = WorkerRng::new(3, 1);
        let got = q.next_task(1, &mut rng).expect("the inbox is stealable");
        assert_eq!(got.key.params[0], 7);
        assert_eq!(q.totals().steals, 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn seeded_roots_enter_their_home_inboxes_odd_lanes_reversed() {
        let q = queues(SchedulerPolicy::Fifo, 3);
        let roots = [homed(0, 0), homed(1, 1), task(2), homed(3, 1), homed(4, 2)];
        q.seed(roots.into_iter().chain([homed(5, 2), homed(6, 0)]));
        assert_eq!((q.depth(0), q.depth(1), q.depth(2)), (3, 2, 2));
        let own = |lane| -> Vec<i32> {
            std::iter::from_fn(|| q.pop_own(lane))
                .map(|t| t.key.params[0])
                .collect()
        };
        assert_eq!(own(0), [0, 2, 6]);
        assert_eq!(own(1), [3, 1]);
        assert_eq!(own(2), [4, 5]);
    }

    #[test]
    fn homeless_external_task_enters_lane_zero() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        q.push_external(task(9));
        assert_eq!((q.depth(0), q.depth(1)), (1, 0));
        let mut rng = WorkerRng::new(1, 1);
        assert_eq!(q.next_task(1, &mut rng).unwrap().key.params[0], 9);
    }

    #[test]
    fn overflow_spills_to_the_lanes_own_inbox_and_nothing_is_lost() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        let n = (LOCAL_QUEUE_CAP + 10) as i32;
        for i in 0..n {
            q.push_released(0, homed(i, 0));
        }
        assert_eq!(q.totals().overflow_pushes, 10);
        assert_eq!((q.depth(0), q.depth(1)), (n as usize, 0));
        let drained = drain(&q, 0);
        // The deque first, then its spill, each in push order.
        assert_eq!(drained, (0..n).collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn home_hits_count_only_tasks_run_on_their_home_lane() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        q.count_home_hit(0, &homed(1, 0));
        q.count_home_hit(1, &homed(2, 0));
        q.count_home_hit(0, &task(3));
        q.count_home_hit(1, &homed(4, 1));
        assert_eq!(q.totals().home_hits, 2);
    }

    #[test]
    #[should_panic(expected = "home lane 5 of 2")]
    fn a_home_beyond_the_lanes_is_rejected() {
        queues(SchedulerPolicy::Fifo, 2).push_external(homed(0, 5));
    }

    #[test]
    fn victim_order_is_seed_stable() {
        let order = |seed: u64| {
            let q = queues(SchedulerPolicy::Fifo, 8);
            // One task on every other lane; record which victim lane 0's
            // successive sweeps hit first.
            for lane in 1..8 {
                q.push_released(lane, task(lane as i32));
            }
            let mut rng = WorkerRng::new(seed, 0);
            std::iter::from_fn(|| q.next_task(0, &mut rng))
                .map(|t| t.key.params[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(order(123), order(123), "same seed, same victim order");
        assert_eq!(order(123).len(), 7);
    }

    /// How one side of a hand-off looks for the peer's task.
    type Recv = fn(&NodeQueues) -> Option<Box<ReadyTask>>;

    /// Two lanes hand a single task back and forth, ten thousand times:
    /// each side sends with `send(queues, round)`, then parks (2 s
    /// timeout) until `recv(queues)` yields the peer's reply. The waiter
    /// really sleeps — nothing is queued for it once it took the last
    /// task — so every round races one push against one park. A lost
    /// wake-up costs a full timeout, so no park may last that long.
    /// (Each park is timed on its own: the rounds' total also grows with
    /// whatever else shares the cores.)
    fn handoffs_lose_no_wakeup(send: [fn(&NodeQueues, i32); 2], recv: [Recv; 2]) {
        const ROUNDS: i32 = 10_000;
        const TIMEOUT: Duration = Duration::from_secs(2);
        let q = queues(SchedulerPolicy::Fifo, 2);
        let wait = |q: &NodeQueues, recv: Recv| loop {
            if let Some(t) = recv(q) {
                return t.key.params[0];
            }
            let parked = std::time::Instant::now();
            q.park(TIMEOUT, || false);
            let slept = parked.elapsed();
            assert!(slept < TIMEOUT, "a park slept {slept:?}: wake-up lost");
            // The park returns at once while this side's own hand-off is
            // still queued for the peer: give the peer the core.
            std::thread::yield_now();
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..ROUNDS {
                    send[0](&q, i);
                    assert_eq!(wait(&q, recv[0]), i);
                }
            });
            s.spawn(|| {
                for i in 0..ROUNDS {
                    assert_eq!(wait(&q, recv[1]), i);
                    send[1](&q, i);
                }
            });
        });
    }

    #[test]
    fn sleeper_gated_notify_loses_no_wakeup_over_ten_thousand_handoffs() {
        // Each side pushes into its own lane; the peer steals it.
        handoffs_lose_no_wakeup(
            [
                |q, i| q.push_released(0, task(i)),
                |q, i| q.push_released(1, task(i)),
            ],
            [|q| q.steal_from(1), |q| q.steal_from(0)],
        );
    }

    #[test]
    fn sleeper_gated_notify_loses_no_wakeup_through_the_peers_inbox() {
        // Each side releases a task homed on the peer, which lands in the
        // peer's inbox; the peer pops it as its own.
        handoffs_lose_no_wakeup(
            [
                |q, i| q.push_released(0, homed(i, 1)),
                |q, i| q.push_released(1, homed(i, 0)),
            ],
            [|q| q.pop_own(0), |q| q.pop_own(1)],
        );
    }

    #[test]
    fn inbox_length_tracks_pushes_and_pops_without_the_lock() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        assert_eq!(q.depth(0), 0);
        q.push_external(homed(1, 1));
        q.push_released(0, task(2));
        // Each lane sees its own queue and inbox; the node-wide length
        // counts both once.
        assert_eq!((q.depth(0), q.depth(1), q.len()), (1, 1, 2));
        assert_eq!(drain(&q, 1), vec![1, 2]);
        assert_eq!((q.depth(0), q.depth(1), q.len()), (0, 0, 0));
    }

    #[test]
    fn park_returns_promptly_when_work_is_queued() {
        let q = queues(SchedulerPolicy::Fifo, 2);
        q.push_external(homed(0, 1));
        let start = std::time::Instant::now();
        q.park(Duration::from_secs(5), || false);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
