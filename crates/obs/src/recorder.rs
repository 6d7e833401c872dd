//! Span recording: per-thread buffers of timestamped activity spans,
//! handed to the shared recorder when their thread is done and drained
//! into an analyzable [`Trace`].
//!
//! # Buffers
//!
//! Every recording thread owns a [`LocalRecorder`] (spans) and, on a
//! comm lane, a [`MsgRecorder`] (message spans). Each appends to its own
//! plain `Vec`: recording takes no lock, no atomic read-modify-write and
//! never drops a record. When a handle drops it moves its whole buffer
//! into the recorder's store, one lock per thread rather than per span.
//! Live samples read per-lane [`crate::BusyClock`]s, not spans.
//!
//! # The quiesce contract
//!
//! [`Recorder::drain`] returns only what dropped handles handed over, so
//! it must be called once every handle is gone (worker threads joined,
//! the simulator dropped). Debug builds assert that no handle is still
//! alive; executors uphold the contract by draining only after joining
//! their worker scope.

use crate::MsgSpan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One recorded activity: a half-open interval `[start_ns, end_ns)` of
/// `kind` running on `lane` of `node`. Timestamps are nanoseconds on
/// whichever clock the producer used (wall or virtual); analysis is
/// clock-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Node rank the activity ran on.
    pub node: u32,
    /// Execution lane within the node (worker index, or the comm lane).
    pub lane: u32,
    /// Activity class: a task-class kind, or [`crate::KIND_COMM`].
    pub kind: u32,
    /// Inclusive start, nanoseconds.
    pub start_ns: u64,
    /// Exclusive end, nanoseconds.
    pub end_ns: u64,
    /// Task-instance id (the runtime's `TaskKey::instance_id` hash)
    /// joining this span to the statically unfolded task graph, or
    /// [`SpanRecord::NO_TASK`] for spans with no task identity (comm
    /// activity, foreign traces).
    pub task: u64,
}

impl SpanRecord {
    /// Sentinel `task` value for spans not tied to a task instance.
    pub const NO_TASK: u64 = u64::MAX;

    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The task-instance id, when one was stamped.
    pub fn task_instance(&self) -> Option<u64> {
        (self.task != Self::NO_TASK).then_some(self.task)
    }
}

/// Wall-clock nanosecond source anchored at construction, so wall-clock
/// executors produce the same "nanoseconds since run start" timeline the
/// simulator produces natively.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Anchor the clock now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the anchor.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

/// The measured cost of the tracer itself over one run: how many events
/// were recorded, what one record costs on this machine (calibrated once
/// per process), and the lane time the total is compared against.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TracerOverhead {
    /// Records handed over by the run's recording handles (spans and
    /// message spans).
    pub events: u64,
    /// Calibrated cost of one record on this machine, nanoseconds.
    pub per_event_ns: f64,
    /// Estimated total instrumentation time: `events × per_event_ns`.
    pub total_ns: u64,
    /// Total worker-lane time of the run (`horizon × lanes × nodes`),
    /// nanoseconds, on the engine's clock.
    pub lane_time_ns: u64,
}

impl TracerOverhead {
    /// Instrumentation time as a fraction of lane time (0 when lane time
    /// is 0). The executors' budget for this is
    /// [`TracerOverhead::BUDGET_FRACTION`].
    pub fn fraction(&self) -> f64 {
        if self.lane_time_ns == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.lane_time_ns as f64
        }
    }

    /// The tracer self-overhead budget asserted by `ci.sh`'s
    /// `stencil-top --once` smoke: 2% of total lane time.
    pub const BUDGET_FRACTION: f64 = 0.02;

    /// True when the measured overhead stays under the budget.
    pub fn within_budget(&self) -> bool {
        self.fraction() < Self::BUDGET_FRACTION
    }
}

/// Calibrate the per-event record cost once per process: time a burst of
/// records into a fresh handle of a scratch recorder, buffer growth
/// included. The result feeds every [`TracerOverhead`] this process
/// reports.
pub fn per_event_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let n = 4096u64;
        let mut local = Recorder::new().local();
        let start = Instant::now();
        for i in 0..n {
            local.task(0, 0, 0, i, i + 1);
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(&local.records);
        (elapsed / n as f64).max(1.0)
    })
}

/// One record type's store: the buffers dropped handles handed over, and
/// how many handles are still recording.
struct Chunks<T> {
    handed: Vec<Vec<T>>,
    live: usize,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            handed: Vec::new(),
            live: 0,
        }
    }
}

type Store<T> = Arc<Mutex<Chunks<T>>>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records handed over so far.
fn handed_len<T>(store: &Store<T>) -> u64 {
    lock(store).handed.iter().map(|c| c.len() as u64).sum()
}

/// Every handed-over record, sorted by `key`. Debug builds first assert
/// the quiesce contract of [`Recorder::drain`].
fn sorted<T: Copy, K: Ord>(store: &Store<T>, what: &str, key: impl FnMut(&T) -> K) -> Vec<T> {
    let chunks = lock(store);
    debug_assert!(
        chunks.live == 0,
        "Recorder::drain while {} {what} handle(s) still record: \
         the quiesce contract requires every handle dropped before drain",
        chunks.live
    );
    let mut records = chunks.handed.concat();
    records.sort_by_key(key);
    records
}

/// A per-thread recording handle: appends to a private `Vec` and hands
/// the whole buffer to its [`Recorder`]'s store when dropped.
pub struct RecordBuffer<T> {
    records: Vec<T>,
    store: Store<T>,
}

/// Per-thread span-recording handle ([`Recorder::local`]).
pub type LocalRecorder = RecordBuffer<SpanRecord>;

/// Per-thread message-recording handle ([`Recorder::msg_local`]).
pub type MsgRecorder = RecordBuffer<MsgSpan>;

impl<T> RecordBuffer<T> {
    fn open(store: &Store<T>) -> Self {
        lock(store).live += 1;
        RecordBuffer {
            records: Vec::new(),
            store: Arc::clone(store),
        }
    }
}

impl<T> Drop for RecordBuffer<T> {
    fn drop(&mut self) {
        let mut chunks = lock(&self.store);
        chunks.live -= 1;
        if !self.records.is_empty() {
            chunks.handed.push(std::mem::take(&mut self.records));
        }
    }
}

/// Span recorder shared by all threads of a run. Clone it freely; all
/// clones share one store, fed by the per-thread handles
/// [`Recorder::local`] and [`Recorder::msg_local`] hand out.
#[derive(Clone, Default)]
pub struct Recorder {
    spans: Store<SpanRecord>,
    msgs: Store<MsgSpan>,
    kinds: Arc<Mutex<BTreeMap<u32, String>>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Obtain a per-thread span-recording handle.
    pub fn local(&self) -> LocalRecorder {
        RecordBuffer::open(&self.spans)
    }

    /// Obtain a per-thread message-recording handle.
    pub fn msg_local(&self) -> MsgRecorder {
        RecordBuffer::open(&self.msgs)
    }

    /// Associate a human-readable name with a kind tag (idempotent).
    pub fn register_kind(&self, kind: u32, name: &str) {
        lock(&self.kinds)
            .entry(kind)
            .or_insert_with(|| name.to_string());
    }

    /// Records handed over so far by dropped handles, message spans
    /// included — their push costs the same as any other event, so the
    /// overhead model counts them.
    pub fn events_recorded(&self) -> u64 {
        handed_len(&self.spans) + handed_len(&self.msgs)
    }

    /// The tracer's measured self-overhead against `lane_time_ns` of
    /// worker-lane time (see [`TracerOverhead`]).
    pub fn overhead(&self, lane_time_ns: u64) -> TracerOverhead {
        let events = self.events_recorded();
        let per_event_ns = per_event_cost_ns();
        TracerOverhead {
            events,
            per_event_ns,
            total_ns: (events as f64 * per_event_ns) as u64,
            lane_time_ns,
        }
    }

    /// Every span handed over so far as a [`Trace`], sorted by start time
    /// (ties by node, lane). The store is retained, so draining twice
    /// yields the same spans.
    ///
    /// # Quiesce contract
    ///
    /// A complete trace requires every handle to have been dropped
    /// (threads joined); debug builds assert it.
    pub fn drain(&self) -> Trace {
        Trace {
            spans: sorted(&self.spans, "span", |s| {
                (s.start_ns, s.node, s.lane, s.end_ns)
            }),
            msgs: sorted(&self.msgs, "msg", |m| {
                (m.enqueue_ns, m.src, m.dst, m.inject_ns, m.deliver_ns)
            }),
            kinds: lock(&self.kinds).clone(),
            dropped: 0,
        }
    }
}

impl LocalRecorder {
    /// Record one span. `end_ns` must not precede `start_ns`.
    pub fn record(&mut self, span: SpanRecord) {
        debug_assert!(span.end_ns >= span.start_ns, "span ends before it starts");
        self.records.push(span);
    }

    /// Record a task-execution span with no task identity.
    pub fn task(&mut self, node: u32, lane: u32, kind: u32, start_ns: u64, end_ns: u64) {
        self.task_instance(node, lane, kind, SpanRecord::NO_TASK, start_ns, end_ns);
    }

    /// Record a task-execution span stamped with a task-instance id, so
    /// downstream analysis can join the span to the unfolded task graph.
    pub fn task_instance(
        &mut self,
        node: u32,
        lane: u32,
        kind: u32,
        task: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.record(SpanRecord {
            node,
            lane,
            kind,
            start_ns,
            end_ns,
            task,
        });
    }

    /// Record a communication span on `node`'s comm lane.
    pub fn comm(&mut self, node: u32, lane: u32, start_ns: u64, end_ns: u64) {
        self.record(SpanRecord {
            node,
            lane,
            kind: crate::KIND_COMM,
            start_ns,
            end_ns,
            task: SpanRecord::NO_TASK,
        });
    }
}

impl MsgRecorder {
    /// Record one cross-node message.
    pub fn record(&mut self, msg: MsgSpan) {
        debug_assert!(
            msg.deliver_ns >= msg.inject_ns && msg.inject_ns >= msg.enqueue_ns,
            "msg timestamps out of order: enqueue {} inject {} deliver {}",
            msg.enqueue_ns,
            msg.inject_ns,
            msg.deliver_ns
        );
        self.records.push(msg);
    }
}

/// A drained, immutable trace: every span of a run plus the kind-name
/// table, ready for export or analysis.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// All cross-node message spans, sorted by enqueue time. Empty for
    /// single-node runs.
    pub msgs: Vec<MsgSpan>,
    /// Kind tag → human-readable name, for exporters.
    pub kinds: BTreeMap<u32, String>,
    /// Spans lost by the tracer: always 0, since recording buffers are
    /// lossless. The field stays because the benchmark harness reads it
    /// for its `obs.dropped_spans` metric.
    pub dropped: u64,
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans on one node.
    pub fn node_spans(&self, node: u32) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.spans.iter().filter(move |s| s.node == node)
    }

    /// Sorted list of node ranks appearing in the trace.
    pub fn nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.spans.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Latest end time over all spans; zero when empty.
    pub fn horizon_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0)
    }

    /// Span count per kind tag.
    pub fn count_by_kind(&self) -> BTreeMap<u32, usize> {
        let mut counts = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Task spans only (everything that is not communication).
    pub fn task_spans(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        self.spans.iter().filter(|s| s.kind != crate::KIND_COMM)
    }

    /// Busy nanoseconds of `lanes` worker lanes on `node` within
    /// `[0, horizon_ns]`: span time clamped at the horizon, so a span that
    /// crosses it counts only up to it. Lanes at or above `lanes` (e.g.
    /// the comm lane) are excluded.
    pub fn busy_ns(&self, node: u32, lanes: u32, horizon_ns: u64) -> u64 {
        self.node_spans(node)
            .filter(|s| s.lane < lanes)
            .map(|s| {
                let end = s.end_ns.min(horizon_ns);
                end - s.start_ns.min(end)
            })
            .sum()
    }

    /// Busy fraction of `lanes` worker lanes on `node` over
    /// `[0, horizon_ns]` — the paper's "CPU occupancy", from
    /// [`Trace::busy_ns`], so never above 1.
    pub fn occupancy(&self, node: u32, lanes: u32, horizon_ns: u64) -> f64 {
        let denom = horizon_ns as f64 * lanes as f64;
        if denom == 0.0 {
            return 0.0;
        }
        self.busy_ns(node, lanes, horizon_ns) as f64 / denom
    }

    /// Idle gaps between consecutive spans on one `(node, lane)` pair over
    /// `[0, horizon_ns]`, as `(start_ns, end_ns)` intervals.
    pub fn idle_gaps(&self, node: u32, lane: u32, horizon_ns: u64) -> Vec<(u64, u64)> {
        let mut spans: Vec<&SpanRecord> =
            self.node_spans(node).filter(|s| s.lane == lane).collect();
        spans.sort_by_key(|s| s.start_ns);
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for s in spans {
            if s.start_ns > cursor {
                gaps.push((cursor, s.start_ns));
            }
            cursor = cursor.max(s.end_ns);
        }
        if horizon_ns > cursor {
            gaps.push((cursor, horizon_ns));
        }
        gaps
    }

    /// The per-peer communication matrix of this trace's message spans.
    pub fn comm_matrix(&self) -> crate::CommMatrix {
        crate::CommMatrix::from_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(node: u32, lane: u32, kind: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            node,
            lane,
            kind,
            start_ns: start,
            end_ns: end,
            task: SpanRecord::NO_TASK,
        }
    }

    #[test]
    fn task_instance_ids_survive_drain() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task_instance(0, 0, 1, 42, 0, 10);
        l.task(0, 0, 1, 10, 20);
        l.comm(0, 2, 0, 5);
        drop(l);
        let t = rec.drain();
        let ids: Vec<Option<u64>> = t.spans.iter().map(|s| s.task_instance()).collect();
        assert!(ids.contains(&Some(42)));
        assert_eq!(ids.iter().filter(|i| i.is_none()).count(), 2);
    }

    #[test]
    fn record_and_drain_sorted() {
        let rec = Recorder::new();
        let mut a = rec.local();
        let mut b = rec.local();
        a.task(0, 0, 1, 50, 60);
        b.task(0, 1, 1, 0, 10);
        a.task(1, 0, 2, 20, 40);
        drop((a, b));
        let t = rec.drain();
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[0].start_ns, 0);
        assert_eq!(t.spans[2].start_ns, 50);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn drain_twice_yields_same_spans() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task(0, 0, 1, 0, 10);
        l.task(0, 0, 1, 10, 20);
        drop(l);
        let first = rec.drain();
        let second = rec.drain();
        assert_eq!(first.spans, second.spans);
        // spans a later handle hands over show up in the next drain
        rec.local().task(0, 0, 1, 20, 30);
        assert_eq!(rec.drain().len(), 3);
    }

    #[test]
    fn a_long_lane_keeps_every_span() {
        // Far past the 64 Ki records a bounded per-lane buffer would hold.
        let rec = Recorder::new();
        let mut l = rec.local();
        let n = 100_000u64;
        for i in 0..n {
            l.task(0, 0, 0, i, i + 1);
        }
        drop(l);
        assert_eq!(rec.drain().len() as u64, n);
        assert_eq!(rec.events_recorded(), n);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "quiesce contract")]
    fn drain_with_a_live_handle_breaks_the_quiesce_contract() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task(0, 0, 1, 0, 10);
        rec.drain();
    }

    #[test]
    fn threads_record_concurrently() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for node in 0..4u32 {
                let mut local = rec.local();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        local.task(node, 0, 1, i * 2, i * 2 + 1);
                    }
                });
            }
        });
        assert_eq!(rec.drain().len(), 4000);
        assert_eq!(rec.events_recorded(), 4000);
    }

    #[test]
    fn overhead_reports_calibrated_cost() {
        let rec = Recorder::new();
        let mut l = rec.local();
        for i in 0..100u64 {
            l.task(0, 0, 0, i, i + 1);
        }
        drop(l);
        let oh = rec.overhead(1_000_000_000);
        assert_eq!(oh.events, 100);
        assert!(oh.per_event_ns >= 1.0);
        assert_eq!(oh.total_ns, (100.0 * oh.per_event_ns) as u64);
        assert!(oh.fraction() > 0.0);
        // Zero lane time degrades to zero fraction, not a NaN.
        assert_eq!(rec.overhead(0).fraction(), 0.0);
        assert!(per_event_cost_ns() < 100_000.0, "per-event cost sane");
    }

    #[test]
    fn occupancy_matches_trace_buffer_semantics() {
        let mut t = Trace::default();
        t.spans.push(span(0, 0, 0, 0, 60));
        t.spans.push(span(0, 1, 0, 10, 30));
        t.spans.push(span(0, 7, 0, 0, 100)); // ignored: lane >= lanes
        let occ = t.occupancy(0, 2, 100);
        assert!((occ - 0.4).abs() < 1e-12, "occ = {occ}");
        assert_eq!(t.occupancy(3, 2, 100), 0.0);
        assert_eq!(t.occupancy(0, 2, 0), 0.0);
    }

    #[test]
    fn idle_gaps_cover_complement() {
        let mut t = Trace::default();
        t.spans.push(span(0, 0, 0, 10, 20));
        t.spans.push(span(0, 0, 0, 40, 50));
        let gaps = t.idle_gaps(0, 0, 100);
        assert_eq!(gaps, vec![(0, 10), (20, 40), (50, 100)]);
        let busy: u64 = t.node_spans(0).map(|s| s.duration_ns()).sum();
        let idle: u64 = gaps.iter().map(|(a, b)| b - a).sum();
        assert_eq!(busy + idle, 100);
    }

    #[test]
    fn kind_registry_and_counts() {
        let rec = Recorder::new();
        rec.register_kind(0, "interior");
        rec.register_kind(crate::KIND_COMM, "comm");
        rec.register_kind(0, "renamed-too-late"); // idempotent: first wins
        let mut l = rec.local();
        l.task(0, 0, 0, 0, 1);
        l.comm(0, 2, 1, 2);
        drop(l);
        let t = rec.drain();
        assert_eq!(t.kinds.get(&0).map(String::as_str), Some("interior"));
        assert_eq!(t.count_by_kind().get(&crate::KIND_COMM), Some(&1));
        assert_eq!(t.task_spans().count(), 1);
        assert_eq!(t.nodes(), vec![0]);
    }

    #[test]
    fn msg_lanes_drain_into_trace() {
        let rec = Recorder::new();
        let mut m = rec.msg_local();
        m.record(MsgSpan {
            src: 1,
            dst: 0,
            kind: 3,
            bytes: 64,
            enqueue_ns: 20,
            inject_ns: 25,
            deliver_ns: 90,
        });
        m.record(MsgSpan {
            src: 0,
            dst: 1,
            kind: 3,
            bytes: 128,
            enqueue_ns: 0,
            inject_ns: 5,
            deliver_ns: 50,
        });
        drop(m);
        let t = rec.drain();
        assert_eq!(t.msgs.len(), 2);
        assert_eq!(t.msgs[0].enqueue_ns, 0, "sorted by enqueue time");
        // Msg pushes count toward the overhead model's event total.
        assert_eq!(rec.events_recorded(), 2);
        let matrix = t.comm_matrix();
        assert_eq!(matrix.total_messages(), 2);
        assert_eq!(matrix.total_bytes(), 192);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::start();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
