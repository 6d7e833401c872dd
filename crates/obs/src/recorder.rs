//! Span recording: per-thread lock-free ring buffers of timestamped
//! activity spans, streamed into a collector store and drained into an
//! analyzable [`Trace`].
//!
//! # Streaming architecture
//!
//! Every recording thread ([`LocalRecorder`]) owns the producer half of a
//! bounded SPSC ring ([`crate::ring`]); the shared [`Recorder`] keeps the
//! consumer halves plus a central **store** of already-collected spans.
//! Recording is wait-free: a full ring drops the span and counts it
//! instead of blocking the worker. Collection ([`Recorder::collect`], or
//! the periodic samplers the executors run) moves ring contents into the
//! store while producers keep recording, which is what makes live
//! telemetry possible — the store can be observed mid-run, not only after
//! the run returns.
//!
//! # The quiesce contract
//!
//! [`Recorder::drain`] promises a *complete* trace, so it must only be
//! called once every producer has quiesced (worker threads joined, the
//! simulator dropped its handle). Collection itself is safe concurrently
//! with live producers — the SPSC protocol guarantees that — but a drain
//! racing a producer would silently miss the spans still being written.
//! `drain` therefore carries a debug assertion that no producer is
//! mid-record; executors uphold the contract by draining only after
//! joining their worker scope. Use [`Recorder::with_collected`] for live
//! (possibly incomplete) views during a run.

use crate::ring::{self, RingConsumer, RingProducer};
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
    /// Record attempts over the run (dropped events included — their cost
    /// is paid regardless).
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
/// records into a scratch ring. The result feeds every
/// [`TracerOverhead`] this process reports.
pub fn per_event_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let (producer, _consumer) = ring::spsc(1 << 13);
        let n = 4096u64;
        let start = Instant::now();
        for i in 0..n {
            producer.push(SpanRecord {
                node: 0,
                lane: 0,
                kind: 0,
                start_ns: i,
                end_ns: i + 1,
                task: SpanRecord::NO_TASK,
            });
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        (elapsed / n as f64).max(1.0)
    })
}

/// The lanes of one record type: the consumer half of every registered
/// ring, plus the store that collection moves their records into.
struct Lanes<T> {
    /// Consumer halves, in registration order.
    rings: Mutex<Vec<RingConsumer<T>>>,
    /// Records already moved out of the rings. Grows monotonically;
    /// `drain` is a sorted view over it, so draining twice yields the
    /// same records.
    store: Mutex<Vec<T>>,
}

impl<T: Copy> Lanes<T> {
    fn new() -> Self {
        Lanes {
            rings: Mutex::new(Vec::new()),
            store: Mutex::new(Vec::new()),
        }
    }

    fn rings(&self) -> MutexGuard<'_, Vec<RingConsumer<T>>> {
        self.rings.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn store(&self) -> MutexGuard<'_, Vec<T>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register one more lane and return its producer half.
    fn register(&self, capacity: usize) -> RingProducer<T> {
        let (producer, consumer) = ring::spsc(capacity);
        self.rings().push(consumer);
        producer
    }

    /// Move everything visible in the rings into the store.
    fn collect(&self) {
        let mut rings = self.rings();
        let mut store = self.store();
        for ring in rings.iter_mut() {
            ring.drain_into(&mut store);
        }
    }

    /// Drop count of each lane, in registration order.
    fn dropped_per_lane(&self) -> Vec<u64> {
        self.rings().iter().map(|r| r.dropped()).collect()
    }

    /// Push attempts over all lanes, dropped ones included.
    fn attempts(&self) -> u64 {
        self.rings().iter().map(|r| r.attempts()).sum()
    }

    /// The store sorted by `key`. Debug builds first assert that no
    /// producer is mid-record (the quiesce contract of [`Recorder::drain`]).
    fn sorted<K: Ord>(&self, what: &str, key: impl FnMut(&T) -> K) -> Vec<T> {
        for (i, ring) in self.rings().iter().enumerate() {
            debug_assert!(
                !ring.producer_recording(),
                "Recorder::drain while {what} lane {i}'s producer is mid-record: \
                 the quiesce contract requires all workers joined before drain"
            );
        }
        let mut records = self.store().clone();
        records.sort_by_key(key);
        records
    }
}

struct Shared {
    spans: Lanes<SpanRecord>,
    msgs: Lanes<MsgSpan>,
    kinds: Mutex<BTreeMap<u32, String>>,
    capacity: usize,
}

/// Span recorder shared by all threads of a run. Clone it freely; all
/// clones feed the same store.
///
/// Each recording thread obtains its own [`LocalRecorder`] via
/// [`Recorder::local`], writing into a private lock-free SPSC ring — the
/// hot path takes no lock and never blocks; cross-thread coordination
/// happens only at registration and collection time.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Recorder {
    /// Default per-thread capacity: 64 Ki spans (~2.6 MB/thread). The
    /// collector drains lanes continuously, so only spans in flight
    /// between two collections must fit — far fewer than this for every
    /// workload in the workspace. Kept modest so eagerly allocating one
    /// ring per worker does not delay thread start-up.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Recorder with the default per-thread ring capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Recorder whose per-thread rings hold at most `capacity` in-flight
    /// spans (rounded up to a power of two). A span pushed into a full
    /// ring is dropped and counted, never blocked on.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            shared: Arc::new(Shared {
                spans: Lanes::new(),
                msgs: Lanes::new(),
                kinds: Mutex::new(BTreeMap::new()),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Obtain a per-thread recording handle (one producer lane).
    pub fn local(&self) -> LocalRecorder {
        LocalRecorder {
            producer: self.shared.spans.register(self.shared.capacity),
        }
    }

    /// Obtain a per-thread message-recording handle (one msg-span lane on
    /// its own SPSC ring, same capacity and drop-newest policy as the
    /// span lanes).
    pub fn msg_local(&self) -> MsgRecorder {
        MsgRecorder {
            producer: self.shared.msgs.register(self.shared.capacity),
        }
    }

    /// Associate a human-readable name with a kind tag (idempotent).
    pub fn register_kind(&self, kind: u32, name: &str) {
        self.shared
            .kinds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(kind)
            .or_insert_with(|| name.to_string());
    }

    /// Move everything currently visible in the lane rings into the
    /// store. Safe to call while producers are live (the collector thread
    /// does, at its cadence); spans still being written simply show up at
    /// the next collection.
    pub fn collect(&self) {
        self.shared.spans.collect();
        self.shared.msgs.collect();
    }

    /// Collect, then run `f` over the store — the live view the samplers
    /// use mid-run. The store is unsorted and may be incomplete (spans
    /// mid-record appear at a later collection).
    pub fn with_collected<R>(&self, f: impl FnOnce(&[SpanRecord]) -> R) -> R {
        self.collect();
        f(&self.shared.spans.store())
    }

    /// Spans dropped so far because a lane ring was full.
    pub fn dropped(&self) -> u64 {
        self.shared.spans.dropped_per_lane().iter().sum()
    }

    /// Message spans dropped so far because a msg-lane ring was full.
    pub fn dropped_msgs(&self) -> u64 {
        self.shared.msgs.dropped_per_lane().iter().sum()
    }

    /// Per-lane drop counts — span lanes first, then msg lanes, in
    /// registration order. The overflow-accounting tests reconcile the
    /// trace against these.
    pub fn dropped_per_lane(&self) -> Vec<u64> {
        let mut out = self.shared.spans.dropped_per_lane();
        out.extend(self.shared.msgs.dropped_per_lane());
        out
    }

    /// Record attempts so far across all lanes (dropped events included,
    /// message spans included — their push cost is paid like any other
    /// event, so the overhead model must count them).
    pub fn events_recorded(&self) -> u64 {
        self.shared.spans.attempts() + self.shared.msgs.attempts()
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

    /// Collect every span recorded so far into a [`Trace`], sorted by
    /// start time (ties by node, lane). The store is retained, so
    /// draining twice yields the same spans.
    ///
    /// # Quiesce contract
    ///
    /// A complete trace requires every producer to have quiesced (threads
    /// joined / handles dropped) — this is asserted in debug builds. For
    /// a live mid-run view use [`Recorder::with_collected`] instead.
    pub fn drain(&self) -> Trace {
        self.collect();
        let shared = &self.shared;
        Trace {
            spans: shared
                .spans
                .sorted("span", |s| (s.start_ns, s.node, s.lane, s.end_ns)),
            msgs: shared.msgs.sorted("msg", |m| {
                (m.enqueue_ns, m.src, m.dst, m.inject_ns, m.deliver_ns)
            }),
            kinds: shared
                .kinds
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            dropped: self.dropped(),
            dropped_msgs: self.dropped_msgs(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Per-thread handle writing spans into a private lock-free ring.
pub struct LocalRecorder {
    producer: RingProducer<SpanRecord>,
}

impl LocalRecorder {
    /// Record one span. On a full ring the span is dropped and counted
    /// (never blocks). `end_ns` must not precede `start_ns`.
    pub fn record(&self, span: SpanRecord) {
        debug_assert!(span.end_ns >= span.start_ns, "span ends before it starts");
        self.producer.push(span);
    }

    /// Record a task-execution span with no task identity.
    pub fn task(&self, node: u32, lane: u32, kind: u32, start_ns: u64, end_ns: u64) {
        self.task_instance(node, lane, kind, SpanRecord::NO_TASK, start_ns, end_ns);
    }

    /// Record a task-execution span stamped with a task-instance id, so
    /// downstream analysis can join the span to the unfolded task graph.
    pub fn task_instance(
        &self,
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
    pub fn comm(&self, node: u32, lane: u32, start_ns: u64, end_ns: u64) {
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

/// Per-thread handle writing message spans into a private lock-free
/// ring, symmetric to [`LocalRecorder`] for spans.
pub struct MsgRecorder {
    producer: RingProducer<MsgSpan>,
}

impl MsgRecorder {
    /// Record one cross-node message. On a full ring the span is dropped
    /// and counted (never blocks).
    pub fn record(&self, msg: MsgSpan) {
        debug_assert!(
            msg.deliver_ns >= msg.inject_ns && msg.inject_ns >= msg.enqueue_ns,
            "msg timestamps out of order: enqueue {} inject {} deliver {}",
            msg.enqueue_ns,
            msg.inject_ns,
            msg.deliver_ns
        );
        self.producer.push(msg);
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
    /// Spans dropped by full lane rings (0 means the trace is complete).
    pub dropped: u64,
    /// Message spans dropped by full msg-lane rings.
    pub dropped_msgs: u64,
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
        let l = rec.local();
        l.task_instance(0, 0, 1, 42, 0, 10);
        l.task(0, 0, 1, 10, 20);
        l.comm(0, 2, 0, 5);
        let t = rec.drain();
        let ids: Vec<Option<u64>> = t.spans.iter().map(|s| s.task_instance()).collect();
        assert!(ids.contains(&Some(42)));
        assert_eq!(ids.iter().filter(|i| i.is_none()).count(), 2);
    }

    #[test]
    fn record_and_drain_sorted() {
        let rec = Recorder::new();
        let a = rec.local();
        let b = rec.local();
        a.task(0, 0, 1, 50, 60);
        b.task(0, 1, 1, 0, 10);
        a.task(1, 0, 2, 20, 40);
        let t = rec.drain();
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[0].start_ns, 0);
        assert_eq!(t.spans[2].start_ns, 50);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn drain_twice_yields_same_spans() {
        let rec = Recorder::new();
        let l = rec.local();
        l.task(0, 0, 1, 0, 10);
        l.task(0, 0, 1, 10, 20);
        let first = rec.drain();
        let second = rec.drain();
        assert_eq!(first.spans, second.spans);
        // spans recorded after a drain show up in the next one
        l.task(0, 0, 1, 20, 30);
        assert_eq!(rec.drain().len(), 3);
    }

    #[test]
    fn full_ring_drops_and_counts_without_blocking() {
        let rec = Recorder::with_capacity(4);
        let l = rec.local();
        for i in 0..10u64 {
            l.task(0, 0, 0, i, i + 1);
        }
        let t = rec.drain();
        // Overflow drops the *newest* spans (the push fails; nothing is
        // evicted) — the survivors are the oldest four.
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.spans[0].start_ns, 0);
        assert_eq!(rec.events_recorded(), 10);
        // Continuous collection empties the ring, so a collected recorder
        // keeps accepting spans past its in-flight capacity.
        rec.collect();
        l.task(0, 0, 0, 100, 101);
        let t = rec.drain();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn threads_record_concurrently() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for node in 0..4u32 {
                let local = rec.local();
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
    fn live_collection_while_producers_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let rec = Recorder::with_capacity(64);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let local = rec.local();
            let done = &done;
            s.spawn(move || {
                for i in 0..10_000u64 {
                    local.task(0, 0, 1, i, i + 1);
                }
                done.store(true, Ordering::Release);
            });
            // Collect continuously while the producer runs: the live view
            // is coherent mid-run, and every span ends up either in the
            // store or in the drop counter — never silently lost.
            while !done.load(Ordering::Acquire) {
                rec.collect();
                std::thread::yield_now();
            }
        });
        let t = rec.drain();
        assert_eq!(t.len() as u64 + t.dropped, 10_000, "no span lost");
    }

    #[test]
    fn overhead_reports_calibrated_cost() {
        let rec = Recorder::new();
        let l = rec.local();
        for i in 0..100u64 {
            l.task(0, 0, 0, i, i + 1);
        }
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
        let l = rec.local();
        l.task(0, 0, 0, 0, 1);
        l.comm(0, 2, 1, 2);
        let t = rec.drain();
        assert_eq!(t.kinds.get(&0).map(String::as_str), Some("interior"));
        assert_eq!(t.count_by_kind().get(&crate::KIND_COMM), Some(&1));
        assert_eq!(t.task_spans().count(), 1);
        assert_eq!(t.nodes(), vec![0]);
    }

    #[test]
    fn msg_lanes_drain_into_trace() {
        let rec = Recorder::new();
        let m = rec.msg_local();
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
        let t = rec.drain();
        assert_eq!(t.msgs.len(), 2);
        assert_eq!(t.msgs[0].enqueue_ns, 0, "sorted by enqueue time");
        assert_eq!(t.dropped_msgs, 0);
        // Msg pushes count toward the overhead model's event total.
        assert_eq!(rec.events_recorded(), 2);
        let matrix = t.comm_matrix();
        assert_eq!(matrix.total_messages(), 2);
        assert_eq!(matrix.total_bytes(), 192);
    }

    #[test]
    fn msg_ring_overflow_reconciles_per_lane() {
        let rec = Recorder::with_capacity(4);
        let l = rec.local();
        let m = rec.msg_local();
        for i in 0..10u64 {
            l.task(0, 0, 0, i, i + 1);
            m.record(MsgSpan {
                src: 0,
                dst: 1,
                kind: 0,
                bytes: 8,
                enqueue_ns: i,
                inject_ns: i,
                deliver_ns: i + 1,
            });
        }
        let t = rec.drain();
        assert_eq!(t.len(), 4);
        assert_eq!(t.msgs.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.dropped_msgs, 6);
        let per_lane = rec.dropped_per_lane();
        assert_eq!(per_lane, vec![6, 6]);
        assert_eq!(
            per_lane.iter().sum::<u64>(),
            t.dropped + t.dropped_msgs,
            "per-lane drops reconcile with trace totals"
        );
        assert_eq!(rec.events_recorded(), 20);
        // The matrix over the surviving spans is an exact account of what
        // was kept, flagged as a lower bound by the drop counter.
        let matrix = t.comm_matrix();
        assert_eq!(matrix.total_messages() + matrix.dropped, 10);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::start();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}
