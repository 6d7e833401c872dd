//! The parameterized task model: PaRSEC's Parameterized Task Graph (PTG)
//! distilled to its load-bearing parts.
//!
//! A *task class* is a family of tasks indexed by up to four integer
//! parameters (for the stencil: tile column, tile row, iteration). The
//! class answers, **as pure functions of the parameters**:
//!
//! * which node owns (executes) the task,
//! * how many dataflow inputs it waits for and how many input slots it has,
//! * which successor tasks consume each of its outputs,
//! * what the task body does, and what it costs.
//!
//! Each class also declares the box its parameters range over, and the
//! [`TaskGraph`] numbers every task densely from it ([`TaskGraph::slot`]),
//! as Task Bench's `stencil_1d.jdf` derives a task's key from its
//! parameters. The runtime never materializes the whole DAG: tasks are
//! *discovered* when their first input arrives and *fire* when the
//! activation count is reached — exactly PaRSEC's dynamic unfolding of a
//! JDF — with their counters found by slot, not by hashing.

use netsim::NodeId;
use std::fmt;
use std::sync::Arc;

/// Task parameters: a fixed-size vector, unused trailing entries zero.
pub type Params = [i32; 4];

/// Identifier of a task class within its [`TaskGraph`].
pub type ClassId = u16;

/// A specific task instance: class plus parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskKey {
    /// Index of the class in the graph.
    pub class: ClassId,
    /// The instance parameters.
    pub params: Params,
}

impl TaskKey {
    /// Construct a key.
    pub fn new(class: ClassId, params: Params) -> Self {
        TaskKey { class, params }
    }

    /// Stable 64-bit id of this task instance: an FNV-1a hash over the
    /// class id and parameters. Executors stamp it into trace spans
    /// (`obs::SpanRecord::task`) and analysis joins those spans back to
    /// the same key in an [`crate::UnfoldedDag`] — both sides derive the
    /// id from this one function, so the join is exact. Collisions are
    /// astronomically unlikely at the ≤ 10⁷-task scales this workspace
    /// enumerates; [`obs::SpanRecord::NO_TASK`] (`u64::MAX`) is avoided.
    pub fn instance_id(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
        };
        mix(self.class as u64);
        for p in self.params {
            mix(p as u32 as u64);
        }
        if h == obs::SpanRecord::NO_TASK {
            h = 0;
        }
        h
    }
}

impl fmt::Debug for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T{}({},{},{},{})",
            self.class, self.params[0], self.params[1], self.params[2], self.params[3]
        )
    }
}

/// Data travelling along one flow edge: a logical byte count (always
/// present, used by the communication cost model) and optionally the actual
/// values (present when the run executes task bodies).
///
/// Payload buffers are recycled: when a `FlowData` is dropped while it is
/// the *only* owner of its payload, the whole `Arc<Vec<f64>>` goes back to
/// the dropping thread's free list and the next [`FlowData::filled`] on
/// that thread reuses it (see [`crate::payload`] for the contract). A
/// payload some clone can still read is never recycled.
#[derive(Clone, Default)]
pub struct FlowData {
    /// Bytes this flow occupies on the wire.
    pub bytes: usize,
    /// The payload, when the simulation carries real data.
    pub data: Option<Arc<Vec<f64>>>,
}

impl FlowData {
    /// A size-only flow (performance simulation, or a pure dependence such
    /// as the stencil's self-flow).
    pub fn sized(bytes: usize) -> Self {
        FlowData { bytes, data: None }
    }

    /// A flow carrying real values; the wire size is `8 × len`.
    pub fn values(v: Vec<f64>) -> Self {
        FlowData {
            bytes: v.len() * std::mem::size_of::<f64>(),
            data: Some(Arc::new(v)),
        }
    }

    /// A flow carrying the values `fill` writes into a recycled buffer
    /// (handed over empty, with room for `len` values): the
    /// allocation-free form of [`FlowData::values`] for bodies that
    /// produce a payload per task. The wire size is `8 ×` the length
    /// `fill` leaves behind.
    pub fn filled(len: usize, fill: impl FnOnce(&mut Vec<f64>)) -> Self {
        let mut payload = crate::payload::take(len);
        let buf = Arc::get_mut(&mut payload).expect("a pooled payload has exactly one owner");
        buf.clear();
        fill(buf);
        FlowData {
            bytes: buf.len() * std::mem::size_of::<f64>(),
            data: Some(payload),
        }
    }

    /// Borrow the payload values; panics if this is a size-only flow.
    pub fn expect_values(&self) -> &[f64] {
        self.data
            .as_deref()
            .map(Vec::as_slice)
            .expect("flow carries no payload (performance-only run?)")
    }
}

impl Drop for FlowData {
    fn drop(&mut self) {
        if let Some(mut payload) = self.data.take() {
            // Unique ownership is the whole safety argument: `get_mut`
            // succeeds only when no other `Arc` (hence no other
            // `FlowData` clone) can reach the buffer, now or later.
            if Arc::get_mut(&mut payload).is_some() {
                crate::payload::give_back(payload);
            }
        }
    }
}

impl fmt::Debug for FlowData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlowData({}B{})",
            self.bytes,
            if self.data.is_some() { ", +data" } else { "" }
        )
    }
}

/// An axis-aligned rectangle of grid cells, `rows × cols` starting at
/// `(row, col)`. Coordinates are whatever global frame the application
/// chooses (the stencil uses global grid coordinates); the analyzer only
/// intersects rectangles within one address space (see [`Footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// First row covered.
    pub row: i64,
    /// First column covered.
    pub col: i64,
    /// Number of rows covered.
    pub rows: u32,
    /// Number of columns covered.
    pub cols: u32,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(row: i64, col: i64, rows: u32, cols: u32) -> Self {
        Rect {
            row,
            col,
            rows,
            cols,
        }
    }

    /// True when the two rectangles share at least one cell.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.rows > 0
            && self.cols > 0
            && other.rows > 0
            && other.cols > 0
            && self.row < other.row + other.rows as i64
            && other.row < self.row + self.rows as i64
            && self.col < other.col + other.cols as i64
            && other.col < self.col + self.cols as i64
    }

    /// Number of cells covered.
    pub fn area(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }
}

/// The memory footprint of one task, for the static write-race and
/// region-dataflow analyses. Each region is a list of rectangles (they may
/// overlap; the analyzer unions them) in one named address space, e.g. a
/// tile-buffer id. Distinct spaces never alias, so a boundary tile's
/// redundant halo update, which writes its own ghost ring, does not race
/// with the neighbour's update of the same global coordinates. All
/// rectangles sit back to back in one vector: [`TaskClass::footprint`]
/// fills a caller-owned scratch, cleared between tasks, so declaring
/// allocates nothing once it has grown. A `set_*` call replaces an
/// earlier one for the same region; an empty list declares nothing, and
/// an undeclared region exempts the task (or flow) from its check.
#[derive(Debug, Default)]
pub struct Footprint {
    write: Option<(u64, Rect)>,
    read: Option<Span>,
    pinned: Option<Span>,
    /// Per output flow, in flow order; flows past the end declare nothing.
    delivered: Vec<Option<Span>>,
    rects: Vec<Rect>,
}

impl Clone for Footprint {
    fn clone(&self) -> Self {
        Footprint {
            write: self.write,
            read: self.read,
            pinned: self.pinned,
            delivered: self.delivered.clone(),
            rects: self.rects.clone(),
        }
    }

    /// Copies into both vectors' existing allocations, so a class that
    /// stores its declarations (the DTD front-end) fills a warmed scratch
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.write = source.write;
        self.read = source.read;
        self.pinned = source.pinned;
        self.delivered.clone_from(&source.delivered);
        self.rects.clone_from(&source.rects);
    }
}

/// A region of a [`Footprint`]: its space and its range of `rects`.
#[derive(Debug, Clone, Copy)]
struct Span {
    space: u64,
    start: u32,
    end: u32,
}

impl Footprint {
    /// Forget every declaration, keeping the vectors' capacity.
    pub fn clear(&mut self) {
        self.write = None;
        self.read = None;
        self.pinned = None;
        self.delivered.clear();
        self.rects.clear();
    }

    /// Forget the delivered declarations only.
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
    }

    /// Declare the rectangle the task writes. Two tasks race when they
    /// share a space, their rectangles intersect, and the DAG orders them
    /// neither way.
    pub fn set_write(&mut self, space: u64, rect: Rect) {
        self.write = Some((space, rect));
    }

    /// Declare the cells the task reads before (or while) writing. They
    /// must be covered — by a same-space predecessor's write, an
    /// in-edge's delivered region, or the task's own pinned cells —
    /// before the task can honestly run.
    pub fn set_read(&mut self, space: u64, rects: impl IntoIterator<Item = Rect>) {
        self.read = self.span(space, rects);
    }

    /// Declare cells of the task's space that hold *time-invariant*
    /// values — a Dirichlet boundary ring, immutable coefficients — and
    /// are therefore valid for every read without ever being rewritten.
    pub fn set_pinned(&mut self, space: u64, rects: impl IntoIterator<Item = Rect>) {
        self.pinned = self.span(space, rects);
    }

    /// Declare the cells of the **consumer's** `space` that the payload
    /// of output flow `flow` makes valid on arrival (e.g. the ghost strip
    /// a halo message fills). The area should match the flow's
    /// [`OutputDep::bytes`]: the analyzer pro-rates dead bytes over it.
    pub fn set_delivered(
        &mut self,
        flow: usize,
        space: u64,
        rects: impl IntoIterator<Item = Rect>,
    ) {
        let span = self.span(space, rects);
        if flow >= self.delivered.len() {
            self.delivered.resize(flow + 1, None);
        }
        self.delivered[flow] = span;
    }

    /// The written space and rectangle.
    pub fn write(&self) -> Option<(u64, Rect)> {
        self.write
    }

    /// The read space and rectangles.
    pub fn read(&self) -> Option<(u64, &[Rect])> {
        self.region(self.read)
    }

    /// The pinned space and rectangles.
    pub fn pinned(&self) -> Option<(u64, &[Rect])> {
        self.region(self.pinned)
    }

    /// The consumer's space and the rectangles output flow `flow`
    /// delivers there.
    pub fn delivered(&self, flow: usize) -> Option<(u64, &[Rect])> {
        self.region(self.delivered.get(flow).copied().flatten())
    }

    fn span(&mut self, space: u64, rects: impl IntoIterator<Item = Rect>) -> Option<Span> {
        let start = self.rects.len();
        self.rects.extend(rects);
        let index = |len: usize| u32::try_from(len).expect("footprint rects are indexed by u32");
        (self.rects.len() > start).then(|| Span {
            space,
            start: index(start),
            end: index(self.rects.len()),
        })
    }

    fn region(&self, span: Option<Span>) -> Option<(u64, &[Rect])> {
        span.map(|s| (s.space, &self.rects[s.start as usize..s.end as usize]))
    }
}

/// One consumer of one of a task's outputs, and the flow's wire size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDep {
    /// Which of the producer's output flows feeds this consumer.
    pub flow: usize,
    /// The consuming task.
    pub consumer: TaskKey,
    /// Which input slot of the consumer receives the flow.
    pub slot: usize,
    /// Bytes the flow occupies on the wire: what a performance-only run
    /// sends, and what the body's [`FlowData`] for `flow` should carry.
    pub bytes: usize,
}

/// A family of tasks sharing structure; the application implements this.
pub trait TaskClass: Send + Sync {
    /// Human-readable class name (used in traces and errors).
    fn name(&self) -> &str;

    /// The class's parameter box: an exclusive upper bound on each of the
    /// four parameters, every parameter starting at 0. Every task of the
    /// class must lie inside it; [`TaskGraph::slot`] numbers the box's
    /// points densely, and the executors' activation table holds one
    /// entry per point, so a box with few unused points keeps the table
    /// small (the stencil schemes' boxes have none).
    fn param_box(&self) -> [u32; 4];

    /// The node that executes task `p` (owner-computes placement).
    fn node_of(&self, p: Params) -> NodeId;

    /// The worker lane, of the `lanes` on task `p`'s node, that owns the
    /// task's data — PaRSEC's JDF affinity clause (`: descA(m, x)`). The
    /// threaded engine queues a released task on its home lane, so a
    /// tile's iterates stay with one core; the answer must be below
    /// `lanes`. `None` (the default) leaves the task on the lane that
    /// released it. The simulator ignores it.
    fn home(&self, p: Params, lanes: usize) -> Option<usize> {
        let _ = (p, lanes);
        None
    }

    /// Number of dataflow inputs task `p` waits for before it may fire.
    /// Must equal the number of `OutputDep`s across all predecessors that
    /// name this task as consumer ([`crate::unfold`] checks this).
    fn activation_count(&self, p: Params) -> usize;

    /// Total number of input slots of task `p` (≥ `activation_count`;
    /// extra slots stay empty and may be used by the body for defaults).
    fn num_input_slots(&self, p: Params) -> usize {
        self.activation_count(p)
    }

    /// Number of output flows task `p` produces.
    fn num_output_flows(&self, p: Params) -> usize;

    /// Consumers of task `p`'s outputs, each with its flow's wire size,
    /// pushed onto `out`. `out` is the caller's scratch — the executors
    /// reuse one vector per worker — and is empty on entry;
    /// implementations only push.
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>);

    /// The task body: consume inputs, push one `FlowData` per output flow
    /// onto `out` (position = flow id; `out` is the caller's scratch,
    /// empty on entry). Called only when the run executes bodies;
    /// performance-only runs send [`OutputDep::bytes`] instead.
    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>);

    /// Service time of task `p` on one worker core, in seconds (used by the
    /// simulated executor; the real executor measures instead).
    fn cost(&self, p: Params) -> f64;

    /// Trace kind tag (e.g. interior vs boundary task); defaults to the
    /// class id assigned at registration via [`TaskGraph::add_class`].
    fn kind(&self, p: Params) -> u32 {
        let _ = p;
        u32::MAX // replaced by class id when MAX
    }

    /// Scheduling priority (higher runs first under
    /// [`crate::scheduler::SchedulerPolicy::Priority`]). PaRSEC codes
    /// typically raise the priority of tasks whose outputs feed remote
    /// consumers, so communication starts as early as possible.
    fn priority(&self, p: Params) -> i32 {
        let _ = p;
        0
    }

    /// Declare task `p`'s memory footprint into `fp`: the caller's
    /// scratch, empty on entry. The default declares nothing, which
    /// exempts the task from the write-race and region-dataflow passes.
    fn footprint(&self, p: Params, fp: &mut Footprint) {
        let _ = (p, fp);
    }

    /// Useful floating-point operations task `p` performs (static
    /// work accounting; the default 0 opts out).
    fn flops(&self, p: Params) -> f64 {
        let _ = p;
        0.0
    }

    /// Redundant flops task `p` performs beyond the nominal algorithm —
    /// the CA scheme's halo recompute. Executors add this to the
    /// `obs::names::REDUNDANT_FLOPS` counter per completed task, and the
    /// static analyzer sums the same values, so the two always agree
    /// exactly.
    fn redundant_flops(&self, p: Params) -> u64 {
        let _ = p;
        0
    }
}

/// A registry of task classes forming one dataflow program, and the dense
/// numbering of their tasks: the classes' parameter boxes laid end to
/// end, in registration order.
pub struct TaskGraph {
    classes: Vec<Arc<dyn TaskClass>>,
    /// Each class's [`TaskClass::param_box`], as registered.
    boxes: Vec<[u32; 4]>,
    /// First slot of each class.
    offsets: Vec<u32>,
    num_slots: u32,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph {
            classes: Vec::new(),
            boxes: Vec::new(),
            offsets: Vec::new(),
            num_slots: 0,
        }
    }

    /// Register a class, returning its id (referenced by [`TaskKey`]s).
    /// Its parameter box takes the next slots; panics when the slots of
    /// all classes would not fit in a `u32`.
    pub fn add_class(&mut self, class: Arc<dyn TaskClass>) -> ClassId {
        assert!(
            self.classes.len() < ClassId::MAX as usize,
            "too many task classes"
        );
        let bound = class.param_box();
        let volume: u64 = bound.iter().map(|&b| u64::from(b)).product();
        self.num_slots = u64::from(self.num_slots)
            .checked_add(volume)
            .and_then(|end| u32::try_from(end).ok())
            .unwrap_or_else(|| {
                panic!(
                    "class {:?}'s parameter box {bound:?} overflows the u32 slot space",
                    class.name()
                )
            });
        self.offsets.push(self.num_slots - volume as u32);
        self.boxes.push(bound);
        self.classes.push(class);
        (self.classes.len() - 1) as ClassId
    }

    /// Look up a class; panics on an unregistered id.
    pub fn class(&self, id: ClassId) -> &dyn TaskClass {
        self.classes
            .get(id as usize)
            .unwrap_or_else(|| panic!("unknown task class {id}"))
            .as_ref()
    }

    /// Number of registered classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total slots: the summed volume of every class's parameter box.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// The dense slot of `key`: its class's first slot plus the
    /// mixed-radix index of its parameters in the class's box, `params[0]`
    /// varying fastest. Panics, naming the key and the box, when the key
    /// lies outside its class's box, and like [`TaskGraph::class`] when
    /// its class is not registered.
    pub fn slot(&self, key: TaskKey) -> u32 {
        self.try_slot(key).unwrap_or_else(|| {
            panic!(
                "{key:?} lies outside the parameter box {:?} of class {:?}",
                self.boxes[key.class as usize],
                self.class(key.class).name()
            )
        })
    }

    /// [`TaskGraph::slot`], or `None` when `key` lies outside its class's
    /// box.
    pub(crate) fn try_slot(&self, key: TaskKey) -> Option<u32> {
        let c = key.class as usize;
        let Some(&bound) = self.boxes.get(c) else {
            panic!("unknown task class {c}")
        };
        let mut local = 0u32;
        for i in (0..4).rev() {
            let p = u32::try_from(key.params[i])
                .ok()
                .filter(|&p| p < bound[i])?;
            // Cannot overflow: the result is below the box's volume,
            // which `add_class` checked fits in a u32.
            local = local * bound[i] + p;
        }
        Some(self.offsets[c] + local)
    }

    /// The task numbered `slot` (`< num_slots()`): the inverse of
    /// [`TaskGraph::slot`].
    pub(crate) fn key_at(&self, slot: u32) -> TaskKey {
        assert!(slot < self.num_slots, "slot {slot} out of range");
        // The last class starting at or before `slot`; classes with an
        // empty box share their successor's offset and never come last.
        let c = self.offsets.partition_point(|&o| o <= slot) - 1;
        let mut local = slot - self.offsets[c];
        let mut params = [0; 4];
        for (p, &b) in params.iter_mut().zip(&self.boxes[c]) {
            *p = (local % b) as i32;
            local /= b;
        }
        TaskKey::new(c as ClassId, params)
    }

    /// Trace kind of a task: the class's own kind, or the class id.
    pub fn kind_of(&self, key: TaskKey) -> u32 {
        let k = self.class(key.class).kind(key.params);
        if k == u32::MAX {
            key.class as u32
        } else {
            k
        }
    }
}

impl Default for TaskGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// A full program instance: the graph plus its entry tasks and size.
pub struct Program {
    /// The class registry.
    pub graph: Arc<TaskGraph>,
    /// Tasks with `activation_count == 0`; the runtime seeds these.
    pub roots: Vec<TaskKey>,
    /// Exact total number of tasks that will execute (termination is
    /// detected by counting completions).
    pub total_tasks: u64,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::collections::HashMap;

    /// A tiny configurable class for runtime unit tests: an explicit DAG
    /// over params[0] as the task index.
    pub struct ExplicitDag {
        pub name: String,
        /// The class's parameter box; task indices lie in `0..bound[0]`.
        pub bound: [u32; 4],
        /// edges[i] = list of (consumer index, consumer slot)
        pub edges: HashMap<i32, Vec<(i32, usize)>>,
        /// indegree of each task
        pub indeg: HashMap<i32, usize>,
        /// node placement
        pub node: HashMap<i32, NodeId>,
        /// per-task cost seconds
        pub cost: f64,
        /// bytes per output flow
        pub bytes: usize,
    }

    impl TaskClass for ExplicitDag {
        fn name(&self) -> &str {
            &self.name
        }
        fn param_box(&self) -> [u32; 4] {
            self.bound
        }
        fn node_of(&self, p: Params) -> NodeId {
            *self.node.get(&p[0]).unwrap_or(&0)
        }
        fn activation_count(&self, p: Params) -> usize {
            *self.indeg.get(&p[0]).unwrap_or(&0)
        }
        fn num_output_flows(&self, p: Params) -> usize {
            self.edges.get(&p[0]).map_or(0, Vec::len)
        }
        fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
            let edges = self.edges.get(&p[0]).into_iter().flatten();
            out.extend(edges.enumerate().map(|(flow, &(c, slot))| OutputDep {
                flow,
                consumer: TaskKey::new(0, [c, 0, 0, 0]),
                slot,
                bytes: self.bytes,
            }));
        }
        fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
            out.extend(
                (0..self.num_output_flows(p)).map(|_| FlowData::filled(1, |v| v.push(p[0] as f64))),
            );
        }
        fn cost(&self, _p: Params) -> f64 {
            self.cost
        }
    }

    /// An inert class for ready-queue tests: task `p` has priority
    /// `table[p[0]]`, 0 when `p[0]` is not in the table, and home lane
    /// `p[1] - 1`, none when `p[1]` is 0.
    pub struct Prioritized(pub HashMap<i32, i32>);

    impl TaskClass for Prioritized {
        fn name(&self) -> &str {
            "prioritized"
        }
        fn param_box(&self) -> [u32; 4] {
            [1, 1, 1, 1]
        }
        fn node_of(&self, _p: Params) -> NodeId {
            0
        }
        fn home(&self, p: Params, _lanes: usize) -> Option<usize> {
            usize::try_from(p[1] - 1).ok()
        }
        fn activation_count(&self, _p: Params) -> usize {
            0
        }
        fn num_output_flows(&self, _p: Params) -> usize {
            0
        }
        fn outputs(&self, _p: Params, _out: &mut Vec<OutputDep>) {}
        fn execute(&self, _p: Params, _inputs: &mut [Option<FlowData>], _out: &mut Vec<FlowData>) {}
        fn cost(&self, _p: Params) -> f64 {
            0.0
        }
        fn priority(&self, p: Params) -> i32 {
            self.0.get(&p[0]).copied().unwrap_or(0)
        }
    }

    /// A one-class graph of [`Prioritized`] over `(p[0], priority)` pairs.
    pub fn prioritized(table: &[(i32, i32)]) -> Arc<TaskGraph> {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(Prioritized(table.iter().copied().collect())));
        Arc::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_data_values_sets_bytes() {
        let f = FlowData::values(vec![1.0, 2.0, 3.0]);
        assert_eq!(f.bytes, 24);
        assert_eq!(f.expect_values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "no payload")]
    fn sized_flow_has_no_values() {
        FlowData::sized(100).expect_values();
    }

    #[test]
    fn footprint_keeps_its_regions_apart() {
        let (a, b) = (Rect::new(0, 0, 4, 5), Rect::new(1, 2, 3, 4));
        let mut fp = Footprint::default();
        fp.set_write(9, a);
        fp.set_read(3, [a, b]);
        fp.set_delivered(2, 7, [b]);
        fp.set_pinned(3, []);
        assert_eq!(fp.write(), Some((9, a)));
        assert_eq!(fp.read(), Some((3, &[a, b][..])));
        assert_eq!(fp.pinned(), None, "an empty list declares nothing");
        assert_eq!(
            fp.delivered(0),
            None,
            "flows before a declared one are padded"
        );
        assert_eq!(fp.delivered(2), Some((7, &[b][..])));
        assert_eq!(fp.delivered(3), None);
        fp.set_read(4, [b]);
        assert_eq!(fp.read(), Some((4, &[b][..])), "a second call replaces");
        fp.clear();
        assert_empty(&fp);
    }

    #[test]
    fn clone_from_into_a_warmed_footprint_keeps_its_allocations() {
        let r = Rect::new(0, 0, 2, 2);
        let mut warm = Footprint::default();
        warm.set_read(1, [r; 8]);
        warm.set_delivered(5, 2, [r; 8]);
        let (rects, delivered) = (warm.rects.as_ptr(), warm.delivered.as_ptr());
        let capacity = (warm.rects.capacity(), warm.delivered.capacity());
        let mut source = Footprint::default();
        source.set_write(3, r);
        source.set_read(3, [r, r]);
        source.set_delivered(1, 4, [r]);
        warm.clone_from(&source);
        assert_eq!(
            (warm.rects.as_ptr(), warm.delivered.as_ptr()),
            (rects, delivered)
        );
        assert_eq!((warm.rects.capacity(), warm.delivered.capacity()), capacity);
        assert_eq!(warm.write(), Some((3, r)));
        assert_eq!(warm.read(), Some((3, &[r, r][..])));
        assert_eq!(warm.pinned(), None);
        assert_eq!(warm.delivered(0), None);
        assert_eq!(warm.delivered(1), Some((4, &[r][..])));
    }

    fn assert_empty(fp: &Footprint) {
        assert_eq!(fp.write(), None);
        assert_eq!(fp.read(), None);
        assert_eq!(fp.pinned(), None);
        assert_eq!(fp.delivered(0), None);
    }

    /// An edgeless [`testutil::ExplicitDag`] named `name` over `bound`.
    fn boxed(name: &str, bound: [u32; 4]) -> testutil::ExplicitDag {
        testutil::ExplicitDag {
            name: name.into(),
            bound,
            edges: Default::default(),
            indeg: Default::default(),
            node: Default::default(),
            cost: 0.0,
            bytes: 0,
        }
    }

    #[test]
    fn footprint_defaults_to_empty() {
        let mut fp = Footprint::default();
        boxed("a", [1, 1, 1, 1]).footprint([0; 4], &mut fp);
        assert_empty(&fp);
    }

    #[test]
    fn task_key_debug_is_compact() {
        let k = TaskKey::new(2, [1, 2, 3, 0]);
        assert_eq!(format!("{k:?}"), "T2(1,2,3,0)");
    }

    #[test]
    fn graph_registers_classes_in_order() {
        let mut g = TaskGraph::new();
        let c0 = g.add_class(Arc::new(boxed("a", [1, 1, 1, 1])));
        let c1 = g.add_class(Arc::new(boxed("b", [1, 1, 1, 1])));
        assert_eq!((c0, c1), (0, 1));
        assert_eq!(g.class(0).name(), "a");
        assert_eq!(g.class(1).name(), "b");
        assert_eq!(g.num_classes(), 2);
    }

    #[test]
    fn slots_number_every_box_point_once_in_mixed_radix_order() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(boxed("a", [3, 2, 1, 2])));
        g.add_class(Arc::new(boxed("empty", [4, 0, 1, 1])));
        g.add_class(Arc::new(boxed("c", [2, 1, 3, 1])));
        assert_eq!(g.num_slots(), 12 + 6);
        // params[0] varies fastest; the next class starts where the
        // previous box ends, and an empty box takes no slot.
        assert_eq!(g.slot(TaskKey::new(0, [2, 1, 0, 1])), 2 + 3 * (1 + 2));
        assert_eq!(g.slot(TaskKey::new(2, [0, 0, 0, 0])), 12);
        for slot in 0..g.num_slots() {
            assert_eq!(g.slot(g.key_at(slot)), slot);
        }
    }

    #[test]
    fn keys_outside_the_box_have_no_slot() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(boxed("a", [3, 2, 1, 1])));
        assert_eq!(g.try_slot(TaskKey::new(0, [3, 0, 0, 0])), None);
        assert_eq!(g.try_slot(TaskKey::new(0, [-1, 0, 0, 0])), None);
        assert_eq!(g.try_slot(TaskKey::new(0, [0, 0, 1, 0])), None);
        let outside = std::panic::AssertUnwindSafe(|| g.slot(TaskKey::new(0, [0, 2, 0, 0])));
        let err = std::panic::catch_unwind(outside).expect_err("outside the box");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("T0(0,2,0,0)") && msg.contains("[3, 2, 1, 1]"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "overflows the u32 slot space")]
    fn boxes_beyond_the_u32_slot_space_are_rejected() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(boxed("a", [1 << 16, 1 << 16, 1, 1])));
    }

    #[test]
    fn default_kind_is_class_id() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(boxed("a", [6, 1, 1, 1])));
        assert_eq!(g.kind_of(TaskKey::new(0, [5, 0, 0, 0])), 0);
    }

    #[test]
    #[should_panic(expected = "unknown task class")]
    fn unknown_class_panics() {
        TaskGraph::new().class(3);
    }

    #[test]
    fn slot_of_an_unknown_class_panics_like_class() {
        let mut g = TaskGraph::new();
        g.add_class(Arc::new(boxed("a", [2, 1, 1, 1])));
        let key = TaskKey::new(1, [0; 4]);
        let lookups: [&dyn Fn(); 2] = [&|| _ = g.slot(key), &|| _ = g.try_slot(key)];
        for lookup in lookups {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(lookup))
                .expect_err("class 1 is not registered");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(msg, "unknown task class 1");
        }
    }
}
