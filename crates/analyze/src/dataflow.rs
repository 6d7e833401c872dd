//! Region-dataflow analysis: halo-coverage proofs, dead-transfer
//! detection, and steady-state (periodic) verification.
//!
//! The pass interprets the tasks' [`runtime::Footprint`] declarations —
//! write, read, pinned and per-flow delivered regions, from the table
//! `analyze_dag` collects once — over the unfolded DAG with the exact
//! rectangle algebra of [`crate::rectset`].
//!
//! **Coverage proof.** Tasks are swept in *layer* order (longest-path
//! depth from the roots). Per address space the pass accumulates the set
//! of valid cells: entering task `i`, `valid = state[space] ∪
//! deliveries(i) ∪ pinned(i)`; the check is `read(i) ⊆ valid`, and the
//! witness on failure is the largest uncovered rectangle. Afterwards
//! `state[space] ∪= deliveries(i) ∪ write(i)`. Accumulation (rather than
//! only the immediate predecessor's write) lets a read rely on cells
//! last refreshed several steps earlier. The sweep is sound when tasks
//! sharing a space are totally ordered by the DAG, because then layer
//! order is consistent with every same-space dependence chain. The
//! write-race pass certifies that overlapping same-space writers are
//! DAG-ordered; for the stencil schemes every space's writer chain is
//! moreover fully linked (each consecutive pair joined by the tile's
//! self-flow), which is the total order the sweep relies on.
//!
//! **Dead transfers.** An edge's delivered region is dead where no read
//! footprint of the destination space ever touches it ("no downstream
//! read", approximated time-insensitively: reads repeat every iteration
//! in these schemes, so the union over all layers equals the union over
//! future layers). Dead bytes are pro-rated by area against the edge's
//! wire bytes. Edges whose producer declares no delivered region, and
//! spaces with no declared reads at all, are exempt.
//!
//! **Steady state.** Stencil DAGs repeat after a prologue: the pass
//! fingerprints each layer's *in-structure* (classes, footprints,
//! in-edges with relative producer depth — never out-edges, so the final
//! layers fingerprint identically to mid-stream ones), detects the
//! smallest period `P`, sweeps prologue + one period, and certifies by
//! comparing the per-space valid states entering layer `a` and layer
//! `a+P` (semantic rectangle-set equality). Monotone accumulation makes
//! the entering states converge, so on mismatch the pass advances `a` by
//! `P` and sweeps one more period; once certified, every later layer's
//! verdict and dead-byte total provably repeats the congruent swept
//! layer, and the expensive rectangle sweep cost drops from O(layers) to
//! O(prologue + period).
//!
//! **Cost.** The sweep allocates nothing per task. The footprint table
//! holds every region in one flat rectangle array with dense space
//! indices, so the running state, the per-space read unions and the
//! certificate snapshots are vectors indexed by space, and the sweep's
//! `valid`, `uncovered` and `dead` sets are scratch [`RectSet`]s
//! refilled with `clone_from`/`clear`. The rectangle algebra splits in
//! place and keeps fragment order, so the witnesses are the ones a fresh
//! set would give. Fingerprints use a word hash — one multiply per `u64`,
//! fixed seed, no per-process key — so they stay deterministic across
//! runs and platforms; the edge hashes of each task are sorted in one
//! reused buffer.

use crate::diag::Diagnostic;
use crate::footprint::{Footprints, Region};
use crate::rectset::RectSet;
use crate::task_name;
use runtime::{InEdges, Rect, UnfoldedDag};
use std::hash::Hasher;

/// How much of the DAG the rectangle sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowMode {
    /// Sweep every layer of the unfolded DAG.
    Full,
    /// Detect the iteration period and sweep only prologue + one period,
    /// certifying that the rest repeats. Falls back to a full sweep when
    /// no period is found or the fixpoint never certifies.
    SteadyState,
}

/// What the region-dataflow pass established.
#[derive(Debug, Clone)]
pub struct DataflowReport {
    /// The mode the pass ran in.
    pub mode: DataflowMode,
    /// Number of layers (longest-path depths) in the DAG.
    pub layers: usize,
    /// Task instances actually visited by the rectangle sweep. Equal to
    /// the region-declaring task count in [`DataflowMode::Full`]; the
    /// point of [`DataflowMode::SteadyState`] is that this stays at
    /// O(prologue + period) layers' worth.
    pub analyzed_tasks: usize,
    /// Swept task instances whose declared read footprint was
    /// coverage-checked.
    pub checked_reads: usize,
    /// Uncovered-read diagnostics emitted (from swept layers only; in
    /// steady state, congruent unswept layers repeat these verdicts).
    pub uncovered: usize,
    /// The certified iteration period, when steady-state verification
    /// succeeded.
    pub period: Option<usize>,
    /// First certified-periodic layer (prologue length) when steady-state
    /// verification succeeded.
    pub prologue: usize,
    /// Total delivered bytes no downstream read touches (dead transfers),
    /// across all edges — extrapolated exactly in steady-state mode.
    pub dead_bytes: u64,
    /// The cross-node portion of [`dead_bytes`](Self::dead_bytes): bytes
    /// that actually crossed the wire for nothing.
    pub dead_cross_bytes: u64,
    /// Number of edges carrying at least one dead cell.
    pub dead_edges: usize,
}

/// Word-at-a-time hash: one multiply per `u64` and a final avalanche.
/// Deterministic across runs and platforms, unlike `DefaultHasher` —
/// layer fingerprints must be reproducible — and cheap enough to key the
/// footprint table's space interning.
pub(crate) struct WordHash(u64);

impl Default for WordHash {
    fn default() -> Self {
        WordHash(0x243f_6a88_85a3_08d3)
    }
}

impl WordHash {
    fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn rect(&mut self, r: &Rect) {
        self.u64(r.row as u64);
        self.u64(r.col as u64);
        self.u64(r.rows as u64);
        self.u64(r.cols as u64);
    }
}

impl Hasher for WordHash {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.u64(v);
    }
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// Per-layer dead-transfer totals, the unit of steady-state
/// extrapolation (an edge is attributed to its *consumer's* layer so the
/// totals are in-structure, like the fingerprints).
#[derive(Debug, Clone, Copy, Default)]
struct LayerDead {
    bytes: u64,
    cross: u64,
    edges: usize,
}

/// Buffers the sweep refills for every task instead of allocating.
#[derive(Default)]
struct Scratch {
    /// The task's in-edges that deliver a region, with that region.
    deliveries: Vec<(u32, Region)>,
    valid: RectSet,
    uncovered: RectSet,
    dead: RectSet,
}

struct Pass<'a> {
    dag: &'a UnfoldedDag,
    fps: &'a Footprints,
    layer: Vec<usize>,
    /// Task indices grouped by layer, ascending within one;
    /// `layer_start[l]..layer_start[l + 1]` is layer `l`.
    order: Vec<u32>,
    layer_start: Vec<u32>,
    /// Trace kind and node per task.
    kinds: Vec<u32>,
    nodes: Vec<u32>,
    /// In-edge indices (into `dag.edges`) per consumer.
    in_edges: InEdges,
    /// Union of every declared read footprint, per space; `None` for a
    /// space nothing declares a read in.
    space_reads: Vec<Option<RectSet>>,
    /// Accumulated valid cells per space (the sweep's running state).
    state: Vec<RectSet>,
    scratch: Scratch,
    diagnostics: Vec<Diagnostic>,
    layer_dead: Vec<LayerDead>,
    analyzed: usize,
    checked_reads: usize,
}

impl<'a> Pass<'a> {
    fn new(dag: &'a UnfoldedDag, fps: &'a Footprints, topo: &[usize]) -> Self {
        // Longest-path depth from the roots; every edge strictly
        // increases it, so a layer sweep respects all dependences.
        let mut layer = vec![0usize; dag.len()];
        for &i in topo {
            for e in dag.out_edges(i) {
                let c = e.consumer as usize;
                layer[c] = layer[c].max(layer[i] + 1);
            }
        }
        let depth = layer.iter().max().map_or(0, |&m| m + 1);
        // Counting sort by layer, stable in task index.
        let mut layer_start = vec![0u32; depth + 1];
        for &l in &layer {
            layer_start[l + 1] += 1;
        }
        for l in 0..depth {
            layer_start[l + 1] += layer_start[l];
        }
        let mut next = layer_start.clone();
        let mut order = vec![0u32; dag.len()];
        for (i, &l) in layer.iter().enumerate() {
            order[next[l] as usize] = i as u32;
            next[l] += 1;
        }

        let (kinds, nodes) = dag
            .tasks
            .iter()
            .map(|key| {
                let class = dag.graph.class(key.class);
                (class.kind(key.params), class.node_of(key.params))
            })
            .unzip();

        let spaces = fps.spaces.len();
        let mut space_reads: Vec<Option<RectSet>> = vec![None; spaces];
        for read in fps.tasks.iter().filter_map(|t| t.read) {
            let set = space_reads[read.space as usize].get_or_insert_with(RectSet::new);
            for &rect in read.of(&fps.rects) {
                set.insert(rect);
            }
        }

        Pass {
            dag,
            fps,
            layer,
            order,
            layer_start,
            kinds,
            nodes,
            in_edges: dag.in_edges(),
            state: vec![RectSet::new(); spaces],
            space_reads,
            scratch: Scratch::default(),
            diagnostics: Vec::new(),
            layer_dead: vec![LayerDead::default(); depth],
            analyzed: 0,
            checked_reads: 0,
        }
    }

    fn depth(&self) -> usize {
        self.layer_dead.len()
    }

    /// Layer `l`'s range in `order`.
    fn layer_span(&self, l: usize) -> std::ops::Range<usize> {
        self.layer_start[l] as usize..self.layer_start[l + 1] as usize
    }

    /// Rectangle-sweep one layer: coverage checks, state accumulation,
    /// and dead-transfer accounting for the edges arriving here.
    fn sweep_layer(&mut self, l: usize) {
        let span = self.layer_span(l);
        let rects = &self.fps.rects;
        let s = &mut self.scratch;
        for &i in &self.order[span] {
            let i = i as usize;
            s.deliveries.clear();
            s.deliveries.extend(
                self.in_edges
                    .of(i)
                    .iter()
                    .filter_map(|&ei| Some((ei, self.fps.delivered[ei as usize]?))),
            );
            let info = &self.fps.tasks[i];
            if info.read.is_none() && info.write.is_none() && s.deliveries.is_empty() {
                continue; // no region facts: exempt from the pass
            }
            self.analyzed += 1;

            if let Some(read) = info.read {
                self.checked_reads += 1;
                s.valid.clone_from(&self.state[read.space as usize]);
                if let Some(p) = info.pinned {
                    if p.space == read.space {
                        for &r in p.of(rects) {
                            s.valid.insert(r);
                        }
                    }
                }
                for &(_, d) in &s.deliveries {
                    if d.space == read.space {
                        for &r in d.of(rects) {
                            s.valid.insert(r);
                        }
                    }
                }
                s.uncovered.clear();
                for &r in read.of(rects) {
                    s.uncovered.insert(r);
                }
                s.uncovered.subtract(&s.valid);
                if let Some(witness) = s.uncovered.largest() {
                    self.diagnostics.push(Diagnostic::UncoveredRead {
                        task: task_name(self.dag, i),
                        kind: self.kinds[i],
                        space: self.fps.spaces[read.space as usize],
                        cells: s.uncovered.area(),
                        witness,
                    });
                }
            }

            // Accumulate: delivered cells and the task's own write become
            // valid for everything later in this space's chain.
            for &(_, d) in &s.deliveries {
                let set = &mut self.state[d.space as usize];
                for &r in d.of(rects) {
                    set.insert(r);
                }
            }
            if let Some((space, rect)) = info.write {
                self.state[space as usize].insert(rect);
            }

            // Dead transfers on the in-edges, attributed to this layer.
            for &(ei, d) in &s.deliveries {
                let Some(reads) = &self.space_reads[d.space as usize] else {
                    continue; // space declares no reads at all: unknown
                };
                s.dead.clear();
                for &r in d.of(rects) {
                    s.dead.insert(r);
                }
                let delivered_area = s.dead.area();
                if delivered_area == 0 {
                    continue;
                }
                s.dead.subtract(reads);
                if !s.dead.is_empty() {
                    let e = &self.dag.edges[ei as usize];
                    let bytes = e.bytes as u64 * s.dead.area() / delivered_area;
                    let ld = &mut self.layer_dead[l];
                    ld.bytes += bytes;
                    ld.edges += 1;
                    if self.nodes[e.producer as usize] != self.nodes[i] {
                        ld.cross += bytes;
                    }
                }
            }
        }
    }

    /// Deterministic per-layer structure fingerprint. In-structure only:
    /// each task hashes its class, kind, footprints, and in-edges (with
    /// producer depth *relative* to the task) — never its out-edges — so
    /// the last layers of the DAG fingerprint identically to mid-stream
    /// ones and no epilogue special-case is needed.
    fn fingerprints(&self) -> Vec<u64> {
        let mut task_hashes = Vec::new();
        let mut edge_hashes = Vec::new();
        (0..self.depth())
            .map(|l| {
                task_hashes.clear();
                for &i in &self.order[self.layer_span(l)] {
                    task_hashes.push(self.task_fingerprint(i as usize, &mut edge_hashes));
                }
                task_hashes.sort_unstable();
                let mut h = WordHash::default();
                h.u64(task_hashes.len() as u64);
                for &th in &task_hashes {
                    h.u64(th);
                }
                h.finish()
            })
            .collect()
    }

    fn hash_region(&self, h: &mut WordHash, region: Option<Region>) {
        match region {
            None => h.u64(0),
            Some(r) => {
                h.u64(1);
                h.u64(r.space as u64);
                let rects = r.of(&self.fps.rects);
                h.u64(rects.len() as u64);
                for rect in rects {
                    h.rect(rect);
                }
            }
        }
    }

    /// Task `i`'s fingerprint; `edge_hashes` is scratch.
    fn task_fingerprint(&self, i: usize, edge_hashes: &mut Vec<u64>) -> u64 {
        let key = self.dag.tasks[i];
        let info = &self.fps.tasks[i];
        let mut h = WordHash::default();
        h.u64(key.class as u64);
        h.u64(self.kinds[i] as u64);
        match &info.write {
            None => h.u64(0),
            Some((space, rect)) => {
                h.u64(1);
                h.u64(*space as u64);
                h.rect(rect);
            }
        }
        self.hash_region(&mut h, info.read);
        self.hash_region(&mut h, info.pinned);
        edge_hashes.clear();
        for &ei in self.in_edges.of(i) {
            let e = &self.dag.edges[ei as usize];
            let p = e.producer as usize;
            let mut eh = WordHash::default();
            eh.u64((self.layer[i] - self.layer[p]) as u64);
            eh.u64(self.dag.tasks[p].class as u64);
            eh.u64(self.kinds[p] as u64);
            eh.u64(e.slot as u64);
            eh.u64(e.bytes as u64);
            eh.u64(u64::from(self.nodes[p] != self.nodes[i]));
            self.hash_region(&mut eh, self.fps.delivered[ei as usize]);
            edge_hashes.push(eh.finish());
        }
        edge_hashes.sort_unstable();
        h.u64(edge_hashes.len() as u64);
        for &eh in edge_hashes.iter() {
            h.u64(eh);
        }
        h.finish()
    }
}

/// True when two per-space states hold the same cells in every space.
fn states_equal(a: &[RectSet], b: &[RectSet]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.same_cells(y))
}

/// Smallest `(prologue, period)` such that every layer fingerprint from
/// `prologue` on repeats with the period, with at least one full period
/// of evidence. `None` when the layering shows no repetition.
fn detect_period(fps: &[u64]) -> Option<(usize, usize)> {
    if fps.len() < 2 {
        return None;
    }
    let m = fps.len() - 1;
    for p in 1..=(fps.len() / 2) {
        let mut a = m - p + 1;
        for l in (0..=m - p).rev() {
            if fps[l] == fps[l + p] {
                a = l;
            } else {
                break;
            }
        }
        if a + p <= m {
            return Some((a, p));
        }
    }
    None
}

/// Run the pass over an acyclic, untruncated DAG. Returns the
/// uncovered-read diagnostics and the report.
pub(crate) fn run(
    dag: &UnfoldedDag,
    fps: &Footprints,
    topo: &[usize],
    mode: DataflowMode,
) -> (Vec<Diagnostic>, DataflowReport) {
    let mut pass = Pass::new(dag, fps, topo);
    let depth = pass.depth();
    let mut report = DataflowReport {
        mode,
        layers: depth,
        analyzed_tasks: 0,
        checked_reads: 0,
        uncovered: 0,
        period: None,
        prologue: 0,
        dead_bytes: 0,
        dead_cross_bytes: 0,
        dead_edges: 0,
    };
    if depth == 0 {
        return (Vec::new(), report);
    }

    let mut swept = 0usize; // next layer to sweep
    let sweep_until = |pass: &mut Pass, end: usize, swept: &mut usize| {
        while *swept < end {
            pass.sweep_layer(*swept);
            *swept += 1;
        }
    };

    if mode == DataflowMode::SteadyState {
        if let Some((a0, p)) = detect_period(&pass.fingerprints()) {
            let m = depth - 1;
            let mut a = a0;
            sweep_until(&mut pass, a, &mut swept);
            let mut entry = pass.state.clone();
            while a + p <= m + 1 {
                sweep_until(&mut pass, a + p, &mut swept);
                if states_equal(&entry, &pass.state) {
                    // Certified: layers >= a+p repeat the congruent layer
                    // in [a, a+p) — extrapolate their dead totals exactly.
                    for l in (a + p)..=m {
                        let c = a + (l - a) % p;
                        let ld = pass.layer_dead[c];
                        report.dead_bytes += ld.bytes;
                        report.dead_cross_bytes += ld.cross;
                        report.dead_edges += ld.edges;
                    }
                    report.period = Some(p);
                    report.prologue = a;
                    break;
                }
                entry.clone_from(&pass.state);
                a += p;
            }
        }
    }
    if report.period.is_none() {
        // Full mode, no period found, or the fixpoint never certified
        // within the DAG: sweep whatever remains.
        sweep_until(&mut pass, depth, &mut swept);
    }

    for ld in &pass.layer_dead[..swept] {
        report.dead_bytes += ld.bytes;
        report.dead_cross_bytes += ld.cross;
        report.dead_edges += ld.edges;
    }
    report.analyzed_tasks = pass.analyzed;
    report.checked_reads = pass.checked_reads;
    report.uncovered = pass.diagnostics.len();
    (pass.diagnostics, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_hash_is_deterministic_and_order_sensitive() {
        let hash = |words: &[u64]| {
            let mut h = WordHash::default();
            words.iter().for_each(|&w| h.u64(w));
            h.finish()
        };
        assert_eq!(hash(&[1, 2]), hash(&[1, 2]));
        assert_ne!(hash(&[1, 2]), hash(&[2, 1]));
        assert_ne!(hash(&[0]), hash(&[0, 0]));
        // pinned: the fingerprints must not change from run to run or
        // from platform to platform
        assert_eq!(hash(&[1, 2]), 0xff90_5c0f_d8b4_3a86);
    }

    #[test]
    fn detect_period_finds_smallest() {
        // prologue [9], then period-2 tail
        let fps = [9, 1, 2, 1, 2, 1, 2];
        assert_eq!(detect_period(&fps), Some((1, 2)));
        // pure period 1 after one odd layer
        let fps = [7, 3, 3, 3];
        assert_eq!(detect_period(&fps), Some((1, 1)));
        // no repetition
        assert_eq!(detect_period(&[1, 2, 3, 4]), None);
        assert_eq!(detect_period(&[5]), None);
    }

    #[test]
    fn detect_period_needs_a_full_period_of_evidence() {
        // fps[2]==fps[3] would suggest p=1 at a=2, but a+p <= m must
        // hold: here m=3, a=2, 2+1=3 <= 3 — accepted.
        assert_eq!(detect_period(&[1, 2, 3, 3]), Some((2, 1)));
        // Only the last layer "repeats" nothing before it: rejected.
        assert_eq!(detect_period(&[1, 2]), None);
    }
}
