//! Region-dataflow analysis: halo-coverage proofs, dead-transfer
//! detection, and steady-state (periodic) verification.
//!
//! The pass interprets the footprint declarations of
//! [`runtime::TaskClass`] — [`write_region`](runtime::TaskClass::write_region),
//! [`read_region`](runtime::TaskClass::read_region),
//! [`delivered_region`](runtime::TaskClass::delivered_region),
//! [`pinned_region`](runtime::TaskClass::pinned_region) — over the
//! unfolded DAG with the exact rectangle algebra of [`crate::rectset`].
//!
//! **Coverage proof.** Tasks are swept in *layer* order (longest-path
//! depth from the roots). Per address space the pass accumulates the set
//! of valid cells: entering task `i`, `valid = state[space] ∪
//! deliveries(i) ∪ pinned(i)`; the check is `read(i) ⊆ valid`, and the
//! witness on failure is the largest uncovered rectangle. Afterwards
//! `state[space] ∪= deliveries(i) ∪ write(i)`. Accumulation (rather than
//! only the immediate predecessor's write) is what lets PA2's exchange
//! steps legitimately read band cells last refreshed several phases
//! earlier. The sweep is sound when tasks sharing a space are totally
//! ordered by the DAG, because then layer order is consistent with every
//! same-space dependence chain. The write-race pass certifies that
//! overlapping same-space writers are DAG-ordered; for the four stencil
//! schemes every space's writer chain is moreover fully linked (each
//! consecutive pair joined by the tile's self-flow), which is the total
//! order the sweep relies on.
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

use crate::diag::Diagnostic;
use crate::rectset::RectSet;
use crate::task_name;
use runtime::{InEdges, ReadRegion, UnfoldedDag};
use std::collections::HashMap;

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

/// 64-bit FNV-1a. Deterministic across runs and platforms, unlike
/// `DefaultHasher` — layer fingerprints must be reproducible.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_region(h: &mut Fnv, region: &Option<ReadRegion>) {
    match region {
        None => h.u64(0),
        Some(r) => {
            h.u64(1);
            h.u64(r.space);
            h.u64(r.rects.len() as u64);
            for rect in &r.rects {
                h.i64(rect.row);
                h.i64(rect.col);
                h.u64(rect.rows as u64);
                h.u64(rect.cols as u64);
            }
        }
    }
}

/// Footprints of one task instance, fetched once.
struct TaskInfo {
    write: Option<runtime::WriteRegion>,
    read: Option<ReadRegion>,
    pinned: Option<ReadRegion>,
    kind: u32,
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

struct Pass<'a> {
    dag: &'a UnfoldedDag,
    layer: Vec<usize>,
    layer_tasks: Vec<Vec<usize>>,
    infos: Vec<TaskInfo>,
    /// In-edge indices (into `dag.edges`) per consumer.
    in_edges: InEdges,
    /// Delivered region per edge, parallel to `dag.edges`.
    delivered: Vec<Option<ReadRegion>>,
    /// Union of every declared read footprint, per space.
    space_reads: HashMap<u64, RectSet>,
    /// Accumulated valid cells per space (the sweep's running state).
    state: HashMap<u64, RectSet>,
    diagnostics: Vec<Diagnostic>,
    layer_dead: Vec<LayerDead>,
    analyzed: usize,
    checked_reads: usize,
}

impl<'a> Pass<'a> {
    fn new(dag: &'a UnfoldedDag, topo: &[usize]) -> Self {
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
        let mut layer_tasks = vec![Vec::new(); depth];
        for i in 0..dag.len() {
            layer_tasks[layer[i]].push(i);
        }

        let infos: Vec<TaskInfo> = dag
            .tasks
            .iter()
            .map(|key| {
                let class = dag.graph.class(key.class);
                TaskInfo {
                    write: class.write_region(key.params),
                    read: class.read_region(key.params),
                    pinned: class.pinned_region(key.params),
                    kind: class.kind(key.params),
                }
            })
            .collect();

        let delivered = dag
            .edges
            .iter()
            .map(|e| {
                let key = dag.tasks[e.producer as usize];
                let class = dag.graph.class(key.class);
                class.delivered_region(key.params, e.flow.into())
            })
            .collect();

        let mut space_reads: HashMap<u64, RectSet> = HashMap::new();
        for info in &infos {
            if let Some(r) = &info.read {
                let set = space_reads.entry(r.space).or_default();
                for &rect in &r.rects {
                    set.insert(rect);
                }
            }
        }

        Pass {
            dag,
            layer,
            infos,
            in_edges: dag.in_edges(),
            delivered,
            space_reads,
            state: HashMap::new(),
            diagnostics: Vec::new(),
            layer_dead: vec![LayerDead::default(); depth],
            analyzed: 0,
            checked_reads: 0,
            layer_tasks,
        }
    }

    fn depth(&self) -> usize {
        self.layer_tasks.len()
    }

    /// Rectangle-sweep one layer: coverage checks, state accumulation,
    /// and dead-transfer accounting for the edges arriving here.
    fn sweep_layer(&mut self, l: usize) {
        let tasks = std::mem::take(&mut self.layer_tasks[l]);
        for &i in &tasks {
            let deliveries: Vec<u32> = self
                .in_edges
                .of(i)
                .iter()
                .copied()
                .filter(|&ei| self.delivered[ei as usize].is_some())
                .collect();
            let info = &self.infos[i];
            if info.read.is_none() && info.write.is_none() && deliveries.is_empty() {
                continue; // no region facts: exempt from the pass
            }
            self.analyzed += 1;

            if let Some(read) = &info.read {
                self.checked_reads += 1;
                let mut valid = self.state.get(&read.space).cloned().unwrap_or_default();
                if let Some(p) = &info.pinned {
                    if p.space == read.space {
                        for &r in &p.rects {
                            valid.insert(r);
                        }
                    }
                }
                for &ei in &deliveries {
                    let d = self.delivered[ei as usize].as_ref().unwrap();
                    if d.space == read.space {
                        for &r in &d.rects {
                            valid.insert(r);
                        }
                    }
                }
                let mut uncovered = RectSet::from_rects(read.rects.iter().copied());
                uncovered.subtract(&valid);
                if let Some(witness) = uncovered.largest() {
                    self.diagnostics.push(Diagnostic::UncoveredRead {
                        task: task_name(self.dag, i),
                        kind: info.kind,
                        space: read.space,
                        cells: uncovered.area(),
                        witness,
                    });
                }
            }

            // Accumulate: delivered cells and the task's own write become
            // valid for everything later in this space's chain.
            for &ei in &deliveries {
                let d = self.delivered[ei as usize].clone().unwrap();
                let set = self.state.entry(d.space).or_default();
                for rect in d.rects {
                    set.insert(rect);
                }
            }
            if let Some(w) = &self.infos[i].write {
                self.state.entry(w.space).or_default().insert(w.rect);
            }

            // Dead transfers on the in-edges, attributed to this layer.
            for &ei in &deliveries {
                let d = self.delivered[ei as usize].as_ref().unwrap();
                let Some(reads) = self.space_reads.get(&d.space) else {
                    continue; // space declares no reads at all: unknown
                };
                let mut dead = RectSet::from_rects(d.rects.iter().copied());
                let delivered_area = dead.area();
                if delivered_area == 0 {
                    continue;
                }
                dead.subtract(reads);
                if !dead.is_empty() {
                    let e = &self.dag.edges[ei as usize];
                    let bytes = e.bytes as u64 * dead.area() / delivered_area;
                    let ld = &mut self.layer_dead[l];
                    ld.bytes += bytes;
                    ld.edges += 1;
                    if self.dag.node_of(e.producer as usize)
                        != self.dag.node_of(e.consumer as usize)
                    {
                        ld.cross += bytes;
                    }
                }
            }
        }
        self.layer_tasks[l] = tasks;
    }

    /// Deterministic per-layer structure fingerprint. In-structure only:
    /// each task hashes its class, kind, footprints, and in-edges (with
    /// producer depth *relative* to the task) — never its out-edges — so
    /// the last layers of the DAG fingerprint identically to mid-stream
    /// ones and no epilogue special-case is needed.
    fn fingerprints(&self) -> Vec<u64> {
        (0..self.depth())
            .map(|l| {
                let mut task_hashes: Vec<u64> = self.layer_tasks[l]
                    .iter()
                    .map(|&i| self.task_fingerprint(i))
                    .collect();
                task_hashes.sort_unstable();
                let mut h = Fnv::new();
                h.u64(task_hashes.len() as u64);
                for th in task_hashes {
                    h.u64(th);
                }
                h.finish()
            })
            .collect()
    }

    fn task_fingerprint(&self, i: usize) -> u64 {
        let key = self.dag.tasks[i];
        let info = &self.infos[i];
        let mut h = Fnv::new();
        h.u64(key.class as u64);
        h.u64(info.kind as u64);
        match &info.write {
            None => h.u64(0),
            Some(w) => {
                h.u64(1);
                h.u64(w.space);
                h.i64(w.rect.row);
                h.i64(w.rect.col);
                h.u64(w.rect.rows as u64);
                h.u64(w.rect.cols as u64);
            }
        }
        hash_region(&mut h, &info.read);
        hash_region(&mut h, &info.pinned);
        let mut edge_hashes: Vec<u64> = self
            .in_edges
            .of(i)
            .iter()
            .map(|&ei| {
                let e = &self.dag.edges[ei as usize];
                let p = e.producer as usize;
                let pk = self.dag.tasks[p];
                let mut eh = Fnv::new();
                eh.u64((self.layer[i] - self.layer[p]) as u64);
                eh.u64(pk.class as u64);
                eh.u64(self.infos[p].kind as u64);
                eh.u64(e.slot as u64);
                eh.u64(e.bytes as u64);
                eh.u64(u64::from(
                    self.dag.node_of(p) != self.dag.node_of(e.consumer as usize),
                ));
                hash_region(&mut eh, &self.delivered[ei as usize]);
                eh.finish()
            })
            .collect();
        edge_hashes.sort_unstable();
        h.u64(edge_hashes.len() as u64);
        for eh in edge_hashes {
            h.u64(eh);
        }
        h.finish()
    }

    fn state_snapshot(&self) -> HashMap<u64, RectSet> {
        self.state.clone()
    }
}

fn states_equal(a: &HashMap<u64, RectSet>, b: &HashMap<u64, RectSet>) -> bool {
    let empty = RectSet::new();
    a.keys().chain(b.keys()).all(|k| {
        a.get(k)
            .unwrap_or(&empty)
            .same_cells(b.get(k).unwrap_or(&empty))
    })
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
    topo: &[usize],
    mode: DataflowMode,
) -> (Vec<Diagnostic>, DataflowReport) {
    let mut pass = Pass::new(dag, topo);
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
            let mut entry = pass.state_snapshot();
            while a + p <= m + 1 {
                sweep_until(&mut pass, a + p, &mut swept);
                let now = pass.state_snapshot();
                if states_equal(&entry, &now) {
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
                entry = now;
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
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = Fnv::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::new();
        b.u64(1);
        b.u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.u64(2);
        c.u64(1);
        assert_ne!(a.finish(), c.finish());
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
