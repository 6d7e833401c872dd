//! The stencil task class (paper Section IV-B): one task per tile per
//! iteration, in two [`Scheme`]s of one parameterized class — the way
//! PaRSEC writes such a family as one task class with guarded flows.
//! The schemes differ in which flows are *deep* and in how a
//! node-boundary tile spends the iterations between exchanges.
//!
//! **The deep-edge rule.** A flow into tile `b` is deep when
//! `Stencil::deep` says so. A deep edge carries an `s`-deep edge strip
//! (or, across a diagonal, an `s × s` corner block) and only from
//! exchange producers, iterations `t` with `t mod s = 0`; every other
//! edge carries a one-layer strip every iteration. The producer's flows
//! (`Stencil::for_each_out`) and the consumer's activation count
//! (counting the same edges from the other end) both derive from it.
//!
//! * [`Scheme::Base`] (Section IV-B1): no edge is deep. Every tile
//!   exchanges a one-layer strip with every side neighbour every
//!   iteration; tiles on the node-block perimeter generate one message per
//!   remote side per iteration.
//! * [`Scheme::Ca`] — Demmel et al.'s PA1 applied at node boundaries
//!   (Section IV-B2; "Our implementation follows the PA1 algorithm"): an
//!   edge is deep when its consumer keeps a deep ghost ring, i.e. is a
//!   node-boundary tile. Every `s` iterations such a tile
//!   receives `s`-deep edge strips from all four neighbours **and** `s × s`
//!   corner blocks from the four diagonal neighbours ("we need to buffer
//!   additional data from the four corner neighbors"); in the `s − 1`
//!   iterations in between it fires on the self-flow alone, redundantly
//!   recomputing its shrinking halo instead of communicating. Interior
//!   tiles behave exactly as in the base scheme. With phase
//!   `k = (t − 1) mod s` counted from the exchange iteration, a boundary
//!   tile's current iterate is valid `s − k` layers beyond the tile on
//!   every side that has a neighbour, it updates `s − 1 − k` layers, and
//!   after `s` phases the ring is empty and refilled — the classic PA1
//!   trapezoid, expressed as per-side extents (domain sides never extend:
//!   the static Dirichlet ring is always valid at depth 1).
//!
//! A tile's ghost-ring depth (`Scheme::ring_depth`) is `s` on
//! node-boundary tiles under CA and 1 everywhere else ("this version will
//! use slightly more memory", Section IV-B2).

use crate::config::{StencilBuild, StencilConfig};
use crate::flows::{
    cross_rects, slot_of_corner, slot_of_side, OutFlow, KIND_BOUNDARY, KIND_INIT, KIND_INTERIOR,
    NUM_SLOTS_BASE, NUM_SLOTS_CA, SLOT_SELF,
};
use crate::geometry::{Corner, Side, StencilGeometry};
use crate::problem::Operator;
use crate::store::TileStore;
use crate::tile::{Extents, TileBuf};
use machine::StencilCostModel;
use netsim::NodeId;
use runtime::{
    FlowData, Footprint, OutputDep, Params, Program, Rect, TaskClass, TaskGraph, TaskKey,
};
use serde::Serialize;
use std::sync::Arc;

/// The builders register exactly one class per program, so consumer keys
/// always reference class 0.
const CLASS: u16 = 0;

/// Which stencil scheme a program runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheme {
    /// One-layer exchange every iteration.
    Base,
    /// PA1 communication avoidance with the configuration's step size.
    Ca,
}

impl Scheme {
    /// Ghost-ring depth of tile `(tx, ty)`: `steps` on node-boundary tiles
    /// under CA, 1 everywhere else. It sizes a data-carrying
    /// build's tile store, is what a store handed to `build_*_on` must
    /// provide, and is the depth of the pinned Dirichlet frame.
    pub(crate) fn ring_depth(
        self,
        geo: &StencilGeometry,
        steps: usize,
        tx: usize,
        ty: usize,
    ) -> usize {
        if self == Scheme::Ca && geo.is_node_boundary(tx, ty) {
            steps
        } else {
            1
        }
    }
}

/// The task class of every stencil scheme.
struct Stencil {
    scheme: Scheme,
    geo: StencilGeometry,
    store: Option<Arc<TileStore>>,
    model: StencilCostModel,
    op: Operator,
    iterations: u32,
    steps: usize,
    ratio: f64,
    /// [`build_ca_shrunk`]'s fault injection: mis-declare deep South
    /// strips one layer shallower than the wire actually carries.
    shrunk: bool,
}

impl Stencil {
    fn new(
        cfg: &StencilConfig,
        scheme: Scheme,
        store: Option<Arc<TileStore>>,
        shrunk: bool,
    ) -> Self {
        let mut model = StencilCostModel::for_profile(&cfg.profile);
        if cfg.problem.op.is_variable() {
            model = model.with_variable_coefficients();
        }
        Stencil {
            scheme,
            geo: cfg.geometry(),
            store,
            model,
            op: cfg.problem.op.clone(),
            iterations: cfg.iterations,
            steps: cfg.steps,
            ratio: cfg.ratio,
            shrunk,
        }
    }

    fn decode(p: Params) -> (usize, usize, u32) {
        (p[0] as usize, p[1] as usize, p[2] as u32)
    }

    fn key((tx, ty): (usize, usize), t: u32) -> TaskKey {
        TaskKey::new(CLASS, [tx as i32, ty as i32, t as i32, 0])
    }

    fn is_boundary(&self, tx: usize, ty: usize) -> bool {
        self.geo.is_node_boundary(tx, ty)
    }

    /// The deep-edge rule: whether the flows into tile `(bx, by)` from its
    /// side and diagonal neighbours carry `s`-deep strips and corner
    /// blocks, sent by exchange producers only (see the module docs).
    fn deep(&self, (bx, by): (usize, usize)) -> bool {
        self.scheme == Scheme::Ca && self.is_boundary(bx, by)
    }

    /// Phase within the CA cycle for an iteration `t ≥ 1`: 0 on exchange
    /// iterations.
    fn phase(&self, t: u32) -> usize {
        (t as usize - 1) % self.steps
    }

    /// Producer-side condition: tasks at iteration `t` feed the next
    /// exchange when `t` is a multiple of `s` (consumers at `t + 1` have
    /// phase 0).
    fn feeds_exchange(&self, t: u32) -> bool {
        (t as usize).is_multiple_of(self.steps)
    }

    /// The output flows of task `p`, in flow-index order, with their
    /// consumers and consumer slots: the single source of truth behind
    /// `outputs` (with each flow's size), `execute` and
    /// `num_output_flows`. One allocation-free visitor, so the answers
    /// cannot disagree.
    fn for_each_out(&self, p: Params, mut visit: impl FnMut(OutFlow, TaskKey, usize)) {
        let (tx, ty, t) = Self::decode(p);
        if t >= self.iterations {
            return;
        }
        visit(OutFlow::SelfFlow, Self::key((tx, ty), t + 1), SLOT_SELF);
        let exchange = self.feeds_exchange(t);
        for side in Side::ALL {
            if let Some(b) = self.geo.neighbor(tx, ty, side) {
                let depth = if !self.deep(b) {
                    1
                } else if exchange {
                    self.steps
                } else {
                    continue;
                };
                let slot = slot_of_side(side.opposite());
                visit(OutFlow::Strip { side, depth }, Self::key(b, t + 1), slot);
            }
        }
        if exchange {
            for corner in Corner::ALL {
                if let Some(d) = self.geo.diagonal(tx, ty, corner) {
                    if self.deep(d) {
                        visit(
                            OutFlow::Block {
                                corner,
                                depth: self.steps,
                            },
                            Self::key(d, t + 1),
                            slot_of_corner(corner.opposite()),
                        );
                    }
                }
            }
        }
    }

    /// Cells carried by all output flows of task `p` together.
    fn out_cells(&self, p: Params) -> usize {
        let mut cells = 0;
        self.for_each_out(p, |of, _, _| cells += of.bytes(self.geo.tile) / 8);
        cells
    }

    /// Update-region extents of a CA boundary tile at iteration `t ≥ 1`:
    /// `s − 1 − k` on sides with a neighbour, 0 towards the domain edge.
    /// Zero for every other tile and scheme.
    fn extents(&self, tx: usize, ty: usize, t: u32) -> Extents {
        if self.scheme != Scheme::Ca || !self.is_boundary(tx, ty) {
            return Extents::ZERO;
        }
        let e = self.steps - 1 - self.phase(t);
        let on = |side| {
            if self.geo.neighbor(tx, ty, side).is_some() {
                e
            } else {
                0
            }
        };
        Extents {
            north: on(Side::North),
            south: on(Side::South),
            west: on(Side::West),
            east: on(Side::East),
        }
    }

    /// Redundant halo points a CA boundary tile updates at iteration `t`:
    /// the extended region beyond the tile.
    fn halo_points(&self, tx: usize, ty: usize, t: u32) -> f64 {
        let tile = self.geo.tile;
        (self.extents(tx, ty, t).region_points(tile) - tile * tile) as f64
    }

    /// The rectangle task `(tx, ty, t)` updates, `t ≥ 1`: the tile,
    /// extended by the CA extents into a boundary tile's private ghost
    /// ring. Drives the read and write declarations.
    fn update_rect(&self, tx: usize, ty: usize, t: u32) -> Rect {
        let rect = self.geo.tile_rect(tx, ty);
        let ext = self.extents(tx, ty, t);
        Rect::new(
            rect.row - ext.north as i64,
            rect.col - ext.west as i64,
            rect.rows + (ext.north + ext.south) as u32,
            rect.cols + (ext.west + ext.east) as u32,
        )
    }

    /// Apply one Jacobi step on a tile with the given update extents,
    /// dispatching on the operator kind.
    fn apply(&self, buf: &mut TileBuf, tx: usize, ty: usize, ext: Extents) {
        match &self.op {
            Operator::Constant(w) => buf.jacobi_step(w, ext),
            Operator::Variable(f) => {
                buf.jacobi_step_var(|r, c| f(r, c), self.geo.tile_origin(tx, ty), ext)
            }
        }
    }
}

impl TaskClass for Stencil {
    fn name(&self) -> &str {
        match self.scheme {
            Scheme::Base => "base-stencil",
            Scheme::Ca => "ca-stencil",
        }
    }

    /// One task per tile per iterate `t = 0 ..= iterations`, so the box's
    /// volume is the program's task count and the runtime's slot space
    /// has no holes.
    fn param_box(&self) -> [u32; 4] {
        let geo = &self.geo;
        [
            geo.tiles_x as u32,
            geo.tiles_y as u32,
            self.iterations + 1,
            1,
        ]
    }

    fn node_of(&self, p: Params) -> NodeId {
        let (tx, ty, _) = Self::decode(p);
        self.geo.node_of_tile(tx, ty)
    }

    fn home(&self, p: Params, lanes: usize) -> Option<usize> {
        let (tx, ty, _) = Self::decode(p);
        Some(self.geo.home_lane(tx, ty, lanes))
    }

    /// The edges of `for_each_out` counted from the consumer's end: the
    /// self-flow, every side edge that is not deep, and the deep side and
    /// corner edges when the producers fed an exchange.
    fn activation_count(&self, p: Params) -> usize {
        let (tx, ty, t) = Self::decode(p);
        if t == 0 {
            return 0;
        }
        let exchange = self.feeds_exchange(t - 1);
        let deep = self.deep((tx, ty));
        let sides = if exchange || !deep {
            Side::ALL
                .iter()
                .filter(|&&side| self.geo.neighbor(tx, ty, side).is_some())
                .count()
        } else {
            0
        };
        let corners = if exchange && deep {
            Corner::ALL
                .iter()
                .filter(|&&corner| self.geo.diagonal(tx, ty, corner).is_some())
                .count()
        } else {
            0
        };
        1 + sides + corners
    }

    fn num_input_slots(&self, _p: Params) -> usize {
        match self.scheme {
            Scheme::Base => NUM_SLOTS_BASE,
            Scheme::Ca => NUM_SLOTS_CA,
        }
    }

    fn num_output_flows(&self, p: Params) -> usize {
        let mut flows = 0;
        self.for_each_out(p, |_, _, _| flows += 1);
        flows
    }

    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        let mut flow = 0;
        self.for_each_out(p, |of, consumer, slot| {
            out.push(OutputDep {
                flow,
                consumer,
                slot,
                bytes: of.bytes(self.geo.tile),
            });
            flow += 1;
        });
    }

    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        let Some(store) = &self.store else {
            panic!("{} built without data cannot execute bodies", self.name());
        };
        let (tx, ty, t) = Self::decode(p);
        let mut buf = store.lock(tx, ty);
        if t > 0 {
            let depth = if self.deep((tx, ty)) { self.steps } else { 1 };
            for side in Side::ALL {
                if let Some(flow) = inputs[slot_of_side(side)].take() {
                    buf.write_strip(side, depth, flow.expect_values());
                }
            }
            for corner in Corner::ALL {
                if let Some(flow) = inputs
                    .get_mut(slot_of_corner(corner))
                    .and_then(Option::take)
                {
                    buf.write_corner(corner, self.steps, flow.expect_values());
                }
            }
            self.apply(&mut buf, tx, ty, self.extents(tx, ty, t));
        }
        self.for_each_out(p, |of, _, _| out.push(of.extract(&buf)));
    }

    fn cost(&self, p: Params) -> f64 {
        let (tx, ty, t) = Self::decode(p);
        let tile = self.geo.tile;
        if t == 0 {
            // iterate-0 emission: strip copies only
            return self.model.ghost_copy_time(match self.scheme {
                Scheme::Base => 4 * tile,
                Scheme::Ca => self.out_cells(p),
            });
        }
        let full = self.model.task_time(tile, tile, self.ratio);
        if self.scheme == Scheme::Base || !self.is_boundary(tx, ty) {
            return full;
        }
        // CA's redundant halo work: the extended region beyond the tile,
        // at the same per-point cost (and the same ratio scaling) as the
        // kernel.
        let halo_points = self.halo_points(tx, ty, t);
        let halo = self
            .model
            .region_time(halo_points * self.ratio * self.ratio, tile, tile);
        // Exchange iterations additionally copy the deep ghost ring in —
        // the "extra copies in the body" that make the paper's CA kernels'
        // median 153 ms versus 136 ms base (Section VI-E).
        let copies = if self.phase(t) == 0 {
            let mut cells = 0usize;
            for side in Side::ALL {
                if self.geo.neighbor(tx, ty, side).is_some() {
                    cells += self.steps * tile;
                }
            }
            for corner in Corner::ALL {
                if self.geo.diagonal(tx, ty, corner).is_some() {
                    cells += self.steps * self.steps;
                }
            }
            self.model.ghost_copy_time(cells)
        } else {
            0.0
        };
        full + halo + copies
    }

    fn priority(&self, p: Params) -> i32 {
        // boundary tiles first: their strips reach the comm thread early
        let (tx, ty, _) = Self::decode(p);
        i32::from(self.is_boundary(tx, ty))
    }

    fn kind(&self, p: Params) -> u32 {
        let (tx, ty, t) = Self::decode(p);
        if t == 0 {
            KIND_INIT
        } else if self.is_boundary(tx, ty) {
            KIND_BOUNDARY
        } else {
            KIND_INTERIOR
        }
    }

    fn footprint(&self, p: Params, fp: &mut Footprint) {
        let (tx, ty, t) = Self::decode(p);
        let space = self.geo.tile_space(tx, ty);
        let tile = self.geo.tile_rect(tx, ty);
        // The iterate-0 emission "writes" the tile interior in the sense
        // the dataflow pass needs: it certifies the store's initial fill
        // of exactly the tile rectangle as valid. Deliberately NOT the
        // ghost ring — ghost validity must come from deliveries (or the
        // pinned Dirichlet frame), so a shrunken halo declaration shows
        // up as an uncovered read instead of hiding behind init. It reads
        // only the initial state it certifies itself, so declares no read.
        //
        // CA boundary tiles at t > 0 also update their halo: the written
        // rectangle extends beyond the tile by the current extents. Those
        // global coordinates overlap the neighbours' rectangles, but the
        // space is the tile's private buffer — the recompute writes its
        // own ghost ring, never the neighbour's cells — so no race is
        // declared.
        if t == 0 {
            fp.set_write(space, tile);
        } else {
            let update = self.update_rect(tx, ty, t);
            fp.set_write(space, update);
            fp.set_read(space, cross_rects(update));
        }
        // The Dirichlet frame is pre-filled through the whole ghost ring.
        let depth = self.scheme.ring_depth(&self.geo, self.steps, tx, ty);
        fp.set_pinned(space, self.geo.dirichlet_rects(tx, ty, depth));
        // Each strip or corner block fills its cells of the consumer's
        // ghost ring; the self-flow delivers nothing.
        let origin = self.geo.tile_origin(tx, ty);
        let mut flow = 0;
        self.for_each_out(p, |of, consumer, _| {
            if let Some(mut rect) = of.region(origin, self.geo.tile) {
                let deep_south = matches!(of, OutFlow::Strip { side: Side::South, depth }
                    if depth == self.steps);
                if self.shrunk && self.steps > 1 && deep_south {
                    // Fault injection: claim one layer less than the wire
                    // carries — the consumer's deepest north-ghost row
                    // (`rect.row`) goes undeclared, which the coverage
                    // proof must expose as an uncovered read.
                    rect = Rect::new(rect.row + 1, rect.col, rect.rows - 1, rect.cols);
                }
                let (cx, cy) = (consumer.params[0] as usize, consumer.params[1] as usize);
                fp.set_delivered(flow, self.geo.tile_space(cx, cy), [rect]);
            }
            flow += 1;
        });
    }

    fn flops(&self, p: Params) -> f64 {
        if Self::decode(p).2 == 0 {
            return 0.0;
        }
        // CA counts useful work only: its halo recompute is in
        // `redundant_flops`.
        self.model
            .task_flops(self.geo.tile, self.geo.tile, self.ratio)
    }

    fn redundant_flops(&self, p: Params) -> u64 {
        let (tx, ty, t) = Self::decode(p);
        if self.scheme != Scheme::Ca || t == 0 || !self.is_boundary(tx, ty) {
            return 0;
        }
        // 9 flops per updated point, scaled by the kernel ratio like the
        // useful work (see machine::StencilCostModel::task_flops)
        (self.halo_points(tx, ty, t) * self.ratio * self.ratio * 9.0).round() as u64
    }
}

/// A data-carrying build's tile store: every tile's ghost ring as deep as
/// the scheme's `Scheme::ring_depth`.
pub(crate) fn new_store(cfg: &StencilConfig, scheme: Scheme) -> Arc<TileStore> {
    let geo = cfg.geometry();
    Arc::new(TileStore::new(&cfg.problem, geo.clone(), |tx, ty| {
        scheme.ring_depth(&geo, cfg.steps, tx, ty)
    }))
}

fn build(
    cfg: &StencilConfig,
    scheme: Scheme,
    store: Option<Arc<TileStore>>,
    shrunk: bool,
) -> StencilBuild {
    let class = Stencil::new(cfg, scheme, store.clone(), shrunk);
    let geo = class.geo.clone();
    let mut graph = TaskGraph::new();
    let id = graph.add_class(Arc::new(class));
    assert_eq!(id, CLASS, "a stencil program has exactly one class");
    let roots = (0..geo.tiles_y)
        .flat_map(|ty| (0..geo.tiles_x).map(move |tx| Stencil::key((tx, ty), 0)))
        .collect();
    let total_tasks = geo.num_tiles() as u64 * (cfg.iterations as u64 + 1);
    StencilBuild {
        program: Program {
            graph: Arc::new(graph),
            roots,
            total_tasks,
        },
        store,
        geo,
    }
}

/// Build `scheme`'s program *over an existing store*, continuing from
/// whatever iterate the store currently holds (the iterate-0 emission
/// tasks read the store's current state). Every tile's ghost ring must
/// be at least as deep as `Scheme::ring_depth`.
pub(crate) fn build_on(cfg: &StencilConfig, scheme: Scheme, store: Arc<TileStore>) -> StencilBuild {
    let geo = cfg.geometry();
    assert_eq!(
        store.geometry().num_tiles(),
        geo.num_tiles(),
        "store was built for a different tiling"
    );
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            let depth = scheme.ring_depth(&geo, cfg.steps, tx, ty);
            assert!(
                store.lock(tx, ty).ghost() >= depth,
                "tile ({tx},{ty}) has ghost < its ring depth {depth}"
            );
        }
    }
    build(cfg, scheme, Some(store), false)
}

/// Build the base-scheme program. With `carry_data`, a [`TileStore`] is
/// initialized from the problem and task bodies perform the real Jacobi
/// updates; without, the program is performance-only.
pub fn build_base(cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    let store = carry_data.then(|| new_store(cfg, Scheme::Base));
    build(cfg, Scheme::Base, store, false)
}

/// Build the base-scheme program over an existing store, continuing from
/// the iterate it holds. Used for chunked solves with convergence checks
/// between chunks.
pub fn build_base_on(cfg: &StencilConfig, store: Arc<TileStore>) -> StencilBuild {
    build_on(cfg, Scheme::Base, store)
}

/// Build the CA-scheme program. Boundary tiles get `s`-deep ghost rings;
/// interior tiles stay at depth 1.
pub fn build_ca(cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    assert!(
        cfg.steps >= 1 && cfg.steps <= cfg.tile,
        "CA step size {} must be in [1, tile = {}]",
        cfg.steps,
        cfg.tile
    );
    let store = carry_data.then(|| new_store(cfg, Scheme::Ca));
    build(cfg, Scheme::Ca, store, false)
}

/// Build a CA program whose *declared* dataflow is deliberately wrong:
/// deep South strips claim one ghost layer less than the wire actually
/// carries (the graph, messages, and execution are untouched — only the
/// delivered region [`runtime::TaskClass::footprint`] declares shrinks). The
/// `analyze` crate's halo-coverage proof must reject this program with an
/// uncovered-read witness naming the missing row; it exists as the
/// mutation fixture for that check (`stencil-lint --mutate-ca`). Requires
/// `steps > 1`.
pub fn build_ca_shrunk(cfg: &StencilConfig) -> StencilBuild {
    assert!(
        cfg.steps > 1,
        "the shrunk-halo mutation needs a deep ghost (steps > 1)"
    );
    build(cfg, Scheme::Ca, None, true)
}

/// Build the CA-scheme program over an existing store (continuation; see
/// [`build_base_on`]). Boundary tiles in the store must have ghost rings
/// at least `steps` deep.
pub fn build_ca_on(cfg: &StencilConfig, store: Arc<TileStore>) -> StencilBuild {
    build_on(cfg, Scheme::Ca, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::reference::{jacobi_reference, max_abs_diff};
    use machine::MachineProfile;
    use netsim::ProcessGrid;
    use runtime::{run, RunConfig};

    fn cfg(n: usize, tile: usize, iters: u32, grid: ProcessGrid, steps: usize) -> StencilConfig {
        StencilConfig::new(Problem::scrambled(n, 123), tile, iters, grid).with_steps(steps)
    }

    #[test]
    fn graphs_analyze_clean_across_step_sizes() {
        for steps in [1, 2, 3, 4] {
            let c = cfg(16, 4, 7, ProcessGrid::new(2, 2), steps);
            let b = build_ca(&c, false);
            let a = analyze::assert_clean(&b.program);
            // the halo recompute is redundant work whenever s > 1
            assert_eq!(a.flops.redundant > 0, steps > 1, "steps = {steps}");
        }
    }

    #[test]
    fn graph_analyzes_clean_on_bigger_node_grid() {
        let c = cfg(36, 4, 5, ProcessGrid::new(3, 3), 3);
        analyze::assert_clean(&build_ca(&c, false).program);
    }

    #[test]
    fn simulated_matches_reference_bitwise() {
        // iteration count deliberately not a multiple of the step size
        for steps in [1, 2, 3] {
            let c = cfg(16, 4, 7, ProcessGrid::new(2, 2), steps);
            let b = build_ca(&c, true);
            run(
                &b.program,
                &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
            );
            let got = b.store.unwrap().gather();
            let want = jacobi_reference(&c.problem, 7);
            assert_eq!(
                max_abs_diff(&got, &want),
                0.0,
                "steps = {steps} diverged from reference"
            );
        }
    }

    #[test]
    fn real_executor_matches_reference_bitwise() {
        let c = cfg(16, 4, 6, ProcessGrid::new(2, 2), 3);
        let b = build_ca(&c, true);
        run(&b.program, &RunConfig::shared_memory(4));
        let got = b.store.unwrap().gather();
        let want = jacobi_reference(&c.problem, 6);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn ca_matches_base_bitwise() {
        let c = cfg(24, 4, 9, ProcessGrid::new(2, 2), 4);
        let ca = build_ca(&c, true);
        run(
            &ca.program,
            &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
        );
        let base = build_base(&c, true);
        run(
            &base.program,
            &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
        );
        assert_eq!(
            max_abs_diff(&ca.store.unwrap().gather(), &base.store.unwrap().gather()),
            0.0
        );
    }

    #[test]
    fn ca_sends_fewer_messages_than_base() {
        // Note: PA1 with explicit corner buffering (as the paper describes)
        // reduces the message count by roughly 0.4·s, not the full s — the
        // small corner blocks cost extra messages. s = 6 gives > 2×.
        let iters = 12;
        let c = cfg(48, 8, iters, ProcessGrid::new(2, 2), 6);
        let ca = run(
            &build_ca(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        let base = run(
            &build_base(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        assert!(
            ca.remote_messages() < base.remote_messages() / 2,
            "CA {} vs base {}",
            ca.remote_messages(),
            base.remote_messages()
        );
        // but CA messages are bigger: average bytes per message grows
        let ca_avg = ca.remote_bytes() as f64 / ca.remote_messages() as f64;
        let base_avg = base.remote_bytes() as f64 / base.remote_messages() as f64;
        assert!(ca_avg > base_avg, "CA avg {ca_avg} vs base avg {base_avg}");
    }

    #[test]
    fn exchange_cadence_matches_step_size() {
        // With s = 4 and 12 iterations, exchanges are fed by producers at
        // t = 0, 4, 8: 3 rounds of remote strip+corner messages.
        let c = cfg(32, 4, 12, ProcessGrid::new(2, 2), 4);
        let ca = run(
            &build_ca(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        // Remote side pairs: 4 block edges × 4 tile pairs × 2 directions.
        // Remote corner flows: around the centre cross of the 2×2 node
        // grid; count via geometry below.
        let geo = c.geometry();
        let mut strips = 0u64;
        let mut corners = 0u64;
        for ty in 0..geo.tiles_y {
            for tx in 0..geo.tiles_x {
                let me = geo.node_of_tile(tx, ty);
                for side in Side::ALL {
                    if let Some((nx, ny)) = geo.neighbor(tx, ty, side) {
                        if geo.node_of_tile(nx, ny) != me {
                            strips += 1;
                        }
                    }
                }
                for corner in Corner::ALL {
                    if let Some((dx, dy)) = geo.diagonal(tx, ty, corner) {
                        if geo.node_of_tile(dx, dy) != me && geo.is_node_boundary(dx, dy) {
                            corners += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(ca.remote_messages(), 3 * (strips + corners));
    }

    #[test]
    fn boundary_tasks_cost_more_than_interior() {
        // 8×8 tiles, 4×4 per node: (3,1) is on node 0's east block edge,
        // (1,1) is block-interior.
        let c = cfg(32, 4, 8, ProcessGrid::new(2, 2), 4);
        let b = build_ca(&c, false);
        let class = b.program.graph.class(0);
        // tile (3,1) is on node 0's east block edge; (1,1) is interior
        let boundary_exchange = class.cost([3, 1, 1, 0]);
        let boundary_quiet = class.cost([3, 1, 2, 0]);
        let interior = class.cost([1, 1, 1, 0]);
        assert!(boundary_exchange > boundary_quiet);
        assert!(boundary_quiet > interior);
    }

    #[test]
    #[should_panic(expected = "must be in [1, tile")]
    fn steps_beyond_tile_rejected() {
        let c = cfg(16, 4, 2, ProcessGrid::new(2, 2), 5);
        build_ca(&c, false);
    }

    #[test]
    fn steps_equal_tile_is_valid_and_correct() {
        let c = cfg(16, 4, 6, ProcessGrid::new(2, 2), 4);
        let b = build_ca(&c, true);
        run(
            &b.program,
            &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
        );
        let got = b.store.unwrap().gather();
        assert_eq!(max_abs_diff(&got, &jacobi_reference(&c.problem, 6)), 0.0);
    }

    /// The tests of the base scheme.
    mod base {
        use super::*;

        fn cfg(n: usize, tile: usize, iters: u32, grid: ProcessGrid) -> StencilConfig {
            StencilConfig::new(Problem::scrambled(n, 77), tile, iters, grid)
        }

        #[test]
        fn graph_is_analysis_clean() {
            let c = cfg(12, 4, 3, ProcessGrid::new(1, 1));
            let b = build_base(&c, false);
            analyze::assert_clean(&b.program);
            let c = cfg(16, 4, 2, ProcessGrid::new(2, 2));
            let b = build_base(&c, false);
            let a = analyze::assert_clean(&b.program);
            // 16 tiles × (2 iters + init), no redundant work in the base scheme
            assert_eq!(a.tasks, 16 * 3);
            assert_eq!(a.flops.redundant, 0);
        }

        #[test]
        fn real_executor_matches_reference_bitwise() {
            let c = cfg(12, 4, 5, ProcessGrid::new(1, 1));
            let b = build_base(&c, true);
            run(&b.program, &RunConfig::shared_memory(4));
            let got = b.store.unwrap().gather();
            let want = jacobi_reference(&c.problem, 5);
            assert_eq!(max_abs_diff(&got, &want), 0.0);
        }

        #[test]
        fn simulated_executor_matches_reference_bitwise() {
            let c = cfg(16, 4, 4, ProcessGrid::new(2, 2));
            let b = build_base(&c, true);
            let r = run(
                &b.program,
                &RunConfig::simulated(machine::MachineProfile::nacl(), 4).with_bodies(),
            );
            assert_eq!(r.tasks_executed, 16 * 5);
            let got = b.store.unwrap().gather();
            let want = jacobi_reference(&c.problem, 4);
            assert_eq!(max_abs_diff(&got, &want), 0.0);
        }

        #[test]
        fn remote_message_count_matches_block_perimeter() {
            // 4×4 tiles over 2×2 nodes: each node block is 2×2 tiles; remote
            // side pairs: along each of the 4 internal block edges, 2 tile
            // pairs; each pair exchanges 2 strips (one each way) per
            // iteration; producers run at t = 0..iters.
            let iters = 3;
            let c = cfg(16, 4, iters, ProcessGrid::new(2, 2));
            let b = build_base(&c, false);
            let r = run(
                &b.program,
                &RunConfig::simulated(machine::MachineProfile::nacl(), 4),
            );
            let per_iter = 4 * 2 * 2;
            assert_eq!(r.remote_messages(), (per_iter * iters) as u64);
            // each strip is tile × 8 bytes
            assert_eq!(r.remote_bytes(), r.remote_messages() * (4 * 8));
        }

        #[test]
        fn single_node_run_has_no_messages() {
            let c = cfg(12, 4, 3, ProcessGrid::new(1, 1));
            let b = build_base(&c, false);
            let r = run(
                &b.program,
                &RunConfig::simulated(machine::MachineProfile::nacl(), 1),
            );
            assert_eq!(r.remote_messages(), 0);
            assert!(r.counter("activations") > 0, "every flow stays local");
        }

        #[test]
        fn boundary_kind_tags_follow_geometry() {
            let c = cfg(32, 4, 1, ProcessGrid::new(2, 2));
            let b = build_base(&c, false);
            let class = b.program.graph.class(0);
            // 8×8 tiles, 4×4 per node: (3,1) touches node 1; (1,1) is interior
            assert_eq!(class.kind([3, 1, 1, 0]), KIND_BOUNDARY);
            assert_eq!(class.kind([1, 1, 1, 0]), KIND_INTERIOR);
            assert_eq!(class.kind([3, 1, 0, 0]), KIND_INIT);
            // a 1×1 node grid has no boundary tiles
            let c1 = cfg(16, 4, 1, ProcessGrid::new(1, 1));
            let b1 = build_base(&c1, false);
            assert_eq!(b1.program.graph.class(0).kind([0, 0, 1, 0]), KIND_INTERIOR);
        }
    }
}
