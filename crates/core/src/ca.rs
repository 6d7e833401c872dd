//! The communication-avoiding stencil (paper Section IV-B2): Demmel et
//! al.'s PA1 scheme applied at node boundaries, on top of the dataflow
//! runtime.
//!
//! Node-boundary tiles keep a ghost ring `s` layers deep. Every `s`
//! iterations they receive `s`-deep edge strips from all four neighbours
//! **and** `s × s` corner blocks from the four diagonal neighbours ("we
//! need to buffer additional data from the four corner neighbors"); in the
//! `s − 1` iterations in between they fire on the self-flow alone,
//! redundantly recomputing their shrinking halo instead of communicating.
//! Interior tiles behave exactly as in the base scheme.
//!
//! With phase `k = (t − 1) mod s` counted from the exchange iteration, a
//! boundary tile's current iterate is valid `s − k` layers beyond the tile
//! on every side that has a neighbour, it updates `s − 1 − k` layers, and
//! after `s` phases the ring is empty and refilled — the classic PA1
//! trapezoid, expressed as per-side extents (domain sides never extend:
//! the static Dirichlet ring is always valid at depth 1).

use crate::config::{StencilBuild, StencilConfig};
use crate::flows::{
    cross_rects, slot_of_corner, slot_of_side, stencil_box, OutFlow, OutFlows, KIND_BOUNDARY,
    KIND_INIT, KIND_INTERIOR, NUM_SLOTS_CA, SLOT_SELF,
};
use crate::geometry::{Corner, Side, StencilGeometry};
use crate::problem::Operator;
use crate::store::TileStore;
use crate::tile::Extents;
use machine::StencilCostModel;
use netsim::NodeId;
use runtime::{
    FlowData, OutputDep, Params, Program, ReadRegion, Rect, TaskClass, TaskGraph, TaskKey,
    WriteRegion,
};
use std::sync::Arc;

const CLASS: u16 = 0;

/// Task class of the CA scheme.
pub struct CaStencil {
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

impl CaStencil {
    fn decode(p: Params) -> (usize, usize, u32) {
        (p[0] as usize, p[1] as usize, p[2] as u32)
    }

    fn key(tx: usize, ty: usize, t: u32) -> TaskKey {
        TaskKey::new(CLASS, [tx as i32, ty as i32, t as i32, 0])
    }

    fn is_boundary(&self, tx: usize, ty: usize) -> bool {
        self.geo.is_node_boundary(tx, ty)
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

    /// Update-region extents of a boundary tile at iteration `t`:
    /// `s − 1 − k` on sides with a neighbour, 0 towards the domain edge.
    fn extents(&self, tx: usize, ty: usize, t: u32) -> Extents {
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

    /// The rectangle task `(tx, ty, t)` updates: the tile, extended by
    /// the current extents into the private ghost ring for boundary
    /// tiles. Shared by `write_region` and `read_region`.
    fn update_rect(&self, tx: usize, ty: usize, t: u32) -> Rect {
        let mut rect = self.geo.tile_rect(tx, ty);
        if self.is_boundary(tx, ty) {
            let ext = self.extents(tx, ty, t);
            rect = Rect::new(
                rect.row - ext.north as i64,
                rect.col - ext.west as i64,
                rect.rows + (ext.north + ext.south) as u32,
                rect.cols + (ext.west + ext.east) as u32,
            );
        }
        rect
    }

    /// Apply one Jacobi step on a tile with the given update extents,
    /// dispatching on the operator kind.
    fn apply(&self, buf: &mut crate::tile::TileBuf, tx: usize, ty: usize, ext: Extents) {
        match &self.op {
            Operator::Constant(w) => buf.jacobi_step(w, ext),
            Operator::Variable(f) => {
                buf.jacobi_step_var(|r, c| f(r, c), self.geo.tile_origin(tx, ty), ext)
            }
        }
    }
}

impl OutFlows for CaStencil {
    /// The output flows of task `p`, in flow-index order, with their
    /// consumers.
    fn for_each_out(&self, p: Params, mut visit: impl FnMut(OutFlow, TaskKey, usize)) {
        let (tx, ty, t) = Self::decode(p);
        if t >= self.iterations {
            return;
        }
        visit(OutFlow::SelfFlow, Self::key(tx, ty, t + 1), SLOT_SELF);
        let deep = self.feeds_exchange(t);
        for side in Side::ALL {
            if let Some((nx, ny)) = self.geo.neighbor(tx, ty, side) {
                if self.is_boundary(nx, ny) {
                    if deep {
                        visit(
                            OutFlow::Strip {
                                side,
                                depth: self.steps,
                            },
                            Self::key(nx, ny, t + 1),
                            slot_of_side(side.opposite()),
                        );
                    }
                } else {
                    visit(
                        OutFlow::Strip { side, depth: 1 },
                        Self::key(nx, ny, t + 1),
                        slot_of_side(side.opposite()),
                    );
                }
            }
        }
        if deep {
            for corner in Corner::ALL {
                if let Some((dx, dy)) = self.geo.diagonal(tx, ty, corner) {
                    if self.is_boundary(dx, dy) {
                        visit(
                            OutFlow::Block {
                                corner,
                                depth: self.steps,
                            },
                            Self::key(dx, dy, t + 1),
                            slot_of_corner(corner.opposite()),
                        );
                    }
                }
            }
        }
    }
}

impl TaskClass for CaStencil {
    fn name(&self) -> &str {
        "ca-stencil"
    }

    fn param_box(&self) -> [u32; 4] {
        stencil_box(&self.geo, self.iterations)
    }

    fn node_of(&self, p: Params) -> NodeId {
        let (tx, ty, _) = Self::decode(p);
        self.geo.node_of_tile(tx, ty)
    }

    fn home(&self, p: Params, lanes: usize) -> Option<usize> {
        let (tx, ty, _) = Self::decode(p);
        Some(self.geo.home_lane(tx, ty, lanes))
    }

    fn activation_count(&self, p: Params) -> usize {
        let (tx, ty, t) = Self::decode(p);
        if t == 0 {
            0
        } else if !self.is_boundary(tx, ty) {
            1 + self.geo.num_side_neighbors(tx, ty)
        } else if self.phase(t) == 0 {
            1 + self.geo.num_side_neighbors(tx, ty) + self.geo.num_diag_neighbors(tx, ty)
        } else {
            1 // self-flow only: the communication-avoided iterations
        }
    }

    fn num_input_slots(&self, _p: Params) -> usize {
        NUM_SLOTS_CA
    }

    fn num_output_flows(&self, p: Params) -> usize {
        self.count_out(p)
    }

    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        self.push_deps(p, self.geo.tile, out);
    }

    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        let store = self
            .store
            .as_ref()
            .expect("CA stencil built without data cannot execute bodies");
        let (tx, ty, t) = Self::decode(p);
        let mut buf = store.lock(tx, ty);
        if t > 0 {
            if !self.is_boundary(tx, ty) {
                for side in Side::ALL {
                    if let Some(flow) = inputs[slot_of_side(side)].take() {
                        buf.write_strip(side, 1, flow.expect_values());
                    }
                }
                self.apply(&mut buf, tx, ty, Extents::ZERO);
            } else {
                if self.phase(t) == 0 {
                    for side in Side::ALL {
                        if let Some(flow) = inputs[slot_of_side(side)].take() {
                            buf.write_strip(side, self.steps, flow.expect_values());
                        }
                    }
                    for corner in Corner::ALL {
                        if let Some(flow) = inputs[slot_of_corner(corner)].take() {
                            buf.write_corner(corner, self.steps, flow.expect_values());
                        }
                    }
                }
                let ext = self.extents(tx, ty, t);
                self.apply(&mut buf, tx, ty, ext);
            }
        }
        self.for_each_out(p, |of, _, _| out.push(of.extract(&buf)));
    }

    fn cost(&self, p: Params) -> f64 {
        let (tx, ty, t) = Self::decode(p);
        let tile = self.geo.tile;
        if t == 0 {
            return self.model.ghost_copy_time(self.out_cells(p, tile));
        }
        let base = self.model.task_time(tile, tile, self.ratio);
        if !self.is_boundary(tx, ty) {
            return base;
        }
        // Redundant halo work: the extended region beyond the tile, at the
        // same per-point cost (and the same ratio scaling) as the kernel.
        let ext = self.extents(tx, ty, t);
        let halo_points = (ext.region_points(tile) - tile * tile) as f64;
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
        base + halo + copies
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

    fn write_region(&self, p: Params) -> Option<WriteRegion> {
        let (tx, ty, t) = Self::decode(p);
        // The iterate-0 emission certifies the store's initial fill of
        // the tile rectangle — never the ghost ring, so ghost validity
        // must be proven from deliveries (see base.rs for the rationale).
        //
        // Boundary tiles at t > 0 also update their halo: the written
        // rectangle extends beyond the tile by the current extents. Those
        // global coordinates overlap the neighbours' rectangles, but the
        // space is the tile's private buffer — the recompute writes its
        // own ghost ring, never the neighbour's cells — so no race is
        // declared.
        let rect = if t == 0 {
            self.geo.tile_rect(tx, ty)
        } else {
            self.update_rect(tx, ty, t)
        };
        Some(WriteRegion {
            space: self.geo.tile_space(tx, ty),
            rect,
        })
    }

    fn read_region(&self, p: Params) -> Option<ReadRegion> {
        let (tx, ty, t) = Self::decode(p);
        // t = 0 reads only the initial state it certifies itself: exempt.
        (t > 0).then(|| ReadRegion {
            space: self.geo.tile_space(tx, ty),
            rects: cross_rects(self.update_rect(tx, ty, t)).to_vec(),
        })
    }

    fn pinned_region(&self, p: Params) -> Option<ReadRegion> {
        let (tx, ty, _) = Self::decode(p);
        // The Dirichlet frame is pre-filled through the whole ghost ring:
        // `steps` deep on boundary tiles, 1 on interior ones.
        let depth = if self.is_boundary(tx, ty) {
            self.steps
        } else {
            1
        };
        let rects = self.geo.dirichlet_rects(tx, ty, depth);
        (!rects.is_empty()).then(|| ReadRegion {
            space: self.geo.tile_space(tx, ty),
            rects,
        })
    }

    fn delivered_region(&self, p: Params, flow: usize) -> Option<ReadRegion> {
        let (tx, ty, _) = Self::decode(p);
        let (of, consumer, _) = self.nth_out(p, flow)?;
        let mut rect = of.region(self.geo.tile_origin(tx, ty), self.geo.tile)?;
        if self.shrunk && self.steps > 1 {
            if let OutFlow::Strip {
                side: Side::South,
                depth,
            } = of
            {
                if depth == self.steps {
                    // Fault injection: claim one layer less than the wire
                    // carries — the consumer's deepest north-ghost row
                    // (`rect.row`) goes undeclared, which the coverage
                    // proof must expose as an uncovered read.
                    rect = Rect::new(rect.row + 1, rect.col, rect.rows - 1, rect.cols);
                }
            }
        }
        let (cx, cy) = (consumer.params[0] as usize, consumer.params[1] as usize);
        Some(ReadRegion::single(self.geo.tile_space(cx, cy), rect))
    }

    fn flops(&self, p: Params) -> f64 {
        let (_, _, t) = Self::decode(p);
        if t == 0 {
            0.0
        } else {
            // useful work only; the halo recompute is in `redundant_flops`
            self.model
                .task_flops(self.geo.tile, self.geo.tile, self.ratio)
        }
    }

    fn redundant_flops(&self, p: Params) -> u64 {
        let (tx, ty, t) = Self::decode(p);
        if t == 0 || !self.is_boundary(tx, ty) {
            return 0;
        }
        let tile = self.geo.tile;
        let ext = self.extents(tx, ty, t);
        let halo_points = (ext.region_points(tile) - tile * tile) as f64;
        // 9 flops per updated point, scaled by the kernel ratio like the
        // useful work (see machine::StencilCostModel::task_flops)
        (halo_points * self.ratio * self.ratio * 9.0).round() as u64
    }
}

/// Build the CA-scheme program. Boundary tiles get `s`-deep ghost rings;
/// interior tiles stay at depth 1 ("this version will use slightly more
/// memory", Section IV-B2).
pub fn build_ca(cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    assert!(
        cfg.steps >= 1 && cfg.steps <= cfg.tile,
        "CA step size {} must be in [1, tile = {}]",
        cfg.steps,
        cfg.tile
    );
    let geo = cfg.geometry();
    let steps = cfg.steps;
    let store = carry_data.then(|| {
        let geo2 = geo.clone();
        Arc::new(TileStore::new(&cfg.problem, geo.clone(), |tx, ty| {
            if geo2.is_node_boundary(tx, ty) {
                steps
            } else {
                1
            }
        }))
    });
    build_ca_inner(cfg, geo, store, false)
}

/// Build a CA program whose *declared* dataflow is deliberately wrong:
/// deep South strips claim one ghost layer less than the wire actually
/// carries (the graph, messages, and execution are untouched — only the
/// [`runtime::TaskClass::delivered_region`] declaration shrinks). The
/// `analyze` crate's halo-coverage proof must reject this program with an
/// uncovered-read witness naming the missing row; it exists as the
/// mutation fixture for that check (`stencil-lint --mutate-ca`). Requires
/// `steps > 1`.
pub fn build_ca_shrunk(cfg: &StencilConfig) -> StencilBuild {
    assert!(
        cfg.steps > 1,
        "the shrunk-halo mutation needs a deep ghost (steps > 1)"
    );
    build_ca_inner(cfg, cfg.geometry(), None, true)
}

/// Build the CA-scheme program over an existing store (continuation; see
/// [`crate::base::build_base_on`]). Boundary tiles in the store must have
/// ghost rings at least `steps` deep.
pub fn build_ca_on(cfg: &StencilConfig, store: Arc<TileStore>) -> StencilBuild {
    let geo = cfg.geometry();
    assert_eq!(
        store.geometry().num_tiles(),
        geo.num_tiles(),
        "store was built for a different tiling"
    );
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            if geo.is_node_boundary(tx, ty) {
                assert!(
                    store.lock(tx, ty).ghost() >= cfg.steps,
                    "boundary tile ({tx},{ty}) has ghost < steps"
                );
            }
        }
    }
    build_ca_inner(cfg, geo, Some(store), false)
}

fn build_ca_inner(
    cfg: &StencilConfig,
    geo: StencilGeometry,
    store: Option<Arc<TileStore>>,
    shrunk: bool,
) -> StencilBuild {
    let steps = cfg.steps;
    let mut model = StencilCostModel::for_profile(&cfg.profile);
    if cfg.problem.op.is_variable() {
        model = model.with_variable_coefficients();
    }
    let class = CaStencil {
        geo: geo.clone(),
        store: store.clone(),
        model,
        op: cfg.problem.op.clone(),
        iterations: cfg.iterations,
        steps,
        ratio: cfg.ratio,
        shrunk,
    };
    let mut graph = TaskGraph::new();
    let id = graph.add_class(Arc::new(class));
    assert_eq!(id, CLASS, "CA program must have exactly one class");
    let roots = (0..geo.tiles_y)
        .flat_map(|ty| (0..geo.tiles_x).map(move |tx| CaStencil::key(tx, ty, 0)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::build_base;
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
}
