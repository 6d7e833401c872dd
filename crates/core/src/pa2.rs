//! PA2 — the second communication-avoiding algorithm of Demmel et al.,
//! which the paper describes but does not implement ("PA1 is the naive
//! version while PA2 will minimize the redundant work but might limit the
//! amount of overlap between computation and communication"; "Our
//! implementation follows the PA1 algorithm").
//!
//! This module models PA2 as a *performance skeleton* so the PA1-vs-PA2
//! trade-off can be measured on the simulated clusters:
//!
//! * remote message cadence and sizes are **identical** to PA1 (one
//!   `s`-deep surface bundle per remote side pair plus corner blocks per
//!   cycle — in PA2 the bundle carries the neighbour's *computed* edge
//!   layers of the cycle's iterates instead of raw ghost data);
//! * **no redundant flops**: boundary tiles defer the edge bands that
//!   depend on not-yet-received remote surfaces (the band grows one cell
//!   per phase) and recompute nothing;
//! * the deferred work lands as a **catch-up bulge** in the exchange-phase
//!   task, serialized behind the message — exactly the reduced overlap the
//!   paper warns about;
//! * local-facing sides still exchange one-layer strips every iteration,
//!   so only remote sides participate in deferral.
//!
//! The skeleton carries no payloads (building with `carry_data` is
//! rejected): PA2's deferred-band numerics would require per-iterate ghost
//! history, which the paper's argument does not need.

use crate::config::{StencilBuild, StencilConfig};
use crate::flows::{
    cross_rects, slot_of_corner, slot_of_side, stencil_box, OutFlow, OutFlows, KIND_BOUNDARY,
    KIND_INIT, KIND_INTERIOR, NUM_SLOTS_CA, SLOT_SELF,
};
use crate::geometry::{Corner, Side, StencilGeometry};
use machine::StencilCostModel;
use netsim::NodeId;
use runtime::{
    FlowData, OutputDep, Params, Program, ReadRegion, Rect, TaskClass, TaskGraph, TaskKey,
    WriteRegion,
};
use std::sync::Arc;

const CLASS: u16 = 0;

/// Task class of the PA2 skeleton.
pub struct Pa2Stencil {
    geo: StencilGeometry,
    model: StencilCostModel,
    iterations: u32,
    steps: usize,
    ratio: f64,
}

impl Pa2Stencil {
    fn decode(p: Params) -> (usize, usize, u32) {
        (p[0] as usize, p[1] as usize, p[2] as u32)
    }

    fn key(tx: usize, ty: usize, t: u32) -> TaskKey {
        TaskKey::new(CLASS, [tx as i32, ty as i32, t as i32, 0])
    }

    fn is_remote(&self, tx: usize, ty: usize, nx: usize, ny: usize) -> bool {
        self.geo.node_of_tile(tx, ty) != self.geo.node_of_tile(nx, ny)
    }

    fn is_boundary(&self, tx: usize, ty: usize) -> bool {
        self.geo.is_node_boundary(tx, ty)
    }

    fn phase(&self, t: u32) -> usize {
        (t as usize - 1) % self.steps
    }

    fn feeds_exchange(&self, t: u32) -> bool {
        (t as usize).is_multiple_of(self.steps)
    }

    /// Cells of tile `(tx, ty)` deferred at phase `k`: the bands of width
    /// `k` along each remote side (clipped union over the rectangle).
    fn deferred_cells(&self, tx: usize, ty: usize, k: usize) -> usize {
        let tile = self.geo.tile;
        let band = |side| {
            if self
                .geo
                .neighbor(tx, ty, side)
                .is_some_and(|(nx, ny)| self.is_remote(tx, ty, nx, ny))
            {
                k
            } else {
                0
            }
        };
        let w = band(Side::West);
        let e = band(Side::East);
        let n = band(Side::North);
        let s = band(Side::South);
        let inner_w = tile.saturating_sub(w + e);
        let inner_h = tile.saturating_sub(n + s);
        tile * tile - inner_w * inner_h
    }

    fn local_side_neighbors(&self, tx: usize, ty: usize) -> usize {
        Side::ALL
            .iter()
            .filter(|&&s| {
                self.geo
                    .neighbor(tx, ty, s)
                    .is_some_and(|(nx, ny)| !self.is_remote(tx, ty, nx, ny))
            })
            .count()
    }

    fn remote_side_neighbors(&self, tx: usize, ty: usize) -> usize {
        Side::ALL
            .iter()
            .filter(|&&s| {
                self.geo
                    .neighbor(tx, ty, s)
                    .is_some_and(|(nx, ny)| self.is_remote(tx, ty, nx, ny))
            })
            .count()
    }

    fn remote_diag_neighbors(&self, tx: usize, ty: usize) -> usize {
        Corner::ALL
            .iter()
            .filter(|&&c| {
                self.geo
                    .diagonal(tx, ty, c)
                    .is_some_and(|(nx, ny)| self.is_remote(tx, ty, nx, ny))
            })
            .count()
    }

    /// The rectangle task `(tx, ty, t)` actually updates, `t ≥ 1`:
    /// interior tiles and non-boundary phases update the tile; a boundary
    /// tile's quiet phase `k` updates the tile *shrunk* by `k` along each
    /// remote side (the deferred band), and its exchange phase catches up
    /// through the remote surfaces — modeled as the tile *extended* by
    /// `s − 1` along remote sides, the deepest layer the catch-up
    /// consults. Drives the read/write region declarations.
    fn updated_rect(&self, tx: usize, ty: usize, t: u32) -> Rect {
        let rect = self.geo.tile_rect(tx, ty);
        if !self.is_boundary(tx, ty) {
            return rect;
        }
        let k = self.phase(t);
        let remote = |side| {
            if self
                .geo
                .neighbor(tx, ty, side)
                .is_some_and(|(nx, ny)| self.is_remote(tx, ty, nx, ny))
            {
                1i64
            } else {
                0
            }
        };
        let (n, s) = (remote(Side::North), remote(Side::South));
        let (w, e) = (remote(Side::West), remote(Side::East));
        let grow = if k == 0 {
            self.steps as i64 - 1
        } else {
            -(k as i64)
        };
        Rect::new(
            rect.row - n * grow,
            rect.col - w * grow,
            (rect.rows as i64 + (n + s) * grow) as u32,
            (rect.cols as i64 + (w + e) * grow) as u32,
        )
    }
}

impl OutFlows for Pa2Stencil {
    fn for_each_out(&self, p: Params, mut visit: impl FnMut(OutFlow, TaskKey, usize)) {
        let (tx, ty, t) = Self::decode(p);
        if t >= self.iterations {
            return;
        }
        visit(OutFlow::SelfFlow, Self::key(tx, ty, t + 1), SLOT_SELF);
        let deep = self.feeds_exchange(t);
        for side in Side::ALL {
            if let Some((nx, ny)) = self.geo.neighbor(tx, ty, side) {
                if self.is_remote(tx, ty, nx, ny) {
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
                    if self.is_remote(tx, ty, dx, dy) {
                        debug_assert!(
                            self.is_boundary(dx, dy),
                            "remote diagonal of a block distribution must be a boundary tile"
                        );
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

impl TaskClass for Pa2Stencil {
    fn name(&self) -> &str {
        "pa2-stencil"
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
            return 0;
        }
        if !self.is_boundary(tx, ty) {
            return 1 + self.geo.num_side_neighbors(tx, ty);
        }
        let locals = self.local_side_neighbors(tx, ty);
        if self.phase(t) == 0 {
            1 + locals + self.remote_side_neighbors(tx, ty) + self.remote_diag_neighbors(tx, ty)
        } else {
            1 + locals
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

    fn execute(&self, p: Params, _inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        // performance skeleton: sized flows only (see module docs)
        let tile = self.geo.tile;
        self.for_each_out(p, |of, _, _| out.push(FlowData::sized(of.bytes(tile))));
    }

    fn cost(&self, p: Params) -> f64 {
        let (tx, ty, t) = Self::decode(p);
        let tile = self.geo.tile;
        if t == 0 {
            return self.model.ghost_copy_time(self.out_cells(p, tile));
        }
        let full = self.model.task_time(tile, tile, self.ratio);
        if !self.is_boundary(tx, ty) {
            return full;
        }
        let k = self.phase(t);
        let r2 = self.ratio * self.ratio;
        if k == 0 {
            // exchange phase: this iteration's full tile, plus the
            // catch-up of every band deferred in the previous cycle
            // (phases 1..s-1), serialized behind the surface message.
            let catchup: usize = (1..self.steps)
                .map(|kk| self.deferred_cells(tx, ty, kk))
                .sum();
            full + self.model.region_time(catchup as f64 * r2, tile, tile)
        } else {
            // quiet phase: the deferred band is *not* computed now
            let deferred = self.deferred_cells(tx, ty, k);
            let done = (tile * tile - deferred) as f64;
            self.model.task_overhead + self.model.region_time(done * r2, tile, tile)
        }
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
        // PA2 defers instead of recomputing: writes never leave the tile.
        // Quiet phases honestly declare only the band they update (the
        // tile minus the deferred bands); exchange phases write the full
        // tile (current iterate plus the caught-up bands). The iterate-0
        // emission certifies the initial fill of the tile rectangle.
        let rect = if t == 0 || self.phase(t) == 0 {
            self.geo.tile_rect(tx, ty)
        } else {
            self.updated_rect(tx, ty, t)
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
            rects: cross_rects(self.updated_rect(tx, ty, t)).to_vec(),
        })
    }

    fn pinned_region(&self, p: Params) -> Option<ReadRegion> {
        let (tx, ty, _) = Self::decode(p);
        // Boundary tiles' exchange reads reach `s − 1` cells past the
        // tile along remote sides, so where such a side meets the domain
        // edge the Dirichlet frame must be declared that wide too.
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
        let rect = of.region(self.geo.tile_origin(tx, ty), self.geo.tile)?;
        let (cx, cy) = (consumer.params[0] as usize, consumer.params[1] as usize);
        Some(ReadRegion::single(self.geo.tile_space(cx, cy), rect))
    }

    fn flops(&self, p: Params) -> f64 {
        // mirrors `cost`'s cell accounting at 9 flops per updated point:
        // quiet phases compute fewer cells, exchange phases catch up, and
        // the cycle total equals the nominal work — PA2's defining
        // property (no redundant flops, hence no `redundant_flops`).
        let (tx, ty, t) = Self::decode(p);
        let tile = self.geo.tile;
        if t == 0 {
            return 0.0;
        }
        let full = self.model.task_flops(tile, tile, self.ratio);
        if !self.is_boundary(tx, ty) {
            return full;
        }
        let k = self.phase(t);
        let r2 = self.ratio * self.ratio;
        if k == 0 {
            let catchup: usize = (1..self.steps)
                .map(|kk| self.deferred_cells(tx, ty, kk))
                .sum();
            full + catchup as f64 * r2 * 9.0
        } else {
            let done = tile * tile - self.deferred_cells(tx, ty, k);
            done as f64 * r2 * 9.0
        }
    }
}

/// Build the PA2 performance skeleton. `carry_data` must be false.
pub fn build_pa2(cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    assert!(
        !carry_data,
        "PA2 is a performance skeleton; it cannot carry data (see module docs)"
    );
    assert!(
        cfg.steps >= 1 && cfg.steps <= cfg.tile / 2,
        "PA2 step size {} must be in [1, tile/2 = {}] (deferred bands meet otherwise)",
        cfg.steps,
        cfg.tile / 2
    );
    let geo = cfg.geometry();
    let mut model = StencilCostModel::for_profile(&cfg.profile);
    if cfg.problem.op.is_variable() {
        model = model.with_variable_coefficients();
    }
    let class = Pa2Stencil {
        geo: geo.clone(),
        model,
        iterations: cfg.iterations,
        steps: cfg.steps,
        ratio: cfg.ratio,
    };
    let mut graph = TaskGraph::new();
    let id = graph.add_class(Arc::new(class));
    assert_eq!(id, CLASS, "PA2 program must have exactly one class");
    let roots = (0..geo.tiles_y)
        .flat_map(|ty| (0..geo.tiles_x).map(move |tx| Pa2Stencil::key(tx, ty, 0)))
        .collect();
    let total_tasks = geo.num_tiles() as u64 * (cfg.iterations as u64 + 1);
    StencilBuild {
        program: Program {
            graph: Arc::new(graph),
            roots,
            total_tasks,
        },
        store: None,
        geo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::build_ca;
    use crate::problem::Problem;
    use machine::MachineProfile;
    use netsim::ProcessGrid;
    use runtime::{run, RunConfig};

    fn cfg(n: usize, tile: usize, iters: u32, steps: usize) -> StencilConfig {
        StencilConfig::new(Problem::laplace(n), tile, iters, ProcessGrid::new(2, 2))
            .with_steps(steps)
    }

    #[test]
    fn graphs_analyze_clean_across_step_sizes() {
        for steps in [1usize, 2, 3] {
            let c = cfg(48, 8, 7, steps);
            let a = analyze::assert_clean(&build_pa2(&c, false).program);
            assert_eq!(a.flops.redundant, 0, "PA2 never recomputes");
        }
    }

    #[test]
    fn remote_traffic_identical_to_pa1() {
        let c = cfg(64, 8, 12, 4);
        let pa1 = run(
            &build_ca(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        let pa2 = run(
            &build_pa2(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        assert_eq!(pa1.remote_messages(), pa2.remote_messages());
        assert_eq!(pa1.remote_bytes(), pa2.remote_bytes());
    }

    #[test]
    fn pa2_does_less_total_work_than_pa1() {
        // total busy time = Σ occupancy × lanes × makespan per node
        let c = cfg(64, 8, 12, 4);
        let lanes = MachineProfile::nacl().compute_threads() as f64;
        let work = |r: &runtime::RunReport| -> f64 {
            r.node_occupancy
                .iter()
                .map(|o| o * lanes * r.makespan)
                .sum()
        };
        let pa1 = run(
            &build_ca(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        let pa2 = run(
            &build_pa2(&c, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        assert!(
            work(&pa2) < work(&pa1),
            "PA2 work {} vs PA1 {}",
            work(&pa2),
            work(&pa1)
        );
    }

    #[test]
    fn deferred_band_geometry() {
        let c = cfg(64, 8, 2, 4);
        let geo = c.geometry();
        let class = Pa2Stencil {
            geo: geo.clone(),
            model: StencilCostModel::for_profile(&MachineProfile::nacl()),
            iterations: 2,
            steps: 4,
            ratio: 1.0,
        };
        // tile (3,1): east side remote only => band = k * tile
        assert_eq!(class.deferred_cells(3, 1, 0), 0);
        assert_eq!(class.deferred_cells(3, 1, 2), 2 * 8);
        // tile (3,3): east and south remote => L-shaped band
        assert_eq!(class.deferred_cells(3, 3, 2), 64 - 6 * 6);
        // interior tile: nothing deferred
        assert_eq!(class.deferred_cells(1, 1, 3), 0);
    }

    #[test]
    #[should_panic(expected = "performance skeleton")]
    fn carrying_data_rejected() {
        let c = cfg(48, 8, 2, 2);
        let _ = build_pa2(&c, true);
    }

    #[test]
    #[should_panic(expected = "tile/2")]
    fn oversized_steps_rejected() {
        let c = cfg(48, 8, 2, 5);
        let _ = build_pa2(&c, false);
    }
}
