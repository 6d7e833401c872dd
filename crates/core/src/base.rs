//! The base PaRSEC-style stencil (paper Section IV-B1): one task per tile
//! per iteration, a one-layer ghost exchange with every neighbour every
//! iteration. Interior tasks' flows stay on-node; tiles on the node-block
//! perimeter generate one message per remote side per iteration.

use crate::config::{StencilBuild, StencilConfig};
use crate::flows::{
    cross_rects, slot_of_side, stencil_box, OutFlow, OutFlows, KIND_BOUNDARY, KIND_INIT,
    KIND_INTERIOR, NUM_SLOTS_BASE, SLOT_SELF,
};
use crate::geometry::{Side, StencilGeometry};
use crate::problem::Operator;
use crate::store::TileStore;
use crate::tile::Extents;
use machine::StencilCostModel;
use netsim::NodeId;
use runtime::{
    FlowData, OutputDep, Params, Program, ReadRegion, TaskClass, TaskGraph, TaskKey, WriteRegion,
};
use std::sync::Arc;

/// The builders register exactly one class per program, so consumer keys
/// always reference class 0.
const CLASS: u16 = 0;

/// Task class of the base scheme.
pub struct BaseStencil {
    geo: StencilGeometry,
    store: Option<Arc<TileStore>>,
    model: StencilCostModel,
    op: Operator,
    iterations: u32,
    ratio: f64,
}

impl BaseStencil {
    fn decode(p: Params) -> (usize, usize, u32) {
        (p[0] as usize, p[1] as usize, p[2] as u32)
    }

    fn key(tx: usize, ty: usize, t: u32) -> TaskKey {
        TaskKey::new(CLASS, [tx as i32, ty as i32, t as i32, 0])
    }
}

impl OutFlows for BaseStencil {
    /// The output flows of task `p`, in flow-index order, with their
    /// consumers: the single source of truth behind `outputs` (with each
    /// flow's size), `execute` and `num_output_flows`.
    fn for_each_out(&self, p: Params, mut visit: impl FnMut(OutFlow, TaskKey, usize)) {
        let (tx, ty, t) = Self::decode(p);
        if t >= self.iterations {
            return;
        }
        visit(OutFlow::SelfFlow, Self::key(tx, ty, t + 1), SLOT_SELF);
        for side in Side::ALL {
            if let Some((nx, ny)) = self.geo.neighbor(tx, ty, side) {
                visit(
                    OutFlow::Strip { side, depth: 1 },
                    Self::key(nx, ny, t + 1),
                    slot_of_side(side.opposite()),
                );
            }
        }
    }
}

impl TaskClass for BaseStencil {
    fn name(&self) -> &str {
        "base-stencil"
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
        } else {
            1 + self.geo.num_side_neighbors(tx, ty)
        }
    }

    fn num_input_slots(&self, _p: Params) -> usize {
        NUM_SLOTS_BASE
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
            .expect("base stencil built without data cannot execute bodies");
        let (tx, ty, t) = Self::decode(p);
        let mut buf = store.lock(tx, ty);
        if t > 0 {
            for side in Side::ALL {
                if let Some(flow) = inputs[slot_of_side(side)].take() {
                    buf.write_strip(side, 1, flow.expect_values());
                }
            }
            match &self.op {
                Operator::Constant(w) => buf.jacobi_step(w, Extents::ZERO),
                Operator::Variable(f) => {
                    buf.jacobi_step_var(|r, c| f(r, c), self.geo.tile_origin(tx, ty), Extents::ZERO)
                }
            }
        }
        self.for_each_out(p, |of, _, _| out.push(of.extract(&buf)));
    }

    fn cost(&self, p: Params) -> f64 {
        let (_, _, t) = Self::decode(p);
        if t == 0 {
            // iterate-0 emission: strip copies only
            self.model.ghost_copy_time(4 * self.geo.tile)
        } else {
            self.model
                .task_time(self.geo.tile, self.geo.tile, self.ratio)
        }
    }

    fn priority(&self, p: Params) -> i32 {
        // boundary tiles first: their strips reach the comm thread early
        let (tx, ty, _) = Self::decode(p);
        i32::from(self.geo.is_node_boundary(tx, ty))
    }

    fn kind(&self, p: Params) -> u32 {
        let (tx, ty, t) = Self::decode(p);
        if t == 0 {
            KIND_INIT
        } else if self.geo.is_node_boundary(tx, ty) {
            KIND_BOUNDARY
        } else {
            KIND_INTERIOR
        }
    }

    fn write_region(&self, p: Params) -> Option<WriteRegion> {
        let (tx, ty, _) = Self::decode(p);
        // The iterate-0 emission "writes" the tile interior in the sense
        // the dataflow pass needs: it certifies the store's initial fill
        // of exactly the tile rectangle as valid. Deliberately NOT the
        // ghost ring — ghost validity must come from deliveries (or the
        // pinned Dirichlet frame), so a shrunken halo declaration shows
        // up as an uncovered read instead of hiding behind init.
        Some(WriteRegion {
            space: self.geo.tile_space(tx, ty),
            rect: self.geo.tile_rect(tx, ty),
        })
    }

    fn read_region(&self, p: Params) -> Option<ReadRegion> {
        let (tx, ty, t) = Self::decode(p);
        // t = 0 reads only the initial state it certifies itself: exempt.
        (t > 0).then(|| ReadRegion {
            space: self.geo.tile_space(tx, ty),
            rects: cross_rects(self.geo.tile_rect(tx, ty)).to_vec(),
        })
    }

    fn pinned_region(&self, p: Params) -> Option<ReadRegion> {
        let (tx, ty, _) = Self::decode(p);
        let rects = self.geo.dirichlet_rects(tx, ty, 1);
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
        let (_, _, t) = Self::decode(p);
        if t == 0 {
            0.0
        } else {
            self.model
                .task_flops(self.geo.tile, self.geo.tile, self.ratio)
        }
    }
}

/// Build the base-scheme program. With `carry_data`, a [`TileStore`] is
/// initialized from the problem and task bodies perform the real Jacobi
/// updates; without, the program is performance-only.
pub fn build_base(cfg: &StencilConfig, carry_data: bool) -> StencilBuild {
    let geo = cfg.geometry();
    let store = carry_data.then(|| Arc::new(TileStore::new(&cfg.problem, geo.clone(), |_, _| 1)));
    build_base_inner(cfg, geo, store)
}

/// Build the base-scheme program *over an existing store*, continuing from
/// whatever iterate the store currently holds (the iterate-0 emission
/// tasks read the store's current state). Used for chunked solves with
/// convergence checks between chunks.
pub fn build_base_on(cfg: &StencilConfig, store: Arc<TileStore>) -> StencilBuild {
    let geo = cfg.geometry();
    assert_eq!(
        store.geometry().num_tiles(),
        geo.num_tiles(),
        "store was built for a different tiling"
    );
    build_base_inner(cfg, geo, Some(store))
}

fn build_base_inner(
    cfg: &StencilConfig,
    geo: StencilGeometry,
    store: Option<Arc<TileStore>>,
) -> StencilBuild {
    let mut model = StencilCostModel::for_profile(&cfg.profile);
    if cfg.problem.op.is_variable() {
        model = model.with_variable_coefficients();
    }
    let class = BaseStencil {
        geo: geo.clone(),
        store: store.clone(),
        model,
        op: cfg.problem.op.clone(),
        iterations: cfg.iterations,
        ratio: cfg.ratio,
    };
    let mut graph = TaskGraph::new();
    let id = graph.add_class(Arc::new(class));
    assert_eq!(id, CLASS, "base program must have exactly one class");
    let roots = (0..geo.tiles_y)
        .flat_map(|ty| (0..geo.tiles_x).map(move |tx| BaseStencil::key(tx, ty, 0)))
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
    use crate::problem::Problem;
    use crate::reference::{jacobi_reference, max_abs_diff};
    use netsim::ProcessGrid;
    use runtime::{run, RunConfig};

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
