//! Analytic accounting: expected message counts and volumes for both
//! schemes, used to cross-check the simulator's counters and to reason
//! about the communication the CA scheme avoids (paper Section V, item 3:
//! "number of floating-point numbers communicated per processor, and the
//! number of messages sent per processor").

use crate::geometry::{Corner, Side, StencilGeometry};
use serde::Serialize;

/// Predicted communication of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CommPrediction {
    /// Total messages crossing the network.
    pub messages: u64,
    /// Total bytes crossing the network.
    pub bytes: u64,
}

impl CommPrediction {
    /// Average message size in bytes (0 when no messages).
    pub fn avg_message_bytes(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bytes as f64 / self.messages as f64
        }
    }
}

/// Remote side-neighbour pairs `(tile, side)` in the tiling.
fn remote_sides(geo: &StencilGeometry) -> u64 {
    let mut count = 0;
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            let me = geo.node_of_tile(tx, ty);
            for side in Side::ALL {
                if let Some((nx, ny)) = geo.neighbor(tx, ty, side) {
                    if geo.node_of_tile(nx, ny) != me {
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

/// Remote diagonal pairs `(tile, corner)` whose consumer is a boundary
/// tile (always true for remote diagonals on a block distribution, but
/// checked explicitly).
fn remote_corners(geo: &StencilGeometry) -> u64 {
    let mut count = 0;
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            let me = geo.node_of_tile(tx, ty);
            for corner in Corner::ALL {
                if let Some((dx, dy)) = geo.diagonal(tx, ty, corner) {
                    if geo.node_of_tile(dx, dy) != me && geo.is_node_boundary(dx, dy) {
                        count += 1;
                    }
                }
            }
        }
    }
    count
}

/// Expected network traffic of the base scheme over `iterations`
/// iterations: every remote side pair carries one `tile × 8`-byte strip per
/// iteration (producers run at `t = 0 .. iterations`).
pub fn predict_base(geo: &StencilGeometry, iterations: u32) -> CommPrediction {
    let per_iter = remote_sides(geo);
    let messages = per_iter * iterations as u64;
    CommPrediction {
        messages,
        bytes: messages * (geo.tile as u64 * 8),
    }
}

/// Expected network traffic of the CA scheme with step size `steps`:
/// exchanges are fed by producers at `t = 0, s, 2s, …` below `iterations`,
/// each carrying `s`-deep strips on remote side pairs and `s × s` corner
/// blocks on remote diagonal pairs.
pub fn predict_ca(geo: &StencilGeometry, iterations: u32, steps: usize) -> CommPrediction {
    let exchanges = (iterations as u64).div_ceil(steps as u64);
    let strips = remote_sides(geo) * exchanges;
    let corners = remote_corners(geo) * exchanges;
    CommPrediction {
        messages: strips + corners,
        bytes: strips * (steps * geo.tile * 8) as u64 + corners * (steps * steps * 8) as u64,
    }
}

/// Expected redundant flops of the CA scheme: every node-boundary tile
/// recomputes its shrinking halo each iteration. At iteration `t ≥ 1`
/// with phase `k = (t − 1) mod s`, the valid region extends `e = s − 1 − k`
/// layers on each side that has a neighbour, so the halo holds
/// `region_points − tile²` points, each costing 9 flops scaled by
/// `ratio²` — the same per-task rounding the task class declares, summed
/// independently from the geometry (no task graph is built).
pub fn predict_ca_redundant_flops(
    geo: &StencilGeometry,
    iterations: u32,
    steps: usize,
    ratio: f64,
) -> u64 {
    let tile = geo.tile;
    let mut total = 0u64;
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            if !geo.is_node_boundary(tx, ty) {
                continue;
            }
            let on = |side: Side| usize::from(geo.neighbor(tx, ty, side).is_some());
            let (n, s) = (on(Side::North), on(Side::South));
            let (w, e) = (on(Side::West), on(Side::East));
            for t in 1..=iterations {
                let ext = steps - 1 - ((t as usize - 1) % steps);
                let rows = tile + (n + s) * ext;
                let cols = tile + (w + e) * ext;
                let halo_points = (rows * cols - tile * tile) as f64;
                total += (halo_points * ratio * ratio * 9.0).round() as u64;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{build_base, build_ca};
    use crate::config::StencilConfig;
    use crate::problem::Problem;
    use machine::MachineProfile;
    use netsim::ProcessGrid;
    use runtime::{run, RunConfig};

    #[test]
    fn base_prediction_matches_simulator() {
        let cfg = StencilConfig::new(Problem::laplace(32), 4, 6, ProcessGrid::new(2, 2));
        let geo = cfg.geometry();
        let pred = predict_base(&geo, 6);
        let r = run(
            &build_base(&cfg, false).program,
            &RunConfig::simulated(MachineProfile::nacl(), 4),
        );
        assert_eq!(r.remote_messages(), pred.messages);
        assert_eq!(r.remote_bytes(), pred.bytes);
    }

    #[test]
    fn ca_prediction_matches_simulator() {
        for steps in [2, 3, 5] {
            let cfg = StencilConfig::new(Problem::laplace(64), 8, 11, ProcessGrid::new(2, 2))
                .with_steps(steps);
            let geo = cfg.geometry();
            let pred = predict_ca(&geo, 11, steps);
            let r = run(
                &build_ca(&cfg, false).program,
                &RunConfig::simulated(MachineProfile::nacl(), 4),
            );
            assert_eq!(r.remote_messages(), pred.messages, "steps = {steps}");
            assert_eq!(r.remote_bytes(), pred.bytes, "steps = {steps}");
        }
    }

    #[test]
    fn ca_divides_message_count_by_roughly_steps() {
        let geo = StencilGeometry::new(64, 4, ProcessGrid::new(2, 2));
        let base = predict_base(&geo, 60);
        // Strips drop by exactly s, but PA1's explicit corner blocks
        // (cheap in bytes, one message each) cap the count reduction at
        // roughly 0.4·s for this block shape.
        let ca = predict_ca(&geo, 60, 6);
        let ratio = base.messages as f64 / ca.messages as f64;
        assert!((2.0..=6.0).contains(&ratio), "ratio = {ratio}");
        // average message grows several-fold
        assert!(ca.avg_message_bytes() > 2.0 * base.avg_message_bytes());
        // and at the paper's s = 15 the reduction is larger still
        let ca15 = predict_ca(&geo, 60, 15);
        assert!(
            base.messages as f64 / ca15.messages as f64 > 4.0,
            "s=15 ratio = {}",
            base.messages as f64 / ca15.messages as f64
        );
    }

    #[test]
    fn redundant_flop_prediction_matches_static_analysis() {
        // the analytic sum and the task classes' per-task declarations are
        // independent implementations; they must agree exactly
        for (steps, ratio) in [(1usize, 1.0), (3, 1.0), (4, 0.5)] {
            let cfg = StencilConfig::new(Problem::laplace(32), 4, 7, ProcessGrid::new(2, 2))
                .with_steps(steps)
                .with_ratio(ratio);
            let geo = cfg.geometry();
            let a = analyze::assert_clean(&build_ca(&cfg, false).program);
            assert_eq!(
                a.flops.redundant,
                predict_ca_redundant_flops(&geo, 7, steps, ratio),
                "steps = {steps}, ratio = {ratio}"
            );
        }
        // s = 1 is the base cadence: no quiet phases, no redundant work
        let geo = StencilGeometry::new(32, 4, ProcessGrid::new(2, 2));
        assert_eq!(predict_ca_redundant_flops(&geo, 7, 1, 1.0), 0);
    }

    #[test]
    fn single_node_predicts_zero() {
        let geo = StencilGeometry::new(32, 4, ProcessGrid::new(1, 1));
        assert_eq!(predict_base(&geo, 10).messages, 0);
        assert_eq!(predict_ca(&geo, 10, 5).messages, 0);
        assert_eq!(predict_ca(&geo, 10, 5).avg_message_bytes(), 0.0);
    }
}
