//! Flow and slot conventions shared by the base and CA task classes.
//!
//! Every stencil task `(tx, ty, t)` has up to nine input slots:
//!
//! | slot | content |
//! |------|---------|
//! | 0    | self-flow from `(tx, ty, t-1)` (serializes the tile, carries no data) |
//! | 1–4  | edge strips from the North/South/West/East neighbours |
//! | 5–8  | corner blocks from the NW/NE/SW/SE diagonal neighbours (CA only) |

use crate::geometry::{Corner, Side, StencilGeometry};
use crate::tile::TileBuf;
use runtime::{FlowData, OutputDep, Params, Rect, TaskKey};

/// Input slot of the self-flow.
pub const SLOT_SELF: usize = 0;

/// Trace kind of interior-tile tasks.
pub const KIND_INTERIOR: u32 = 0;
/// Trace kind of node-boundary-tile tasks (the tiles that talk to remote
/// nodes — the distinction the paper's Figure 10 plots).
pub const KIND_BOUNDARY: u32 = 1;
/// Trace kind of the iterate-0 emission tasks.
pub const KIND_INIT: u32 = 2;

/// Human-readable names of the stencil trace kinds, in the shape
/// `runtime::RunConfig::with_kind_names` expects — register these so
/// exported traces label spans "interior"/"boundary"/"init" instead of
/// raw kind tags.
pub fn kind_names() -> Vec<(u32, String)> {
    vec![
        (KIND_INTERIOR, "interior".to_string()),
        (KIND_BOUNDARY, "boundary".to_string()),
        (KIND_INIT, "init".to_string()),
    ]
}

/// Input slot receiving the strip that fills the ghost region on `side`.
pub fn slot_of_side(side: Side) -> usize {
    1 + side as usize
}

/// Input slot receiving the block that fills the ghost corner at `corner`.
pub fn slot_of_corner(corner: Corner) -> usize {
    5 + corner as usize
}

/// The parameter box of every stencil scheme's task class: one task per
/// tile per iterate `t = 0 ..= iterations`, so the box's volume is the
/// program's task count and the runtime's slot space has no holes.
pub(crate) fn stencil_box(geo: &StencilGeometry, iterations: u32) -> [u32; 4] {
    [geo.tiles_x as u32, geo.tiles_y as u32, iterations + 1, 1]
}

/// Input slots of a base-scheme task (self + 4 strips).
pub const NUM_SLOTS_BASE: usize = 5;
/// Input slots of a CA-scheme task (self + 4 strips + 4 corners).
pub const NUM_SLOTS_CA: usize = 9;

/// One output flow of a stencil task, in geometric terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutFlow {
    /// The self-flow to the same tile's next-iteration task.
    SelfFlow,
    /// An edge strip of the given depth towards `side`.
    Strip {
        /// Which of this tile's edges the strip is read from.
        side: Side,
        /// Strip depth in rows/columns.
        depth: usize,
    },
    /// A corner block of the given depth towards `corner`.
    Block {
        /// Which of this tile's corners the block is read from.
        corner: Corner,
        /// Block edge length.
        depth: usize,
    },
}

impl OutFlow {
    /// Wire size of this flow for a `tile × tile` tile, in bytes.
    pub fn bytes(&self, tile: usize) -> usize {
        match *self {
            OutFlow::SelfFlow => 0,
            OutFlow::Strip { depth, .. } => depth * tile * 8,
            OutFlow::Block { depth, .. } => depth * depth * 8,
        }
    }

    /// Copy this flow's cells out of the producer's tile into a recycled
    /// payload buffer. The self-flow is a pure dependence: it carries no
    /// payload object at all.
    pub(crate) fn extract(&self, buf: &TileBuf) -> FlowData {
        match *self {
            OutFlow::SelfFlow => FlowData::sized(0),
            OutFlow::Strip { side, depth } => FlowData::filled(depth * buf.tile(), |out| {
                buf.extract_strip_into(side, depth, out)
            }),
            OutFlow::Block { corner, depth } => FlowData::filled(depth * depth, |out| {
                buf.extract_corner_into(corner, depth, out)
            }),
        }
    }

    /// The global-coordinate rectangle of cells this flow extracts from
    /// the producer tile whose top-left point is `origin` — which is the
    /// same set of cells the payload makes valid in the consumer's ghost
    /// region, so it doubles as the flow's *delivered region* for the
    /// `analyze` crate's dataflow pass. `None` for the self-flow (it
    /// carries no data).
    pub fn region(&self, origin: (i64, i64), tile: usize) -> Option<Rect> {
        let (row, col) = origin;
        let t = tile as i64;
        match *self {
            OutFlow::SelfFlow => None,
            OutFlow::Strip { side, depth } => {
                let d = depth as u32;
                Some(match side {
                    Side::North => Rect::new(row, col, d, tile as u32),
                    Side::South => Rect::new(row + t - depth as i64, col, d, tile as u32),
                    Side::West => Rect::new(row, col, tile as u32, d),
                    Side::East => Rect::new(row, col + t - depth as i64, tile as u32, d),
                })
            }
            OutFlow::Block { corner, depth } => {
                let d = depth as u32;
                let far = t - depth as i64;
                Some(match corner {
                    Corner::Nw => Rect::new(row, col, d, d),
                    Corner::Ne => Rect::new(row, col + far, d, d),
                    Corner::Sw => Rect::new(row + far, col, d, d),
                    Corner::Se => Rect::new(row + far, col + far, d, d),
                })
            }
        }
    }
}

/// The output-flow enumeration of a stencil task class. A class supplies
/// one allocation-free visitor; everything the runtime asks about a
/// task's outputs — how many, who consumes them and how big
/// ([`OutputDep::bytes`]), what the body emits — derives from it, so the
/// answers cannot disagree.
pub(crate) trait OutFlows {
    /// Visit `(flow, consumer, consumer slot)` for every output flow of
    /// task `p`, in flow-index order.
    fn for_each_out(&self, p: Params, visit: impl FnMut(OutFlow, TaskKey, usize));

    /// Number of output flows of task `p`.
    fn count_out(&self, p: Params) -> usize {
        let mut flows = 0;
        self.for_each_out(p, |_, _, _| flows += 1);
        flows
    }

    /// Output flow `flow` of task `p`, if it has that many.
    fn nth_out(&self, p: Params, flow: usize) -> Option<(OutFlow, TaskKey, usize)> {
        let (mut at, mut found) = (0, None);
        self.for_each_out(p, |of, consumer, slot| {
            if at == flow {
                found = Some((of, consumer, slot));
            }
            at += 1;
        });
        found
    }

    /// Push one [`OutputDep`] per output flow of task `p`, sized for
    /// `tile × tile` tiles.
    fn push_deps(&self, p: Params, tile: usize, out: &mut Vec<OutputDep>) {
        let mut flow = 0;
        self.for_each_out(p, |of, consumer, slot| {
            out.push(OutputDep {
                flow,
                consumer,
                slot,
                bytes: of.bytes(tile),
            });
            flow += 1;
        });
    }

    /// Cells carried by all output flows of task `p` together.
    fn out_cells(&self, p: Params, tile: usize) -> usize {
        let mut cells = 0;
        self.for_each_out(p, |of, _, _| cells += of.bytes(tile) / 8);
        cells
    }
}

/// The read footprint of one 5-point stencil sweep over the updated
/// rectangle `u`: a vertical expansion (one row beyond `u` on each side)
/// plus a horizontal expansion (one column beyond on each side). Their
/// union is exactly the cells touched — no diagonal corners, which is
/// what makes the CA corner blocks' far cells dead on the wire.
pub fn cross_rects(u: Rect) -> [Rect; 2] {
    [
        Rect::new(u.row - 1, u.col, u.rows + 2, u.cols),
        Rect::new(u.row, u.col - 1, u.rows, u.cols + 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_and_dense() {
        let mut slots = vec![SLOT_SELF];
        slots.extend(Side::ALL.iter().map(|&s| slot_of_side(s)));
        slots.extend(Corner::ALL.iter().map(|&c| slot_of_corner(c)));
        slots.sort_unstable();
        assert_eq!(slots, (0..NUM_SLOTS_CA).collect::<Vec<_>>());
    }

    #[test]
    fn flow_sizes() {
        assert_eq!(OutFlow::SelfFlow.bytes(288), 0);
        assert_eq!(
            OutFlow::Strip {
                side: Side::North,
                depth: 1
            }
            .bytes(288),
            288 * 8
        );
        assert_eq!(
            OutFlow::Strip {
                side: Side::East,
                depth: 15
            }
            .bytes(288),
            15 * 288 * 8
        );
        assert_eq!(
            OutFlow::Block {
                corner: Corner::Nw,
                depth: 15
            }
            .bytes(288),
            15 * 15 * 8
        );
    }
}
