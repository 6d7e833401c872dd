//! Flow and slot conventions of the stencil task class (both schemes).
//!
//! Every stencil task `(tx, ty, t)` has up to nine input slots:
//!
//! | slot | content |
//! |------|---------|
//! | 0    | self-flow from `(tx, ty, t-1)` (serializes the tile, carries no data) |
//! | 1–4  | edge strips from the North/South/West/East neighbours |
//! | 5–8  | corner blocks from the NW/NE/SW/SE diagonal neighbours (CA only) |

use crate::geometry::{Corner, Side};
use crate::tile::TileBuf;
use runtime::{FlowData, Rect};

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
