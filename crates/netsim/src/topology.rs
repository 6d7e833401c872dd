//! Cluster topology: ranks arranged in a logical 2D process grid over a
//! switched fabric, as the paper configures its runs ("the nodes during
//! runs were arranged into square compute grid").

use serde::Serialize;

/// Rank of one node in the cluster.
pub type NodeId = u32;

/// A `P × Q` logical grid of nodes over a full-crossbar switched fabric
/// (InfiniBand / Omni-Path class: any pair of distinct nodes communicates
/// with the same point-to-point cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProcessGrid {
    /// Rows of the node grid.
    pub p: u32,
    /// Columns of the node grid.
    pub q: u32,
}

impl ProcessGrid {
    /// A `p × q` grid. Panics when either dimension is zero.
    pub fn new(p: u32, q: u32) -> Self {
        assert!(p > 0 && q > 0, "process grid dimensions must be positive");
        ProcessGrid { p, q }
    }

    /// The square grid the paper uses: `sqrt(n) × sqrt(n)`. Panics when
    /// `nodes` is not a perfect square.
    pub fn square(nodes: u32) -> Self {
        let side = (nodes as f64).sqrt().round() as u32;
        assert_eq!(
            side * side,
            nodes,
            "square process grid needs a perfect-square node count, got {nodes}"
        );
        ProcessGrid::new(side, side)
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.p * self.q
    }

    /// Rank of the node at grid position `(row, col)` (row-major).
    pub fn rank_of(&self, row: u32, col: u32) -> NodeId {
        assert!(row < self.p && col < self.q, "grid position out of range");
        row * self.q + col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coords_roundtrip() {
        let g = ProcessGrid::new(3, 4);
        for row in 0..3 {
            for col in 0..4 {
                assert_eq!(g.rank_of(row, col), row * 4 + col);
            }
        }
        assert_eq!(g.nodes(), 12);
    }

    #[test]
    fn square_grids() {
        assert_eq!(ProcessGrid::square(4), ProcessGrid::new(2, 2));
        assert_eq!(ProcessGrid::square(16), ProcessGrid::new(4, 4));
        assert_eq!(ProcessGrid::square(64), ProcessGrid::new(8, 8));
    }

    #[test]
    #[should_panic(expected = "perfect-square")]
    fn non_square_rejected() {
        ProcessGrid::square(6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coords_rejected() {
        ProcessGrid::new(2, 2).rank_of(2, 0);
    }
}
