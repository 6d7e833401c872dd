//! Tiling geometry: how the global `n × n` grid decomposes into tiles,
//! how tiles map onto the node grid, and who neighbours whom.
//!
//! The paper's setup (Section V): the grid is cut into square tiles, tiles
//! are distributed in 2D blocks over a square node grid ("the data tiles
//! were allocated in a 2D block fashion to exploit the surface-to-volume
//! ratio effect"), and a tile is a *boundary tile* when it must exchange
//! data with a remote node.

use netsim::{NodeId, ProcessGrid};
use runtime::Rect;
use serde::Serialize;

/// One of the four edge directions of a tile. Rows grow southward, columns
/// grow eastward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Side {
    /// Towards smaller rows.
    North = 0,
    /// Towards larger rows.
    South = 1,
    /// Towards smaller columns.
    West = 2,
    /// Towards larger columns.
    East = 3,
}

impl Side {
    /// All sides, in slot order.
    pub const ALL: [Side; 4] = [Side::North, Side::South, Side::West, Side::East];

    /// The facing side (a strip sent out of `s` lands in the neighbour's
    /// `s.opposite()` ghost region).
    pub fn opposite(self) -> Side {
        match self {
            Side::North => Side::South,
            Side::South => Side::North,
            Side::West => Side::East,
            Side::East => Side::West,
        }
    }

    /// Tile-coordinate offset `(dx, dy)` towards this side.
    pub fn delta(self) -> (i64, i64) {
        match self {
            Side::North => (0, -1),
            Side::South => (0, 1),
            Side::West => (-1, 0),
            Side::East => (1, 0),
        }
    }
}

/// One of the four diagonal directions of a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Corner {
    /// North-west.
    Nw = 0,
    /// North-east.
    Ne = 1,
    /// South-west.
    Sw = 2,
    /// South-east.
    Se = 3,
}

impl Corner {
    /// All corners, in slot order.
    pub const ALL: [Corner; 4] = [Corner::Nw, Corner::Ne, Corner::Sw, Corner::Se];

    /// The facing corner (my NW block lands in the NW neighbour's SE ghost
    /// corner).
    pub fn opposite(self) -> Corner {
        match self {
            Corner::Nw => Corner::Se,
            Corner::Ne => Corner::Sw,
            Corner::Sw => Corner::Ne,
            Corner::Se => Corner::Nw,
        }
    }

    /// Tile-coordinate offset `(dx, dy)` towards this corner.
    pub fn delta(self) -> (i64, i64) {
        match self {
            Corner::Nw => (-1, -1),
            Corner::Ne => (1, -1),
            Corner::Sw => (-1, 1),
            Corner::Se => (1, 1),
        }
    }

    /// The two sides this corner touches, `(vertical, horizontal)` —
    /// e.g. NW touches North and West.
    pub fn sides(self) -> (Side, Side) {
        match self {
            Corner::Nw => (Side::North, Side::West),
            Corner::Ne => (Side::North, Side::East),
            Corner::Sw => (Side::South, Side::West),
            Corner::Se => (Side::South, Side::East),
        }
    }
}

/// The tiling of one problem instance.
#[derive(Debug, Clone, Serialize)]
pub struct StencilGeometry {
    /// Global grid dimension (the grid is `n × n`).
    pub n: usize,
    /// Tile edge length (tiles are `tile × tile`, the paper's `mb = nb`).
    pub tile: usize,
    /// Tiles per row of the grid.
    pub tiles_x: usize,
    /// Tiles per column of the grid.
    pub tiles_y: usize,
    /// The node grid.
    pub grid: ProcessGrid,
    /// Tiles per node in x.
    pub block_x: usize,
    /// Tiles per node in y.
    pub block_y: usize,
}

impl StencilGeometry {
    /// Build the tiling. The tile size must divide `n`, and the tile counts
    /// must divide evenly over the node grid — the paper's runs satisfy
    /// both (e.g. 23 040 = 80 × 288 over 4/16/64 nodes).
    pub fn new(n: usize, tile: usize, grid: ProcessGrid) -> Self {
        assert!(tile > 0 && n > 0, "grid and tile sizes must be positive");
        assert!(
            n.is_multiple_of(tile),
            "tile size {tile} does not divide problem size {n}"
        );
        let tiles = n / tile;
        assert!(
            tiles.is_multiple_of(grid.q as usize),
            "{tiles} tile columns do not distribute over {} node columns",
            grid.q
        );
        assert!(
            tiles.is_multiple_of(grid.p as usize),
            "{tiles} tile rows do not distribute over {} node rows",
            grid.p
        );
        StencilGeometry {
            n,
            tile,
            tiles_x: tiles,
            tiles_y: tiles,
            grid,
            block_x: tiles / grid.q as usize,
            block_y: tiles / grid.p as usize,
        }
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// The node that owns tile `(tx, ty)` under the 2D block distribution.
    pub fn node_of_tile(&self, tx: usize, ty: usize) -> NodeId {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of range");
        self.grid
            .rank_of((ty / self.block_y) as u32, (tx / self.block_x) as u32)
    }

    /// The worker lane, of `lanes` on its node, that owns tile `(tx, ty)`:
    /// the tile's row-major index inside its node's block, block-mapped
    /// onto the lanes. Each lane owns a contiguous band of the block's
    /// rows, and a block with fewer tile rows than lanes still spreads
    /// its tiles over them (the stencil schemes'
    /// [`runtime::TaskClass::home`]).
    pub fn home_lane(&self, tx: usize, ty: usize, lanes: usize) -> usize {
        let local = (ty % self.block_y) * self.block_x + tx % self.block_x;
        local * lanes / (self.block_x * self.block_y)
    }

    /// The side neighbour of `(tx, ty)`, or `None` at the domain edge.
    pub fn neighbor(&self, tx: usize, ty: usize, side: Side) -> Option<(usize, usize)> {
        let (dx, dy) = side.delta();
        self.offset(tx, ty, dx, dy)
    }

    /// The diagonal neighbour of `(tx, ty)`, or `None` at the domain edge.
    pub fn diagonal(&self, tx: usize, ty: usize, corner: Corner) -> Option<(usize, usize)> {
        let (dx, dy) = corner.delta();
        self.offset(tx, ty, dx, dy)
    }

    fn offset(&self, tx: usize, ty: usize, dx: i64, dy: i64) -> Option<(usize, usize)> {
        let nx = tx as i64 + dx;
        let ny = ty as i64 + dy;
        (nx >= 0 && ny >= 0 && (nx as usize) < self.tiles_x && (ny as usize) < self.tiles_y)
            .then_some((nx as usize, ny as usize))
    }

    /// True when `(tx, ty)` has at least one side neighbour on another node
    /// — the paper's *boundary tile*, which the CA scheme treats specially.
    /// Under the 2D block distribution that is a tile on its block's edge
    /// that does not face the domain edge; the stencil class asks this for
    /// every edge it unfolds, so it is computed in closed form.
    pub fn is_node_boundary(&self, tx: usize, ty: usize) -> bool {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of range");
        let on_edge = |t: usize, block: usize, tiles: usize| {
            (t.is_multiple_of(block) && t > 0) || (t % block == block - 1 && t + 1 < tiles)
        };
        on_edge(tx, self.block_x, self.tiles_x) || on_edge(ty, self.block_y, self.tiles_y)
    }

    /// Number of existing side neighbours (2 at grid corners, 3 on grid
    /// edges, 4 inside).
    pub fn num_side_neighbors(&self, tx: usize, ty: usize) -> usize {
        Side::ALL
            .iter()
            .filter(|&&s| self.neighbor(tx, ty, s).is_some())
            .count()
    }

    /// Number of existing diagonal neighbours.
    pub fn num_diag_neighbors(&self, tx: usize, ty: usize) -> usize {
        Corner::ALL
            .iter()
            .filter(|&&c| self.diagonal(tx, ty, c).is_some())
            .count()
    }

    /// Count of boundary tiles per node for an interior node (diagnostics /
    /// message-count predictions).
    pub fn boundary_tiles(&self) -> usize {
        (0..self.tiles_y)
            .flat_map(|ty| (0..self.tiles_x).map(move |tx| (tx, ty)))
            .filter(|&(tx, ty)| self.is_node_boundary(tx, ty))
            .count()
    }

    /// Global coordinates of tile `(tx, ty)`'s top-left point.
    pub fn tile_origin(&self, tx: usize, ty: usize) -> (i64, i64) {
        ((ty * self.tile) as i64, (tx * self.tile) as i64)
    }

    /// The rectangle of global grid cells tile `(tx, ty)` covers, for
    /// static write declarations.
    pub fn tile_rect(&self, tx: usize, ty: usize) -> Rect {
        let (row, col) = self.tile_origin(tx, ty);
        Rect::new(row, col, self.tile as u32, self.tile as u32)
    }

    /// The Dirichlet frame segments of tile `(tx, ty)`'s private ghost
    /// region, `depth` cells deep: for each side of the tile facing the
    /// domain edge (no neighbour there), the ghost band beyond the domain
    /// holding the time-invariant boundary condition. These cells are
    /// never written by any task — the tile store pre-fills them once —
    /// so the dataflow pass treats them as *pinned* (always-valid) via
    /// [`runtime::Footprint::set_pinned`]. Bands extend `depth` past
    /// the tile's corners so diagonal ghost corners at the domain edge
    /// are covered too; overlap at corners is fine, the analyzer unions.
    /// Nothing for tiles nowhere near the domain edge.
    pub fn dirichlet_rects(
        &self,
        tx: usize,
        ty: usize,
        depth: usize,
    ) -> impl Iterator<Item = Rect> {
        let (top, left) = self.tile_origin(tx, ty);
        let t = self.tile as i64;
        let d = depth as i64;
        let (deep, wide) = (depth as u32, (self.tile + 2 * depth) as u32);
        [
            (ty == 0).then(|| Rect::new(top - d, left - d, deep, wide)),
            (ty == self.tiles_y - 1).then(|| Rect::new(top + t, left - d, deep, wide)),
            (tx == 0).then(|| Rect::new(top - d, left - d, wide, deep)),
            (tx == self.tiles_x - 1).then(|| Rect::new(top - d, left + t, wide, deep)),
        ]
        .into_iter()
        .flatten()
    }

    /// Stable scalar id of tile `(tx, ty)`'s private buffer, used as the
    /// [`runtime::Footprint`] address space: every tile owns its own
    /// buffer (including its ghost ring), so writes in different spaces
    /// never alias even when their global rectangles overlap.
    pub fn tile_space(&self, tx: usize, ty: usize) -> u64 {
        (ty * self.tiles_x + tx) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> StencilGeometry {
        // 8×8 tiles of 4 over a 2×2 node grid => 4×4 tiles per node
        StencilGeometry::new(32, 4, ProcessGrid::new(2, 2))
    }

    #[test]
    fn construction_and_counts() {
        let g = geo();
        assert_eq!(g.tiles_x, 8);
        assert_eq!(g.block_x, 4);
        assert_eq!(g.block_y, 4);
        assert_eq!(g.num_tiles(), 64);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn indivisible_tile_rejected() {
        StencilGeometry::new(30, 4, ProcessGrid::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "do not distribute")]
    fn indivisible_blocks_rejected() {
        StencilGeometry::new(12, 4, ProcessGrid::new(2, 2));
    }

    #[test]
    fn block_distribution() {
        let g = geo();
        assert_eq!(g.node_of_tile(0, 0), 0);
        assert_eq!(g.node_of_tile(3, 3), 0);
        assert_eq!(g.node_of_tile(4, 0), 1);
        assert_eq!(g.node_of_tile(0, 4), 2);
        assert_eq!(g.node_of_tile(7, 7), 3);
    }

    #[test]
    fn home_lanes_band_each_block_and_balance_small_ones() {
        let g = geo();
        // 4×4 tiles per node over 2 lanes: rows 0–1 on lane 0, 2–3 on
        // lane 1, the same inside every node's block.
        for (tx, ty, lane) in [
            (0, 0, 0),
            (3, 1, 0),
            (0, 2, 1),
            (3, 3, 1),
            (4, 0, 0),
            (7, 7, 1),
        ] {
            assert_eq!(g.home_lane(tx, ty, 2), lane, "({tx}, {ty})");
        }
        // Two tile rows, four lanes: each tile gets a lane of its own.
        let small = StencilGeometry::new(32, 16, ProcessGrid::new(1, 1));
        let lanes: Vec<usize> = [(0, 0), (1, 0), (0, 1), (1, 1)]
            .iter()
            .map(|&(tx, ty)| small.home_lane(tx, ty, 4))
            .collect();
        assert_eq!(lanes, [0, 1, 2, 3]);
        // The lanes' shares of a block differ by at most one tile.
        let mut per_lane = [0; 3];
        for ty in 0..4 {
            for tx in 0..4 {
                per_lane[geo().home_lane(tx, ty, 3)] += 1;
            }
        }
        assert_eq!(per_lane, [6, 5, 5]);
    }

    #[test]
    fn neighbors_at_domain_edges() {
        let g = geo();
        assert_eq!(g.neighbor(0, 0, Side::North), None);
        assert_eq!(g.neighbor(0, 0, Side::West), None);
        assert_eq!(g.neighbor(0, 0, Side::South), Some((0, 1)));
        assert_eq!(g.neighbor(0, 0, Side::East), Some((1, 0)));
        assert_eq!(g.num_side_neighbors(0, 0), 2);
        assert_eq!(g.num_side_neighbors(1, 0), 3);
        assert_eq!(g.num_side_neighbors(1, 1), 4);
        assert_eq!(g.num_diag_neighbors(0, 0), 1);
        assert_eq!(g.num_diag_neighbors(1, 1), 4);
    }

    #[test]
    fn diagonals() {
        let g = geo();
        assert_eq!(g.diagonal(1, 1, Corner::Nw), Some((0, 0)));
        assert_eq!(g.diagonal(1, 1, Corner::Se), Some((2, 2)));
        assert_eq!(g.diagonal(0, 0, Corner::Nw), None);
        assert_eq!(g.diagonal(7, 7, Corner::Se), None);
    }

    #[test]
    fn boundary_classification() {
        let g = geo();
        // node 0 holds tiles (0..4, 0..4); its east and south block edges
        // touch nodes 1 and 2
        assert!(g.is_node_boundary(3, 0)); // east edge of node 0
        assert!(g.is_node_boundary(0, 3)); // south edge of node 0
        assert!(g.is_node_boundary(3, 3)); // block corner
        assert!(!g.is_node_boundary(0, 0)); // domain corner, all local
        assert!(!g.is_node_boundary(1, 1)); // block interior
        assert!(g.is_node_boundary(4, 0)); // west edge of node 1
    }

    #[test]
    fn node_boundary_is_a_side_neighbour_on_another_node() {
        for (n, grid) in [
            (24, (1, 1)),
            (24, (2, 2)),
            (24, (3, 2)),
            (24, (1, 6)),
            (32, (2, 4)),
        ] {
            let g = StencilGeometry::new(n, 4, ProcessGrid::new(grid.0, grid.1));
            for (tx, ty) in (0..g.tiles_y).flat_map(|ty| (0..g.tiles_x).map(move |tx| (tx, ty))) {
                let me = g.node_of_tile(tx, ty);
                let remote = Side::ALL.iter().any(|&s| {
                    g.neighbor(tx, ty, s)
                        .is_some_and(|(nx, ny)| g.node_of_tile(nx, ny) != me)
                });
                assert_eq!(g.is_node_boundary(tx, ty), remote, "{grid:?} ({tx},{ty})");
            }
        }
    }

    #[test]
    fn single_node_has_no_boundary_tiles() {
        let g = StencilGeometry::new(32, 4, ProcessGrid::new(1, 1));
        assert_eq!(g.boundary_tiles(), 0);
    }

    #[test]
    fn boundary_tile_count_on_2x2() {
        let g = geo();
        // every node's block is 4×4; boundary tiles per node: the two
        // block edges facing other nodes = 4 + 4 - 1 = 7; 4 nodes => 28
        assert_eq!(g.boundary_tiles(), 28);
    }

    #[test]
    fn sides_and_corners_are_consistent() {
        for s in Side::ALL {
            assert_eq!(s.opposite().opposite(), s);
            let (dx, dy) = s.delta();
            let (ox, oy) = s.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
        for c in Corner::ALL {
            assert_eq!(c.opposite().opposite(), c);
            let (dx, dy) = c.delta();
            let (ox, oy) = c.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
            let (v, h) = c.sides();
            let (vdx, vdy) = v.delta();
            let (hdx, hdy) = h.delta();
            assert_eq!((vdx + hdx, vdy + hdy), (dx, dy));
        }
    }

    #[test]
    fn tile_origin_is_row_col() {
        let g = geo();
        assert_eq!(g.tile_origin(0, 0), (0, 0));
        assert_eq!(g.tile_origin(2, 1), (4, 8));
    }

    #[test]
    fn tile_rects_tile_the_grid() {
        let g = geo();
        assert_eq!(g.tile_rect(2, 1), Rect::new(4, 8, 4, 4));
        // adjacent tiles touch but do not intersect
        assert!(!g.tile_rect(2, 1).intersects(&g.tile_rect(3, 1)));
        assert!(!g.tile_rect(2, 1).intersects(&g.tile_rect(2, 2)));
        assert!(g.tile_rect(2, 1).intersects(&g.tile_rect(2, 1)));
    }

    #[test]
    fn tile_spaces_are_unique() {
        let g = geo();
        let mut seen = std::collections::HashSet::new();
        for ty in 0..g.tiles_y {
            for tx in 0..g.tiles_x {
                assert!(seen.insert(g.tile_space(tx, ty)));
            }
        }
        assert_eq!(seen.len(), g.num_tiles());
    }
}
