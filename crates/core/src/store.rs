//! The distributed tile store: every tile's double-buffered data in one
//! dense vector indexed by tile coordinates, with per-tile locking.
//!
//! The dataflow guarantees that at most one task touches a given tile at a
//! time (tasks on the same tile are serialized by the self-flow), so the
//! per-tile mutexes are uncontended; they exist to make the store `Sync`
//! for the shared-memory executor.

use crate::geometry::StencilGeometry;
use crate::problem::Problem;
use crate::tile::TileBuf;
use parking_lot::{Mutex, MutexGuard};

/// All tiles of one run.
pub struct TileStore {
    geo: StencilGeometry,
    /// Tile `(tx, ty)` at index `ty * tiles_x + tx`.
    tiles: Vec<Mutex<TileBuf>>,
}

impl TileStore {
    /// Build and initialize every tile. `ghost_of(tx, ty)` chooses each
    /// tile's ghost width (1 everywhere for the base scheme; the CA step
    /// size on node-boundary tiles).
    ///
    /// Every buffer cell is initialized from the problem: iterate-0 values
    /// inside the domain (so ghost copies of neighbour data start correct)
    /// and static boundary values outside (written to both buffers so they
    /// survive swaps).
    pub fn new<G>(problem: &Problem, geo: StencilGeometry, mut ghost_of: G) -> Self
    where
        G: FnMut(usize, usize) -> usize,
    {
        assert_eq!(problem.n, geo.n, "problem and geometry sizes differ");
        let mut tiles = Vec::with_capacity(geo.num_tiles());
        for ty in 0..geo.tiles_y {
            for tx in 0..geo.tiles_x {
                let g = ghost_of(tx, ty);
                let mut buf = TileBuf::new(geo.tile, g);
                let (row0, col0) = geo.tile_origin(tx, ty);
                buf.fill_both(|r, c| problem.value_at(row0 + r, col0 + c));
                tiles.push(Mutex::new(buf));
            }
        }
        TileStore { geo, tiles }
    }

    /// The geometry this store was built for.
    pub fn geometry(&self) -> &StencilGeometry {
        &self.geo
    }

    /// Lock one tile for reading/updating.
    pub fn lock(&self, tx: usize, ty: usize) -> MutexGuard<'_, TileBuf> {
        assert!(
            tx < self.geo.tiles_x && ty < self.geo.tiles_y,
            "tile ({tx},{ty}) not in store"
        );
        self.tiles[ty * self.geo.tiles_x + tx].lock()
    }

    /// Assemble the full `n × n` current iterate, row-major.
    pub fn gather(&self) -> Vec<f64> {
        let n = self.geo.n;
        let t = self.geo.tile;
        let mut out = vec![0.0; n * n];
        for (i, tile) in self.tiles.iter().enumerate() {
            let vals = tile.lock().interior();
            let (tx, ty) = (i % self.geo.tiles_x, i / self.geo.tiles_x);
            let (row0, col0) = self.geo.tile_origin(tx, ty);
            for r in 0..t {
                let dst = (row0 as usize + r) * n + col0 as usize;
                out[dst..dst + t].copy_from_slice(&vals[r * t..(r + 1) * t]);
            }
        }
        out
    }

    /// A simple checksum of the current iterate — cheap cross-run
    /// comparison for big grids: each tile's interior summed row-major,
    /// the per-tile sums added in tile-index order. The summation order is
    /// fixed, so two stores holding the same field return the same bits.
    pub fn checksum(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| t.lock().interior().iter().sum::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ProcessGrid;

    #[test]
    fn initializes_interior_and_ghosts_from_problem() {
        let p = Problem::scrambled(8, 1);
        let geo = StencilGeometry::new(8, 4, ProcessGrid::new(1, 1));
        let store = TileStore::new(&p, geo, |_, _| 2);
        let buf = store.lock(1, 0); // tile origin (row 0, col 4)
                                    // interior cell
        assert_eq!(buf.get(2, 2), p.value_at(2, 6));
        // in-domain ghost cell (left neighbour's data)
        assert_eq!(buf.get(0, -1), p.value_at(0, 3));
        // out-of-domain ghost cell (boundary ring)
        assert_eq!(buf.get(-1, 0), p.value_at(-1, 4));
    }

    #[test]
    fn gather_reconstructs_initial_field() {
        let p = Problem::scrambled(12, 9);
        let geo = StencilGeometry::new(12, 4, ProcessGrid::new(1, 1));
        let store = TileStore::new(&p, geo, |_, _| 1);
        let grid = store.gather();
        for r in 0..12 {
            for c in 0..12 {
                assert_eq!(grid[r * 12 + c], p.value_at(r as i64, c as i64));
            }
        }
    }

    #[test]
    fn checksum_matches_gather_sum() {
        let p = Problem::scrambled(8, 3);
        let geo = StencilGeometry::new(8, 2, ProcessGrid::new(2, 2));
        let store = TileStore::new(&p, geo, |_, _| 1);
        let direct: f64 = store.gather().iter().sum();
        assert!((store.checksum() - direct).abs() < 1e-9);
    }

    #[test]
    fn checksum_is_bit_identical_across_stores_of_one_problem() {
        // Many small tiles with scrambled values: a hash-ordered sum of
        // the per-tile sums would differ in the last bits between stores.
        let p = Problem::scrambled(64, 11);
        let build = || {
            let geo = StencilGeometry::new(64, 2, ProcessGrid::new(2, 2));
            TileStore::new(&p, geo, |_, _| 1)
        };
        let first = build().checksum();
        for _ in 0..8 {
            assert_eq!(build().checksum().to_bits(), first.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "not in store")]
    fn missing_tile_panics() {
        let p = Problem::laplace(8);
        let geo = StencilGeometry::new(8, 4, ProcessGrid::new(1, 1));
        let store = TileStore::new(&p, geo, |_, _| 1);
        drop(store.lock(5, 5));
    }
}
