//! Tile storage and the 5-point Jacobi kernel.
//!
//! A [`TileBuf`] holds one tile's data twice (Jacobi reads `X^{t-1}` and
//! writes `X^t`) over a square buffer with a ghost ring of configurable
//! width: 1 for tiles that exchange every iteration, the CA step size `s`
//! for node-boundary tiles in the communication-avoiding scheme (paper
//! Section IV-B2: "boundary tiles will have ghost region of steps-layers").

use crate::geometry::{Corner, Side};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The general 5-point stencil weights. The paper deliberately uses the
/// general (non-symmetric) form so every implementation performs the same
/// 9 flops per point: 5 multiplies + 4 adds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Weight of the point itself (`w_{0,0}`).
    pub center: f64,
    /// Weight of the northern neighbour (`w_{-1,0}`).
    pub north: f64,
    /// Weight of the southern neighbour (`w_{1,0}`).
    pub south: f64,
    /// Weight of the western neighbour (`w_{0,-1}`).
    pub west: f64,
    /// Weight of the eastern neighbour (`w_{0,1}`).
    pub east: f64,
}

impl Weights {
    /// Jacobi weights for Laplace's equation: the four-neighbour average.
    pub fn laplace_jacobi() -> Self {
        Weights {
            center: 0.0,
            north: 0.25,
            south: 0.25,
            west: 0.25,
            east: 0.25,
        }
    }

    /// An asymmetric weight set used by tests so that orientation mistakes
    /// (north/south or row/column swaps) change the answer.
    pub fn skewed() -> Self {
        Weights {
            center: 0.05,
            north: 0.3,
            south: 0.2,
            west: 0.25,
            east: 0.2,
        }
    }
}

/// Per-side widths of an update region extension beyond the tile proper.
/// All zeros means "update exactly the tile" (the base scheme); the CA
/// scheme uses shrinking extents over its deep halos.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extents {
    /// Extra rows updated above the tile.
    pub north: usize,
    /// Extra rows updated below the tile.
    pub south: usize,
    /// Extra columns updated left of the tile.
    pub west: usize,
    /// Extra columns updated right of the tile.
    pub east: usize,
}

impl Extents {
    /// No extension.
    pub const ZERO: Extents = Extents {
        north: 0,
        south: 0,
        west: 0,
        east: 0,
    };

    /// The same extent on every side.
    pub fn uniform(e: usize) -> Self {
        Extents {
            north: e,
            south: e,
            west: e,
            east: e,
        }
    }

    /// Points in the extended region for a `tile × tile` tile.
    pub fn region_points(&self, tile: usize) -> usize {
        (tile + self.north + self.south) * (tile + self.west + self.east)
    }
}

/// The instruction sets [`TileBuf::jacobi_step`]'s row loop is compiled
/// for. An AVX-512F version measured no faster than AVX2 end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The target's baseline (SSE2 on x86-64: two doubles per vector).
    Baseline,
    /// AVX2: four doubles per vector.
    Avx2,
}

impl Isa {
    /// Whether this CPU runs the version (std caches the detection, so
    /// each call is one atomic load).
    fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => false,
        }
    }

    /// The widest version this CPU runs.
    fn widest() -> Isa {
        if Isa::Avx2.detected() {
            Isa::Avx2
        } else {
            Isa::Baseline
        }
    }
}

/// One Jacobi sweep's operands: read `cur`, write `next`, over buffer rows
/// `rows` and columns `c0..c0 + width` of a `stride`-wide buffer.
struct Sweep<'a> {
    w: &'a Weights,
    cur: &'a [f64],
    next: &'a mut [f64],
    stride: usize,
    rows: Range<usize>,
    c0: usize,
    width: usize,
}

impl Sweep<'_> {
    /// The row loop, inlined into each instruction set's version so one
    /// source compiles to each vector width.
    #[inline(always)]
    fn run(self) {
        let Sweep {
            w,
            cur,
            next,
            stride: s,
            rows,
            c0,
            width,
        } = self;
        let window = |row: usize, col: usize| &cur[row * s + col..][..width];
        for r in rows {
            let out = &mut next[r * s + c0..][..width];
            let (north, south) = (window(r - 1, c0), window(r + 1, c0));
            let (west, centre, east) = (window(r, c0 - 1), window(r, c0), window(r, c0 + 1));
            for k in 0..width {
                // 5 multiplies + 4 adds: the paper's 9 flops per point, in
                // `reference::jacobi_reference`'s term order.
                out[k] = w.center * centre[k]
                    + w.north * north[k]
                    + w.south * south[k]
                    + w.west * west[k]
                    + w.east * east[k];
            }
        }
    }

    /// Run the version compiled for `isa`, or the baseline one if this CPU
    /// lacks `isa`. Rust never contracts a multiply and an add into an FMA
    /// unless asked, so every version rounds exactly as the baseline does.
    #[allow(unsafe_code)]
    fn run_on(self, isa: Isa) {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 if isa.detected() => {
                // SAFETY: the `isa.detected()` guard just above checked that
                // this CPU has AVX2, the feature the callee is built for.
                unsafe { self.run_avx2() }
            }
            _ => self.run(),
        }
    }

    /// [`Sweep::run`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(self) {
        self.run()
    }
}

/// One tile's double-buffered storage with a ghost ring of width `ghost`.
///
/// Local coordinates: `(row, col)` with the tile proper at
/// `[0, tile) × [0, tile)` and the ghost ring at negative / `≥ tile`
/// indices down to `-ghost` / up to `tile + ghost - 1`.
#[derive(Debug, Clone)]
pub struct TileBuf {
    tile: usize,
    ghost: usize,
    stride: usize,
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl TileBuf {
    /// A zero-initialized tile with the given ghost width.
    pub fn new(tile: usize, ghost: usize) -> Self {
        assert!(tile > 0, "tile size must be positive");
        assert!(ghost >= 1, "ghost width must be at least 1");
        let stride = tile + 2 * ghost;
        TileBuf {
            tile,
            ghost,
            stride,
            cur: vec![0.0; stride * stride],
            next: vec![0.0; stride * stride],
        }
    }

    /// Tile edge length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Ghost ring width.
    pub fn ghost(&self) -> usize {
        self.ghost
    }

    #[inline]
    fn idx(&self, r: i64, c: i64) -> usize {
        let g = self.ghost as i64;
        debug_assert!(
            r >= -g && c >= -g && r < self.tile as i64 + g && c < self.tile as i64 + g,
            "local coordinate ({r},{c}) outside buffer (tile {}, ghost {})",
            self.tile,
            self.ghost
        );
        ((r + g) as usize) * self.stride + (c + g) as usize
    }

    /// Read a value from the current iterate.
    #[inline]
    pub fn get(&self, r: i64, c: i64) -> f64 {
        self.cur[self.idx(r, c)]
    }

    /// Write a value into the current iterate.
    #[inline]
    pub fn set(&mut self, r: i64, c: i64, v: f64) {
        let i = self.idx(r, c);
        self.cur[i] = v;
    }

    /// Write a value into both buffers (static boundary cells must survive
    /// every swap).
    #[inline]
    pub fn set_both(&mut self, r: i64, c: i64, v: f64) {
        let i = self.idx(r, c);
        self.cur[i] = v;
        self.next[i] = v;
    }

    /// Initialize every buffer cell from `f(local_row, local_col)`,
    /// writing both buffers.
    pub fn fill_both<F: FnMut(i64, i64) -> f64>(&mut self, mut f: F) {
        let g = self.ghost as i64;
        let t = self.tile as i64;
        for r in -g..t + g {
            for c in -g..t + g {
                let v = f(r, c);
                self.set_both(r, c, v);
            }
        }
    }

    /// Apply one generalized 5-point Jacobi step over the tile extended by
    /// `ext`, then swap buffers so the new iterate becomes current. Reads
    /// must stay inside the buffer: `ext + 1 ≤ ghost` on every used side.
    ///
    /// Each row is computed from six slices of the row's width — the output
    /// row and the north, south, centre, west-shifted and east-shifted
    /// input windows — so the compiler sees every index in bounds, drops
    /// the checks and vectorizes the loop. That one loop is compiled for
    /// the baseline target and for AVX2, and each sweep runs AVX2 when this
    /// CPU has it. No version fuses a multiply into an add, so the result
    /// is bitwise equal to [`crate::reference::jacobi_reference`] on every
    /// instruction set it runs.
    pub fn jacobi_step(&mut self, w: &Weights, ext: Extents) {
        self.jacobi_step_on(Isa::widest(), w, ext);
    }

    /// [`TileBuf::jacobi_step`] with the row loop compiled for `isa` (the
    /// baseline one if this CPU lacks `isa`).
    fn jacobi_step_on(&mut self, isa: Isa, w: &Weights, ext: Extents) {
        let g = self.ghost;
        assert!(
            ext.north < g && ext.south < g && ext.west < g && ext.east < g,
            "extents {ext:?} exceed ghost width {g}"
        );
        // The update region in buffer coordinates; `c0 ≥ 1` because
        // `ext.west < g`, so the west window starts inside the row.
        let sweep = Sweep {
            w,
            cur: &self.cur,
            next: &mut self.next,
            stride: self.stride,
            rows: g - ext.north..g + self.tile + ext.south,
            c0: g - ext.west,
            width: self.tile + ext.west + ext.east,
        };
        sweep.run_on(isa);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Variable-coefficient variant of [`TileBuf::jacobi_step`]: the weights
    /// at each point come from `coef(global_row, global_col)`, where
    /// `origin` is the global coordinate of the tile's `(0, 0)` point. The
    /// update expression is evaluated in the same term order as the
    /// constant-coefficient kernel, so results stay bitwise schedule-
    /// independent.
    pub fn jacobi_step_var<F>(&mut self, coef: F, origin: (i64, i64), ext: Extents)
    where
        F: Fn(i64, i64) -> Weights,
    {
        let g = self.ghost;
        assert!(
            ext.north < g && ext.south < g && ext.west < g && ext.east < g,
            "extents {ext:?} exceed ghost width {g}"
        );
        let t = self.tile as i64;
        let (row0, col0) = origin;
        let (r0, r1) = (-(ext.north as i64), t + ext.south as i64);
        let (c0, c1) = (-(ext.west as i64), t + ext.east as i64);
        for r in r0..r1 {
            let base = self.idx(r, c0);
            let up = self.idx(r - 1, c0);
            let down = self.idx(r + 1, c0);
            let width = (c1 - c0) as usize;
            for k in 0..width {
                let w = coef(row0 + r, col0 + c0 + k as i64);
                self.next[base + k] = w.center * self.cur[base + k]
                    + w.north * self.cur[up + k]
                    + w.south * self.cur[down + k]
                    + w.west * self.cur[base + k - 1]
                    + w.east * self.cur[base + k + 1];
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// The rows and columns of the tile's `depth`-deep strip along `side`.
    fn strip_span(&self, side: Side, depth: usize) -> (Range<i64>, Range<i64>) {
        let t = self.tile as i64;
        let d = depth as i64;
        match side {
            Side::North => (0..d, 0..t),
            Side::South => (t - d..t, 0..t),
            Side::West => (0..t, 0..d),
            Side::East => (0..t, t - d..t),
        }
    }

    /// The rows and columns of the tile's `depth × depth` block at `corner`.
    fn corner_span(&self, corner: Corner, depth: usize) -> (Range<i64>, Range<i64>) {
        let t = self.tile as i64;
        let d = depth as i64;
        match corner {
            Corner::Nw => (0..d, 0..d),
            Corner::Ne => (0..d, t - d..t),
            Corner::Sw => (t - d..t, 0..d),
            Corner::Se => (t - d..t, t - d..t),
        }
    }

    /// Replace `out`'s contents with the current iterate over
    /// `rows × cols`, row-major: one slice copy per row, or one strided
    /// pass for a one-wide column.
    fn read_block(&self, rows: Range<i64>, cols: Range<i64>, out: &mut Vec<f64>) {
        out.clear();
        let width = (cols.end - cols.start) as usize;
        let mut at = self.idx(rows.start, cols.start);
        if width == 1 {
            let column = self.cur[at..].iter().step_by(self.stride);
            out.extend(column.take((rows.end - rows.start) as usize));
            return;
        }
        for _ in rows {
            out.extend_from_slice(&self.cur[at..at + width]);
            at += self.stride;
        }
    }

    /// Overwrite the current iterate over `rows × cols` with `vals`
    /// (row-major, length already checked by the caller).
    fn write_block(&mut self, rows: Range<i64>, cols: Range<i64>, vals: &[f64]) {
        let width = (cols.end - cols.start) as usize;
        if width == 0 {
            return;
        }
        let mut at = self.idx(rows.start, cols.start);
        if width == 1 {
            let column = self.cur[at..].iter_mut().step_by(self.stride);
            column.zip(vals).for_each(|(dst, &v)| *dst = v);
            return;
        }
        for row in vals.chunks_exact(width) {
            self.cur[at..at + width].copy_from_slice(row);
            at += self.stride;
        }
    }

    /// Copy the `depth` rows/columns of the tile adjacent to `side` into
    /// `out` (replacing its contents, row-major), e.g.
    /// `extract_strip_into(North, d, ..)` is rows `0..d`. The
    /// allocation-free form task bodies use with a recycled buffer.
    pub fn extract_strip_into(&self, side: Side, depth: usize, out: &mut Vec<f64>) {
        assert!(depth <= self.tile, "strip depth exceeds tile");
        let (rows, cols) = self.strip_span(side, depth);
        self.read_block(rows, cols, out);
    }

    /// [`TileBuf::extract_strip_into`] into a fresh vector.
    pub fn extract_strip(&self, side: Side, depth: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(depth * self.tile);
        self.extract_strip_into(side, depth, &mut out);
        out
    }

    /// Write a strip (as produced by the neighbour's
    /// `extract_strip(side.opposite(), depth)`) into the ghost region on
    /// `side` of the current iterate.
    pub fn write_strip(&mut self, side: Side, depth: usize, vals: &[f64]) {
        assert!(depth <= self.ghost, "strip depth exceeds ghost width");
        assert_eq!(vals.len(), depth * self.tile, "strip length mismatch");
        let t = self.tile as i64;
        let d = depth as i64;
        let (rows, cols) = match side {
            Side::North => (-d..0, 0..t),
            Side::South => (t..t + d, 0..t),
            Side::West => (0..t, -d..0),
            Side::East => (0..t, t..t + d),
        };
        self.write_block(rows, cols, vals);
    }

    /// Copy the `depth × depth` block of the tile at `corner` into `out`
    /// (replacing its contents, row-major), e.g.
    /// `extract_corner_into(Nw, d, ..)` is rows `0..d` × cols `0..d`.
    pub fn extract_corner_into(&self, corner: Corner, depth: usize, out: &mut Vec<f64>) {
        assert!(depth <= self.tile, "corner depth exceeds tile");
        let (rows, cols) = self.corner_span(corner, depth);
        self.read_block(rows, cols, out);
    }

    /// [`TileBuf::extract_corner_into`] into a fresh vector.
    pub fn extract_corner(&self, corner: Corner, depth: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(depth * depth);
        self.extract_corner_into(corner, depth, &mut out);
        out
    }

    /// Write a corner block (as produced by the diagonal neighbour's
    /// `extract_corner(corner.opposite(), depth)`) into the ghost corner at
    /// `corner`.
    pub fn write_corner(&mut self, corner: Corner, depth: usize, vals: &[f64]) {
        assert!(depth <= self.ghost, "corner depth exceeds ghost width");
        assert_eq!(vals.len(), depth * depth, "corner length mismatch");
        let t = self.tile as i64;
        let d = depth as i64;
        let (rows, cols) = match corner {
            Corner::Nw => (-d..0, -d..0),
            Corner::Ne => (-d..0, t..t + d),
            Corner::Sw => (t..t + d, -d..0),
            Corner::Se => (t..t + d, t..t + d),
        };
        self.write_block(rows, cols, vals);
    }

    /// The tile-proper values of the current iterate, row-major.
    pub fn interior(&self) -> Vec<f64> {
        let t = self.tile as i64;
        let mut out = Vec::with_capacity(self.tile * self.tile);
        self.read_block(0..t, 0..t, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_index() {
        let mut b = TileBuf::new(4, 2);
        b.fill_both(|r, c| (r * 100 + c) as f64);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(-2, -2), -202.0);
        assert_eq!(b.get(3, 3), 303.0);
        assert_eq!(b.get(5, 5), 505.0);
    }

    #[test]
    fn jacobi_step_matches_hand_computation() {
        let mut b = TileBuf::new(2, 1);
        b.fill_both(|r, c| (r * 10 + c) as f64);
        let w = Weights::skewed();
        b.jacobi_step(&w, Extents::ZERO);
        // point (0,0): center 0, north -10, south 10, west -1, east 1
        let expected = 0.05 * 0.0 + 0.3 * (-10.0) + 0.2 * 10.0 - 0.25 * 1.0 + 0.2 * 1.0;
        assert!((b.get(0, 0) - expected).abs() < 1e-15);
        // ghost cells keep their static values after the swap
        assert_eq!(b.get(-1, 0), -10.0);
    }

    /// The indexed loop the row-slice [`TileBuf::jacobi_step`] replaced,
    /// kept as its bitwise oracle.
    fn jacobi_step_indexed(b: &mut TileBuf, w: &Weights, ext: Extents) {
        let t = b.tile as i64;
        let (r0, r1) = (-(ext.north as i64), t + ext.south as i64);
        let (c0, c1) = (-(ext.west as i64), t + ext.east as i64);
        for r in r0..r1 {
            let base = b.idx(r, c0);
            let up = b.idx(r - 1, c0);
            let down = b.idx(r + 1, c0);
            for k in 0..(c1 - c0) as usize {
                b.next[base + k] = w.center * b.cur[base + k]
                    + w.north * b.cur[up + k]
                    + w.south * b.cur[down + k]
                    + w.west * b.cur[base + k - 1]
                    + w.east * b.cur[base + k + 1];
            }
        }
        std::mem::swap(&mut b.cur, &mut b.next);
    }

    #[test]
    fn row_slice_kernel_matches_the_indexed_oracle_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let w = Weights::skewed();
        // Every compiled version this CPU runs, each called directly.
        let isas = [Isa::Baseline, Isa::Avx2];
        for isa in isas.into_iter().filter(|isa| isa.detected()) {
            for ghost in 1..=6usize {
                // Every extent combination the ghost ring admits (each
                // side's extent a digit in base `ghost`), including the
                // lopsided ones CA's edge tiles use as they shrink.
                let extents = (0..ghost.pow(4)).map(|i| Extents {
                    north: i % ghost,
                    south: i / ghost % ghost,
                    west: i / ghost.pow(2) % ghost,
                    east: i / ghost.pow(3),
                });
                for tile in 1..=40 {
                    let mut start = TileBuf::new(tile, ghost);
                    start.fill_both(|r, c| {
                        ((r * 7919 + c * 104_729).rem_euclid(1009) as f64).sqrt()
                    });
                    for ext in extents.clone() {
                        let (mut got, mut want) = (start.clone(), start.clone());
                        for _ in 0..5 {
                            got.jacobi_step_on(isa, &w, ext);
                            jacobi_step_indexed(&mut want, &w, ext);
                        }
                        assert!(
                            bits(&got.cur) == bits(&want.cur)
                                && bits(&got.next) == bits(&want.next),
                            "{isa:?}, tile {tile}, ghost {ghost}, {ext:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn laplace_average_of_constant_is_constant() {
        let mut b = TileBuf::new(8, 1);
        b.fill_both(|_, _| 7.5);
        b.jacobi_step(&Weights::laplace_jacobi(), Extents::ZERO);
        assert!(b.interior().iter().all(|&v| (v - 7.5).abs() < 1e-15));
    }

    #[test]
    fn extended_update_region() {
        let mut b = TileBuf::new(4, 3);
        b.fill_both(|r, c| (r + c) as f64);
        b.jacobi_step(&Weights::laplace_jacobi(), Extents::uniform(2));
        // the updated halo cell (-2, 0): average of (-3,0), (-1,0), (-2,-1), (-2,1)
        let expected = 0.25 * ((-3.0) + (-1.0) + (-3.0) + (-1.0));
        assert!((b.get(-2, 0) - expected).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "exceed ghost width")]
    fn extents_beyond_ghost_rejected() {
        let mut b = TileBuf::new(4, 1);
        b.jacobi_step(&Weights::laplace_jacobi(), Extents::uniform(1));
    }

    #[test]
    fn strip_roundtrip_between_neighbors() {
        // a's south strip lands in b's... a is NORTH of b: a sends
        // extract_strip(South), b receives write_strip(North).
        let mut a = TileBuf::new(4, 1);
        a.fill_both(|r, c| (1000 + r * 10 + c) as f64);
        let mut b = TileBuf::new(4, 2);
        b.fill_both(|_, _| 0.0);
        let strip = a.extract_strip(Side::South, 2);
        assert_eq!(strip.len(), 8);
        b.write_strip(Side::North, 2, &strip);
        // b's ghost row -1 = a's row 3; row -2 = a's row 2 (global order)
        assert_eq!(b.get(-1, 0), 1030.0);
        assert_eq!(b.get(-2, 0), 1020.0);
        assert_eq!(b.get(-1, 3), 1033.0);
    }

    #[test]
    fn east_west_strip_roundtrip() {
        let mut a = TileBuf::new(4, 1);
        a.fill_both(|r, c| (r * 10 + c) as f64);
        let mut b = TileBuf::new(4, 2);
        b.fill_both(|_, _| 0.0);
        // a is WEST of b: a sends its East columns, b writes its West ghost
        let strip = a.extract_strip(Side::East, 2);
        b.write_strip(Side::West, 2, &strip);
        // b's ghost col -1 = a's col 3; col -2 = a's col 2
        assert_eq!(b.get(0, -1), 3.0);
        assert_eq!(b.get(0, -2), 2.0);
        assert_eq!(b.get(3, -1), 33.0);
    }

    #[test]
    fn column_strips_roundtrip_at_every_depth() {
        // One-wide strips take the strided path, wider ones the per-row
        // copy; both must land every value where `get` reads it.
        for tile in [1usize, 2, 17] {
            for depth in [1, tile.min(3)] {
                let mut a = TileBuf::new(tile, depth);
                a.fill_both(|r, c| (r * 1000 + c) as f64);
                let (t, d) = (tile as i64, depth as i64);
                for side in [Side::West, Side::East] {
                    let strip = a.extract_strip(side, depth);
                    let mut b = TileBuf::new(tile, depth);
                    b.write_strip(side.opposite(), depth, &strip);
                    // b's ghost columns beyond `side.opposite()` hold a's
                    // columns nearest `side`, in global order.
                    let (from, to) = match side {
                        Side::East => (t - d, -d),
                        _ => (0, t),
                    };
                    for r in 0..t {
                        for k in 0..d {
                            assert_eq!(strip[(r * d + k) as usize], a.get(r, from + k));
                            assert_eq!(
                                b.get(r, to + k),
                                a.get(r, from + k),
                                "tile {tile}, {side:?}"
                            );
                        }
                    }
                }
            }
            // A one-deep corner is a one-wide block too.
            let mut a = TileBuf::new(tile, 1);
            a.fill_both(|r, c| (r * 1000 + c) as f64);
            let t = tile as i64;
            let corner = a.extract_corner(Corner::Se, 1);
            assert_eq!(corner, [a.get(t - 1, t - 1)]);
            a.write_corner(Corner::Nw, 1, &corner);
            assert_eq!(a.get(-1, -1), a.get(t - 1, t - 1));
        }
    }

    #[test]
    fn corner_roundtrip() {
        let mut a = TileBuf::new(4, 1);
        a.fill_both(|r, c| (r * 10 + c) as f64);
        let mut b = TileBuf::new(4, 2);
        b.fill_both(|_, _| 0.0);
        // a is NW of b: a sends its SE corner, b writes its NW ghost corner
        let block = a.extract_corner(Corner::Se, 2);
        b.write_corner(Corner::Nw, 2, &block);
        // b's (-1,-1) = a's (3,3); b's (-2,-2) = a's (2,2)
        assert_eq!(b.get(-1, -1), 33.0);
        assert_eq!(b.get(-2, -2), 22.0);
        assert_eq!(b.get(-2, -1), 23.0);
    }

    #[test]
    fn strip_lengths_validated() {
        let mut b = TileBuf::new(4, 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.write_strip(Side::North, 2, &[0.0; 3]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn extents_region_points() {
        assert_eq!(Extents::ZERO.region_points(4), 16);
        assert_eq!(Extents::uniform(2).region_points(4), 64);
        let e = Extents {
            north: 1,
            south: 0,
            west: 2,
            east: 0,
        };
        assert_eq!(e.region_points(4), 30);
    }
}
