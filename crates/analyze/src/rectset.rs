//! Disjoint rectangle-set algebra over tile-index rectangles.
//!
//! The region-dataflow pass ([`crate::dataflow`]) reasons about which
//! cells of an address space are valid at each point of the unfolded DAG.
//! Cell sets are unions of axis-aligned [`Rect`]s; this module keeps them
//! as a vector of **pairwise-disjoint** rectangles so that area is a sum
//! and subtraction is per-rectangle guillotine splitting (a rectangle
//! minus a rectangle is at most four rectangles: the bands above and
//! below the intersection at full width, plus the left/right remnants of
//! the middle band).
//!
//! Splitting works in place, in the set's own vector: the pieces of every
//! fragment from the first one cut onward are appended behind the stored
//! ones, and the consumed range is drained, so fragments keep the order a
//! fresh collect would give them and a set that is only read or refilled
//! (`clone_from`, [`RectSet::clear`]) allocates nothing once its vector
//! has grown. [`RectSet::covers`] and [`RectSet::same_cells`] compare
//! areas of intersections, which is exact because fragments are disjoint,
//! and build no probe set.
//!
//! All operations are exact; none of them normalizes adjacent fragments
//! back into bigger rectangles, so two sets covering the same cells may
//! differ representationally — use [`RectSet::same_cells`] for semantic
//! comparison (as the steady-state certificate does), never `==`.

use runtime::Rect;

/// A set of cells represented as pairwise-disjoint rectangles.
#[derive(Debug, Default)]
pub struct RectSet {
    rects: Vec<Rect>,
}

impl Clone for RectSet {
    fn clone(&self) -> Self {
        RectSet {
            rects: self.rects.clone(),
        }
    }

    /// Reuses `self`'s vector: the dataflow pass refills its scratch sets
    /// this way without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.rects.clone_from(&source.rects);
    }
}

/// Appends the pieces of `a` not covered by `b` to `out` — at most four.
fn rect_subtract(a: Rect, b: Rect, out: &mut Vec<Rect>) {
    if !a.intersects(&b) {
        if a.area() != 0 {
            out.push(a);
        }
        return;
    }
    let a_r1 = a.row + a.rows as i64;
    let a_c1 = a.col + a.cols as i64;
    // Intersection bounds, clipped to `a`.
    let ir0 = a.row.max(b.row);
    let ir1 = a_r1.min(b.row + b.rows as i64);
    let ic0 = a.col.max(b.col);
    let ic1 = a_c1.min(b.col + b.cols as i64);
    if ir0 > a.row {
        out.push(Rect::new(a.row, a.col, (ir0 - a.row) as u32, a.cols));
    }
    if a_r1 > ir1 {
        out.push(Rect::new(ir1, a.col, (a_r1 - ir1) as u32, a.cols));
    }
    let mid_rows = (ir1 - ir0) as u32;
    if ic0 > a.col {
        out.push(Rect::new(ir0, a.col, mid_rows, (ic0 - a.col) as u32));
    }
    if a_c1 > ic1 {
        out.push(Rect::new(ir0, ic1, mid_rows, (a_c1 - ic1) as u32));
    }
}

/// Cells `a` and `b` share.
fn overlap_area(a: &Rect, b: &Rect) -> u64 {
    let rows = (a.row + a.rows as i64).min(b.row + b.rows as i64) - a.row.max(b.row);
    let cols = (a.col + a.cols as i64).min(b.col + b.cols as i64) - a.col.max(b.col);
    if rows <= 0 || cols <= 0 {
        0
    } else {
        rows as u64 * cols as u64
    }
}

/// Replaces each of `rects[from..]` by its pieces outside `cut`, in order.
/// Every fragment is non-empty, so one `cut` misses is its own piece.
fn cut_tail(rects: &mut Vec<Rect>, from: usize, cut: Rect) {
    let end = rects.len();
    let Some(first) = (from..end).find(|&k| rects[k].intersects(&cut)) else {
        return;
    };
    for k in first..end {
        rect_subtract(rects[k], cut, rects);
    }
    rects.drain(first..end);
}

impl RectSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set holding the cells of one rectangle.
    pub fn from_rect(r: Rect) -> Self {
        let mut s = Self::new();
        s.insert(r);
        s
    }

    /// A set holding the union of the given rectangles (they may overlap).
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        let mut s = Self::new();
        for r in rects {
            s.insert(r);
        }
        s
    }

    /// Add the cells of `r`. Overlap with existing cells is fine; only the
    /// uncovered pieces are stored, preserving disjointness.
    pub fn insert(&mut self, r: Rect) {
        if r.area() == 0 {
            return;
        }
        // The fresh pieces live behind the stored fragments, cut by each
        // stored one in turn.
        let stored = self.rects.len();
        self.rects.push(r);
        for k in 0..stored {
            if self.rects.len() == stored {
                return;
            }
            let have = self.rects[k];
            cut_tail(&mut self.rects, stored, have);
        }
    }

    /// Add every cell of `other`.
    pub fn union_with(&mut self, other: &RectSet) {
        for &r in &other.rects {
            self.insert(r);
        }
    }

    /// Remove the cells of `r`.
    pub fn subtract_rect(&mut self, r: &Rect) {
        if r.area() != 0 {
            cut_tail(&mut self.rects, 0, *r);
        }
    }

    /// Remove every cell of `other`.
    pub fn subtract(&mut self, other: &RectSet) {
        for r in &other.rects {
            self.subtract_rect(r);
        }
    }

    /// `self \ other` as a new set, leaving `self` untouched.
    pub fn difference(&self, other: &RectSet) -> RectSet {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Remove every cell, keeping the vector's capacity.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// Number of cells covered. Exact because fragments are disjoint.
    pub fn area(&self) -> u64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// True when no cells are covered.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// True when every cell of `r` is in the set: the fragments' overlaps
    /// with `r` add up to its area.
    pub fn covers(&self, r: &Rect) -> bool {
        self.rects.iter().map(|f| overlap_area(f, r)).sum::<u64>() == r.area()
    }

    /// The largest-area stored fragment — the witness rectangle reported
    /// for uncovered reads. `None` when empty.
    pub fn largest(&self) -> Option<Rect> {
        self.rects.iter().copied().max_by_key(Rect::area)
    }

    /// Semantic equality: both sets cover exactly the same cells, however
    /// they are fragmented. Equal areas and `self ⊆ other` suffice.
    pub fn same_cells(&self, other: &RectSet) -> bool {
        self.area() == other.area() && self.rects.iter().all(|f| other.covers(f))
    }

    /// The stored disjoint fragments (representation-dependent order).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(row: i64, col: i64, rows: u32, cols: u32) -> Rect {
        Rect::new(row, col, rows, cols)
    }

    #[test]
    fn insert_merges_overlap_without_double_count() {
        let mut s = RectSet::new();
        s.insert(r(0, 0, 4, 4));
        s.insert(r(2, 2, 4, 4)); // overlaps 2x2
        assert_eq!(s.area(), 16 + 16 - 4);
        s.insert(r(0, 0, 6, 6)); // superset of both
        assert_eq!(s.area(), 36);
    }

    #[test]
    fn subtract_hole_splits_into_four() {
        let mut s = RectSet::from_rect(r(0, 0, 10, 10));
        s.subtract_rect(&r(3, 3, 4, 4));
        assert_eq!(s.area(), 100 - 16);
        assert!(!s.covers(&r(3, 3, 1, 1)));
        assert!(s.covers(&r(0, 0, 3, 10)));
        assert!(s.covers(&r(7, 0, 3, 10)));
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let mut s = RectSet::from_rect(r(0, 0, 4, 4));
        s.subtract_rect(&r(10, 10, 4, 4));
        assert_eq!(s.area(), 16);
        assert!(s.covers(&r(0, 0, 4, 4)));
    }

    #[test]
    fn covers_negative_coordinates() {
        // Ghost rings sit at negative indices; the algebra must not care.
        let s = RectSet::from_rect(r(-1, -1, 6, 6));
        assert!(s.covers(&r(-1, -1, 1, 6)));
        assert!(!s.covers(&r(-2, 0, 1, 1)));
    }

    #[test]
    fn same_cells_ignores_fragmentation() {
        let a = RectSet::from_rect(r(0, 0, 2, 4));
        let b = RectSet::from_rects([r(0, 0, 2, 2), r(0, 2, 2, 2)]);
        assert!(a.same_cells(&b));
        let c = RectSet::from_rects([r(0, 0, 2, 2), r(0, 2, 1, 2)]);
        assert!(!a.same_cells(&c));
    }

    #[test]
    fn largest_returns_biggest_fragment() {
        let mut s = RectSet::new();
        s.insert(r(0, 0, 1, 1));
        s.insert(r(5, 5, 3, 4));
        assert_eq!(s.largest(), Some(r(5, 5, 3, 4)));
        assert_eq!(RectSet::new().largest(), None);
    }

    #[test]
    fn empty_rects_are_ignored() {
        let mut s = RectSet::new();
        s.insert(r(0, 0, 0, 5));
        assert!(s.is_empty());
        s.insert(r(0, 0, 2, 2));
        s.subtract_rect(&r(1, 1, 0, 0));
        assert_eq!(s.area(), 4);
    }
}
