//! Static write-race detection over declared write regions.
//!
//! Two tasks race when they write intersecting rectangles of the same
//! address space (the write of a [`runtime::Footprint`]) and the DAG
//! contains a path between them in neither direction. Tasks are grouped
//! by space — distinct spaces never alias — and within a group sorted by
//! a fixed topological rank, so for any candidate pair the earlier task
//! is the only possible ancestor, and every path between them stays
//! inside the rank window `rank(first) ..= rank(second)`.
//!
//! * **Link certificate.** Each consecutive pair of a group's writers
//!   `(m[k−1], m[k])` is checked by one search from `m[k−1]` that never
//!   enters a task ranked above `m[k]` and stops as soon as it reaches
//!   `m[k]`. Consecutive windows are disjoint, so certifying every link
//!   of a group visits each task and edge at most once: O(N + E) per
//!   space at worst, and one adjacency scan per link when the link is a
//!   direct edge — the tile self-flow from iteration `t − 1` to `t` in
//!   every stencil scheme.
//! * **O(1) pairs.** Reachability is transitive, so two writers with no
//!   broken link between them (equal prefix counts of broken links) are
//!   ordered and cannot race. A group whose links all hold skips its
//!   pair loop entirely.
//! * **Fallback.** A writer with an overlapping later writer across a
//!   broken link is searched once more, bounded by the largest rank among
//!   those candidates — never more work than one full forward search per
//!   writer, on any DAG.

use crate::{diag::Diagnostic, footprint::Footprints, task_name};
use runtime::{Rect, UnfoldedDag};

/// Find all write races among the writes `fps` declares. `topo` must be
/// a topological order of `dag`.
pub(crate) fn find_races(dag: &UnfoldedDag, fps: &Footprints, topo: &[usize]) -> Vec<Diagnostic> {
    let mut rank = vec![0usize; dag.len()];
    for (r, &i) in topo.iter().enumerate() {
        rank[i] = r;
    }

    // Group writers by dense space index (a counting sort into one flat
    // vector), and visit the groups in space-id order so the report's
    // order is deterministic.
    let writes = || {
        fps.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((i, t.write?)))
    };
    let mut bounds = vec![0usize; fps.spaces.len() + 1];
    for (_, (space, _)) in writes() {
        bounds[space as usize + 1] += 1;
    }
    for k in 1..bounds.len() {
        bounds[k] += bounds[k - 1];
    }
    let mut next = bounds.clone();
    let mut writers = vec![(0, Rect::new(0, 0, 0, 0)); bounds[fps.spaces.len()]];
    for (i, (space, rect)) in writes() {
        writers[next[space as usize]] = (i, rect);
        next[space as usize] += 1;
    }
    let mut order: Vec<usize> = (0..fps.spaces.len()).collect();
    order.sort_unstable_by_key(|&k| fps.spaces[k]);

    let mut search = WindowSearch::new(dag, rank);
    let mut diags = Vec::new();
    // broken[k]: broken links among (m[0], m[1]) .. (m[k−1], m[k]).
    let mut broken = Vec::new();
    for k in order {
        let (space, members) = (fps.spaces[k], &mut writers[bounds[k]..bounds[k + 1]]);
        members.sort_by_key(|&(i, _)| search.rank[i]);
        broken.clear();
        let mut count = 0u32;
        broken.push(count);
        for link in members.windows(2) {
            let (from, to) = (link[0].0, link[1].0);
            if !search.run(from, search.rank[to], Some(to)) {
                count += 1;
            }
            broken.push(count);
        }
        if count == 0 {
            continue;
        }
        // Only overlapping pairs across a broken link need a search: one
        // per writer, bounded by its farthest such candidate.
        for (ai, &(a, ra)) in members.iter().enumerate() {
            let unresolved = |bi: usize| broken[bi] != broken[ai] && ra.intersects(&members[bi].1);
            let Some(last) = (ai + 1..members.len()).rev().find(|&bi| unresolved(bi)) else {
                continue;
            };
            search.run(a, search.rank[members[last].0], None);
            for (bi, &(b, _)) in members[..=last].iter().enumerate().skip(ai + 1) {
                if unresolved(bi) && !search.reached(b) {
                    diags.push(Diagnostic::WriteRace {
                        first: task_name(dag, a),
                        second: task_name(dag, b),
                        space,
                    });
                }
            }
        }
    }
    diags
}

/// Forward depth-first search confined to a rank window, with a
/// generation-stamped visited set and a stack reused across searches.
struct WindowSearch<'a> {
    dag: &'a UnfoldedDag,
    rank: Vec<usize>,
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<usize>,
}

impl<'a> WindowSearch<'a> {
    fn new(dag: &'a UnfoldedDag, rank: Vec<usize>) -> Self {
        WindowSearch {
            dag,
            stamp: vec![0; rank.len()],
            rank,
            generation: 0,
            stack: Vec::new(),
        }
    }

    /// Mark every task reachable from `from` through tasks ranked at most
    /// `max_rank`, stopping early (and returning true) once `target` is
    /// reached.
    fn run(&mut self, from: usize, max_rank: usize, target: Option<usize>) -> bool {
        self.generation += 1;
        self.stamp[from] = self.generation;
        self.stack.clear();
        self.stack.push(from);
        while let Some(i) = self.stack.pop() {
            for e in self.dag.out_edges(i) {
                let c = e.consumer as usize;
                if self.rank[c] > max_rank || self.stamp[c] == self.generation {
                    continue;
                }
                if Some(c) == target {
                    return true;
                }
                self.stamp[c] = self.generation;
                self.stack.push(c);
            }
        }
        false
    }

    /// Whether the last [`WindowSearch::run`] reached task `i`.
    fn reached(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }
}
