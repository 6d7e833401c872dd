//! Every task's footprint, declared once per analysis: one
//! [`runtime::TaskClass::footprint`] call per task, into one reused
//! scratch, copied into one flat table that the write-race and
//! region-dataflow passes both read. Space ids become dense indices on
//! the way in, so the dataflow pass keeps its per-space state in vectors.
//! The race pass reads only the writes, so without the dataflow pass the
//! table keeps nothing else.

use crate::dataflow::WordHash;
use runtime::{Footprint, Rect, UnfoldedDag};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A read, pinned or delivered region: a dense space index and the range
/// of its rectangles in [`Footprints::rects`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub space: u32,
    start: u32,
    end: u32,
}

impl Region {
    pub fn of(self, rects: &[Rect]) -> &[Rect] {
        &rects[self.start as usize..self.end as usize]
    }
}

/// One task's own declarations, with dense space indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskRegions {
    pub write: Option<(u32, Rect)>,
    pub read: Option<Region>,
    pub pinned: Option<Region>,
}

#[derive(Debug, Default)]
pub(crate) struct Footprints {
    /// Parallel to `dag.tasks`.
    pub tasks: Vec<TaskRegions>,
    /// The region each edge's flow delivers, parallel to `dag.edges`;
    /// empty without regions.
    pub delivered: Vec<Option<Region>>,
    pub rects: Vec<Rect>,
    /// Space id per dense space index.
    pub spaces: Vec<u64>,
    dense: HashMap<u64, u32, BuildHasherDefault<WordHash>>,
}

/// `len` as a `u32` index, as the unfolded DAG indexes tasks and edges.
fn index(len: usize) -> u32 {
    u32::try_from(len).expect("footprint tables are indexed by u32")
}

impl Footprints {
    /// Declare every task's footprint. Only with `regions` does the table
    /// keep the read, pinned and delivered regions besides the writes.
    pub fn collect(dag: &UnfoldedDag, regions: bool) -> Self {
        let mut table = Footprints {
            tasks: Vec::with_capacity(dag.len()),
            delivered: Vec::with_capacity(if regions { dag.edges.len() } else { 0 }),
            ..Footprints::default()
        };
        let mut fp = Footprint::default();
        for (i, key) in dag.tasks.iter().enumerate() {
            fp.clear();
            dag.graph.class(key.class).footprint(key.params, &mut fp);
            let write = fp.write().map(|(space, rect)| (table.space(space), rect));
            if !regions {
                table.tasks.push(TaskRegions {
                    write,
                    read: None,
                    pinned: None,
                });
                continue;
            }
            let task = TaskRegions {
                write,
                read: table.region(fp.read()),
                pinned: table.region(fp.pinned()),
            };
            table.tasks.push(task);
            // `dag.edges` is grouped by producer in task order.
            for e in dag.out_edges(i) {
                let region = table.region(fp.delivered(e.flow.into()));
                table.delivered.push(region);
            }
        }
        table
    }

    fn space(&mut self, space: u64) -> u32 {
        *self.dense.entry(space).or_insert_with(|| {
            self.spaces.push(space);
            index(self.spaces.len() - 1)
        })
    }

    fn region(&mut self, region: Option<(u64, &[Rect])>) -> Option<Region> {
        let (space, rects) = region?;
        let start = index(self.rects.len());
        self.rects.extend_from_slice(rects);
        let end = index(self.rects.len());
        Some(Region {
            space: self.space(space),
            start,
            end,
        })
    }
}
