//! The base stencil expressed through the runtime's **Dynamic Task
//! Discovery** front-end instead of the parameterized task graph.
//!
//! The paper's background (Section III-B) presents PaRSEC's two DSLs: the
//! PTG ("concise, parameterized, task-graph description") used by
//! [`crate::ca`], and DTD, "an API that allows for sequential task
//! insertion into the runtime". This module inserts the same base-scheme
//! DAG task by task, demonstrating that both front-ends drive the
//! identical dataflow — the simulated executions produce the same
//! remote-message counts and (up to the coarser per-task byte accounting)
//! the same makespans. Every task's node, cost, kind and footprint, and
//! every dependency with the region it delivers, are read off the base
//! scheme's task class, so the two cannot drift apart.

use crate::ca::build_base;
use crate::config::StencilConfig;
use runtime::{DtdBuilder, Footprint, OutputDep, Program, Rect};

/// Build the base-scheme program by sequential task insertion, iteration
/// by iteration in row-major tile order. Performance-only: DTD tasks
/// carry sized flows, not tile data.
pub fn build_base_dtd(cfg: &StencilConfig) -> Program {
    let base = build_base(cfg, false);
    let class = base.program.graph.class(0);
    let geo = &base.geo;
    let at = |tx: i32, ty: i32| ty as usize * geo.tiles_x + tx as usize;
    let mut b = DtdBuilder::new();
    // per tile of the iterate being inserted: its inputs so far, as
    // (input slot, producer's DTD id, region the flow delivers)
    type Input = (usize, usize, Option<(u64, Vec<Rect>)>);
    let mut inputs: Vec<Vec<Input>> = vec![Vec::new(); geo.num_tiles()];
    let (mut fp, mut declared) = (Footprint::default(), Footprint::default());
    let mut outs: Vec<OutputDep> = Vec::new();
    for t in 0..=cfg.iterations as i32 {
        let mut next: Vec<Vec<Input>> = vec![Vec::new(); geo.num_tiles()];
        for ty in 0..geo.tiles_y as i32 {
            for tx in 0..geo.tiles_x as i32 {
                let p = [tx, ty, t, 0];
                // DTD dependencies in slot order: the self flow, then the
                // neighbours' strips North, South, West, East
                let mut ins = std::mem::take(&mut inputs[at(tx, ty)]);
                ins.sort_unstable_by_key(|&(slot, ..)| slot);
                let deps: Vec<usize> = ins.iter().map(|&(_, id, _)| id).collect();
                fp.clear();
                class.footprint(p, &mut fp);
                // DTD declares each in-flow's delivered region on the
                // consumer's side, by dependency position
                declared.clone_from(&fp);
                declared.clear_delivered();
                for (k, (.., region)) in ins.iter().enumerate() {
                    if let Some((space, rects)) = region {
                        declared.set_delivered(k, *space, rects.iter().copied());
                    }
                }
                let id = b.insert_with_regions(
                    class.node_of(p),
                    class.cost(p),
                    class.kind(p),
                    geo.tile * 8,
                    &deps,
                    &declared,
                );
                outs.clear();
                class.outputs(p, &mut outs);
                for o in &outs {
                    let (cx, cy) = (o.consumer.params[0], o.consumer.params[1]);
                    let region = fp.delivered(o.flow).map(|(space, r)| (space, r.to_vec()));
                    next[at(cx, cy)].push((o.slot, id, region));
                }
            }
        }
        inputs = next;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use machine::MachineProfile;
    use netsim::ProcessGrid;
    use runtime::{run, RunConfig};

    fn cfg() -> StencilConfig {
        StencilConfig::new(Problem::laplace(32), 4, 6, ProcessGrid::new(2, 2))
    }

    #[test]
    fn dtd_program_analyzes_clean() {
        analyze::assert_clean(&build_base_dtd(&cfg()));
    }

    #[test]
    fn dtd_and_ptg_send_the_same_messages() {
        let c = cfg();
        let sim = RunConfig::simulated(MachineProfile::nacl(), 4);
        let ptg = run(&build_base(&c, false).program, &sim);
        let dtd = run(&build_base_dtd(&c), &sim);
        assert_eq!(ptg.remote_messages(), dtd.remote_messages());
        assert_eq!(ptg.remote_bytes(), dtd.remote_bytes());
        assert_eq!(ptg.tasks_executed, dtd.tasks_executed);
    }

    #[test]
    fn dtd_and_ptg_makespans_agree() {
        // identical task costs and dependencies => virtually identical
        // schedules (byte accounting differs only on local self-flows)
        let c = cfg();
        let sim = RunConfig::simulated(MachineProfile::nacl(), 4);
        let ptg = run(&build_base(&c, false).program, &sim).makespan;
        let dtd = run(&build_base_dtd(&c), &sim).makespan;
        let gap = (ptg - dtd).abs() / ptg;
        assert!(gap < 0.05, "PTG {ptg} vs DTD {dtd}");
    }
}
