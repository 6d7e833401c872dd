//! The end-to-end correctness story: every execution path — sequential
//! reference, SpMV baseline, base dataflow, CA dataflow, on both executors
//! — computes the same field.

use ca_stencil::{build_base, build_base_dtd, build_ca, jacobi_reference, max_abs_diff};
use integration::scrambled_config;
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, Program, RunConfig, UnfoldedDag};
use spmv::run_distributed;

#[test]
fn all_five_paths_agree() {
    let cfg = scrambled_config(24, 4, 8, ProcessGrid::new(2, 2), 3, 99);
    let reference = jacobi_reference(&cfg.problem, 8);

    // SpMV baseline (rounding-level agreement: different accumulation order)
    let (spmv_field, _) = run_distributed(&cfg.problem, 6, 8);
    assert!(max_abs_diff(&spmv_field, &reference) < 1e-13);

    // base, real executor
    let b = build_base(&cfg, true);
    run(&b.program, &RunConfig::shared_memory(3));
    assert_eq!(max_abs_diff(&b.store.unwrap().gather(), &reference), 0.0);

    // base, simulated executor
    let b = build_base(&cfg, true);
    run(
        &b.program,
        &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
    );
    assert_eq!(max_abs_diff(&b.store.unwrap().gather(), &reference), 0.0);

    // CA, real executor
    let c = build_ca(&cfg, true);
    run(&c.program, &RunConfig::shared_memory(3));
    assert_eq!(max_abs_diff(&c.store.unwrap().gather(), &reference), 0.0);

    // CA, simulated executor
    let c = build_ca(&cfg, true);
    run(
        &c.program,
        &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
    );
    assert_eq!(max_abs_diff(&c.store.unwrap().gather(), &reference), 0.0);
}

/// Every scheme × engine × policy cell computes the reference field
/// bit for bit; the `Priority` runs drive the mutex-guarded priority
/// lanes of the threaded engine.
#[test]
fn scheduler_policies_do_not_change_numerics() {
    use runtime::SchedulerPolicy;
    let cfg = scrambled_config(16, 4, 6, ProcessGrid::new(2, 2), 2, 5);
    let reference = jacobi_reference(&cfg.problem, 6);
    let engines = [
        RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
        RunConfig::shared_memory(3),
        RunConfig::multi_process(4, 2),
    ];
    for scheme in ["base", "ca"] {
        for engine in &engines {
            for policy in [
                SchedulerPolicy::Fifo,
                SchedulerPolicy::Lifo,
                SchedulerPolicy::Priority,
            ] {
                let b = match scheme {
                    "base" => build_base(&cfg, true),
                    _ => build_ca(&cfg, true),
                };
                run(&b.program, &engine.clone().with_scheduler(policy));
                assert_eq!(
                    max_abs_diff(&b.store.unwrap().gather(), &reference),
                    0.0,
                    "{scheme} on {:?} ({} nodes) under {policy:?}",
                    engine.mode,
                    engine.nodes
                );
            }
        }
    }
}

#[test]
fn node_count_does_not_change_numerics() {
    for (grid, nodes) in [
        (ProcessGrid::new(1, 1), 1u32),
        (ProcessGrid::new(2, 2), 4),
        (ProcessGrid::new(4, 4), 16),
    ] {
        let cfg = scrambled_config(32, 4, 5, grid, 2, 31);
        let reference = jacobi_reference(&cfg.problem, 5);
        let c = build_ca(&cfg, true);
        run(
            &c.program,
            &RunConfig::simulated(MachineProfile::nacl(), nodes).with_bodies(),
        );
        assert_eq!(
            max_abs_diff(&c.store.unwrap().gather(), &reference),
            0.0,
            "{nodes} nodes"
        );
    }
}

/// A one-node threaded run is the shared-memory engine: programs built for
/// a 2 × 2 process grid run on `multi_process(1, 2)` with every flow kept
/// in the one address space. Base and CA carry tile data and must match
/// the reference bit for bit; DTD is a performance skeleton without
/// data, so for it (and for base and CA) the task and activation counts
/// must equal both `shared_memory(2)`'s and the unfolded DAG's.
#[test]
fn one_node_runs_are_the_shared_memory_engine() {
    let cfg = scrambled_config(32, 8, 6, ProcessGrid::new(2, 2), 3, 17);
    let reference = jacobi_reference(&cfg.problem, 6);
    let counts = |program: &Program, rc: &RunConfig| {
        let r = run(program, rc);
        (
            r.counter(obs::names::TASKS_EXECUTED),
            r.counter(obs::names::ACTIVATIONS),
        )
    };
    let (base, ca) = (build_base(&cfg, true), build_ca(&cfg, true));
    for (name, program, store) in [
        ("base", base.program, base.store),
        ("ca", ca.program, ca.store),
        ("dtd", build_base_dtd(&cfg), None),
    ] {
        let one_node = counts(&program, &RunConfig::multi_process(1, 2));
        if let Some(store) = store {
            assert_eq!(max_abs_diff(&store.gather(), &reference), 0.0, "{name}");
        }
        let dag = UnfoldedDag::enumerate(&program);
        assert_eq!(
            one_node,
            (dag.len() as u64, dag.edges.len() as u64),
            "{name}"
        );
        assert_eq!(
            one_node,
            counts(&program, &RunConfig::shared_memory(2)),
            "{name}"
        );
    }
}

#[test]
fn machine_profile_does_not_change_numerics() {
    // cost models change timing, never values
    for profile in [
        MachineProfile::nacl(),
        MachineProfile::stampede2(),
        MachineProfile::slow_network(),
    ] {
        let cfg =
            scrambled_config(16, 4, 7, ProcessGrid::new(2, 2), 3, 8).with_profile(profile.clone());
        let reference = jacobi_reference(&cfg.problem, 7);
        let c = build_ca(&cfg, true);
        run(&c.program, &RunConfig::simulated(profile, 4).with_bodies());
        assert_eq!(max_abs_diff(&c.store.unwrap().gather(), &reference), 0.0);
    }
}

/// Home-lane dispatch (`TaskClass::home`) queues every stencil task on the
/// worker that owns its tile; it may move work between cores, never a
/// bit. Every scheme × policy × worker count runs, on a 12 × 12-tile
/// grid, on a grid with fewer tile rows than lanes (2 × 2 tiles on up to
/// 4 workers) and on a program placed for a 2 × 2 node grid but run on
/// one node. Base and CA carry data and match the reference bit for bit.
#[test]
fn home_lane_dispatch_keeps_every_scheme_bitwise() {
    use runtime::SchedulerPolicy;
    for (n, tile, grid) in [
        (48, 4, ProcessGrid::new(1, 1)),
        (32, 16, ProcessGrid::new(1, 1)),
        (32, 4, ProcessGrid::new(2, 2)),
    ] {
        let cfg = scrambled_config(n, tile, 5, grid, 2, 23);
        let reference = jacobi_reference(&cfg.problem, 5);
        for workers in [2, 3, 4] {
            for policy in [
                SchedulerPolicy::Fifo,
                SchedulerPolicy::Lifo,
                SchedulerPolicy::Priority,
            ] {
                let rc = RunConfig::shared_memory(workers).with_scheduler(policy);
                let cell = format!("n = {n}, tile {tile}, {workers} workers, {policy:?}");
                for (scheme, build) in [("base", build_base as fn(_, _) -> _), ("ca", build_ca)] {
                    let b = build(&cfg, true);
                    run(&b.program, &rc);
                    let field = b.store.unwrap().gather();
                    assert_eq!(max_abs_diff(&field, &reference), 0.0, "{scheme}, {cell}");
                }
            }
        }
    }
}
