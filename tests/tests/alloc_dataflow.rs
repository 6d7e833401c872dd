//! The allocation ledger of the static analyses and the what-if replay.
//!
//! A counting global allocator measures `analyze::analyze_dag` and
//! `insight::WhatIf::rank` over the `tooling_lint_doctor` programs: n
//! 6912, tile 288, 20 sweeps, 4 × 4 nodes, s = 5, 12 096 tasks. Divided
//! by the task count, the allocations must stay within each case's
//! ledger:
//!
//! * the steady-state dataflow pass (races off) on the CA DAG, 43 776
//!   edges: 0.28 measured. Every task declares its footprint into one
//!   reused scratch, which `analyze` copies into one flat table, and the
//!   sweep reuses its sets and scratch; what is left is that table's and
//!   the pass's per-space sets and vectors growing. Footprint methods
//!   that returned a fresh vector per region (one read region per task,
//!   one delivered region per edge) read 4.06; before that, a per-task
//!   `HashMap` clone of the state, a `Vec` per rectangle subtraction and
//!   a per-task edge-hash buffer read 52.95.
//! * the race pass alone, as `AnalyzeConfig::new()` and `assert_clean`
//!   run it, on the CA DAG and on the DTD front-end's DAG: 50 allocations
//!   each, 0.0041 per task. The table keeps only the writes, the race
//!   pass groups them in one flat vector, and the DTD class copies each
//!   stored footprint into the warmed scratch without allocating.
//! * what-if on the CA run's trace: `rank` over the benchmark's five
//!   scenarios, six replays through the simulator's model, within 0.03
//!   allocations per task per replay. Every allocation is per replay
//!   (tables, queues and the event heap growing); a boxed task per
//!   ready event would read at least 1.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside it in this binary.

use analyze::{AnalyzeConfig, DataflowMode};
use ca_stencil::{build_base_dtd, build_ca, Problem, StencilConfig, KIND_BOUNDARY, KIND_INTERIOR};
use insight::{Perturbation, WhatIf};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{Program, RunConfig, UnfoldedDag};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations per task each analysis may make: 0.28, and 50 of
/// 12 096 tasks (0.0041) for each races-only case, measured, plus 10 %.
const LEDGER_CA_DATAFLOW: f64 = 0.31;
const LEDGER_CA_RACES: f64 = 0.0046;
const LEDGER_DTD_RACES: f64 = 0.0046;
/// Heap allocations per task per what-if replay.
const LEDGER_WHATIF_REPLAY: f64 = 0.03;

/// The system allocator, counting every request for new or regrown memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn dataflow_allocations_per_task_stay_within_the_ledger() {
    let cfg =
        StencilConfig::new(Problem::laplace(6912), 288, 20, ProcessGrid::new(4, 4)).with_steps(5);
    let dataflow = AnalyzeConfig::new()
        .without_races()
        .with_dataflow(DataflowMode::SteadyState);
    let races = AnalyzeConfig::new();
    let (ca, dtd) = (build_ca(&cfg, false).program, build_base_dtd(&cfg));
    // (case, program, analysis, its steady-state period, ledger)
    let cases: [(&str, &Program, &AnalyzeConfig, Option<usize>, f64); 3] = [
        ("ca dataflow", &ca, &dataflow, Some(5), LEDGER_CA_DATAFLOW),
        ("ca races", &ca, &races, None, LEDGER_CA_RACES),
        ("dtd races", &dtd, &races, None, LEDGER_DTD_RACES),
    ];
    let mut over = Vec::new();
    for (case, program, config, period, ledger) in cases {
        let dag = analyze::unfold(program, config);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let analysis = analyze::analyze_dag(&dag, config);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(analysis.is_clean(), "{case}: {}", analysis.report());
        assert_eq!(analysis.dataflow.and_then(|d| d.period), period, "{case}");
        let per_task = allocations as f64 / dag.len() as f64;
        println!(
            "{case}: {allocations} allocations over {} tasks: {per_task:.3} per task",
            dag.len()
        );
        if per_task > ledger {
            over.push(format!("{case}: {per_task:.3} > ledger {ledger}"));
        }
    }

    let profile = MachineProfile::nacl();
    let nodes = cfg.grid.nodes();
    let run = RunConfig::simulated(profile.clone(), nodes).with_trace();
    let trace = runtime::run(&ca, &run).trace.expect("traced run");
    let dag = UnfoldedDag::enumerate(&ca);
    let whatif = WhatIf::new(&trace, &dag, &profile, nodes);
    let kernel = |kind| vec![Perturbation::TaskKind { kind, factor: 0.7 }];
    let link = |bandwidth, latency| vec![Perturbation::Link { bandwidth, latency }];
    let injection = (0..nodes).map(|node| Perturbation::Injection { node, factor: 0.5 });
    let scenarios = [
        ("boundary kernel".to_string(), kernel(KIND_BOUNDARY)),
        ("interior kernel".to_string(), kernel(KIND_INTERIOR)),
        ("bandwidth".to_string(), link(2.0, 1.0)),
        ("latency".to_string(), link(1.0, 0.5)),
        ("injection".to_string(), injection.collect()),
    ];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ranked = whatif.rank(&scenarios);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(ranked.len(), scenarios.len());
    // The baseline and one replay per scenario.
    let replays = scenarios.len() + 1;
    let per_task = allocations as f64 / replays as f64 / dag.len() as f64;
    println!(
        "what-if: {allocations} allocations over {replays} replays of {} tasks: \
         {per_task:.4} per task per replay",
        dag.len()
    );
    if per_task > LEDGER_WHATIF_REPLAY {
        over.push(format!(
            "what-if: {per_task:.4} > ledger {LEDGER_WHATIF_REPLAY}"
        ));
    }
    assert!(over.is_empty(), "over the allocation ledger: {over:?}");
}
