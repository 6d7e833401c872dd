//! The allocation ledger of the static analyses.
//!
//! A counting global allocator measures `analyze::analyze_dag` over the
//! `tooling_lint_doctor` programs: n 6912, tile 288, 20 sweeps, 4 × 4
//! nodes, s = 5, 12 096 tasks. Divided by the task count, the
//! allocations must stay within each case's ledger (its measured figure
//! plus 10 %):
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
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside it in this binary.

use analyze::{AnalyzeConfig, DataflowMode};
use ca_stencil::{build_base_dtd, build_ca, Problem, StencilConfig};
use netsim::ProcessGrid;
use runtime::Program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations per task each analysis may make: 0.28, and 50 of
/// 12 096 tasks (0.0041) for each races-only case, measured, plus 10 %.
const LEDGER_CA_DATAFLOW: f64 = 0.31;
const LEDGER_CA_RACES: f64 = 0.0046;
const LEDGER_DTD_RACES: f64 = 0.0046;

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
    assert!(over.is_empty(), "over the allocation ledger: {over:?}");
}
