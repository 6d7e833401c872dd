//! The allocation ledger of the region-dataflow pass.
//!
//! A counting global allocator measures `analyze::analyze_dag` with the
//! steady-state dataflow pass on (races off) over the `tooling_lint_doctor`
//! CA DAG: 12 096 tasks, 43 776 edges, n 6912, tile 288, 20 sweeps, 4 × 4
//! nodes, s = 5. Divided by the task count, the allocations must stay
//! within the ledger (0.28 measured, plus 10 %). Every task declares its
//! footprint into one reused scratch, which `analyze` copies into one flat
//! table, and the sweep reuses its sets and scratch; what is left is that
//! table's and the pass's per-space sets and vectors growing. Footprint
//! methods that returned a fresh vector per region (one read region per
//! task, one delivered region per edge) read 4.06; before that, a
//! per-task `HashMap` clone of the state, a `Vec` per rectangle
//! subtraction and a per-task edge-hash buffer read 52.95.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside it in this binary.

use analyze::{AnalyzeConfig, DataflowMode};
use ca_stencil::{build_ca, Problem, StencilConfig};
use netsim::ProcessGrid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations per task the dataflow analysis may make.
const LEDGER_ALLOCS_PER_TASK: f64 = 0.31;

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
    let program = build_ca(&cfg, false).program;
    let lint = AnalyzeConfig::new()
        .without_races()
        .with_dataflow(DataflowMode::SteadyState);
    let dag = analyze::unfold(&program, &lint);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let analysis = analyze::analyze_dag(&dag, &lint);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(analysis.is_clean(), "{}", analysis.report());
    assert_eq!(analysis.dataflow.map(|d| d.period), Some(Some(5)));
    let per_task = allocations as f64 / dag.len() as f64;
    println!(
        "{allocations} allocations over {} tasks: {per_task:.2} per task",
        dag.len()
    );
    assert!(
        per_task <= LEDGER_ALLOCS_PER_TASK,
        "{per_task:.2} allocations per task > ledger {LEDGER_ALLOCS_PER_TASK}"
    );
}
