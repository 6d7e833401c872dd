//! The memory ledger of the static unfolder.
//!
//! A counting global allocator tracks live heap bytes and their high-water
//! mark; the peak reached while `UnfoldedDag::enumerate` runs, above what
//! was live when it started, is its footprint: the returned tasks and
//! edges plus every transient index and scratch buffer. A reallocation
//! counts the new block before the old one is freed, as a moving copy
//! holds both. Divided by the task count, it must stay within the ledger
//! for the base and CA schemes at the `tooling_lint_doctor` and
//! `sim_nacl16` benchmark sizes. A hash table keyed by task and one by
//! (task, slot) read 501 B/task at the first; 40-byte edges read 357 and
//! 492 B/task at the two.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside it in this binary.

use ca_stencil::{build_base, build_ca, Problem, StencilConfig};
use netsim::ProcessGrid;
use runtime::{Program, UnfoldedDag};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Peak heap bytes per enumerated task the unfolder may reach.
const LEDGER_BYTES_PER_TASK: f64 = 240.0;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, tracking live bytes and their peak.
struct Tracking;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Peak heap bytes per task of enumerating `program` (built outside the
/// measured region).
fn peak_bytes_per_task(program: &Program) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let dag = UnfoldedDag::enumerate(program);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(dag.is_consistent(), "{:?}", dag.faults);
    assert_eq!(dag.len() as u64, program.total_tasks);
    peak as f64 / dag.len() as f64
}

#[test]
fn unfold_peak_heap_per_task_stays_within_the_ledger() {
    // Both on a 4 × 4 node grid with tiles of 288 and 20 sweeps: the
    // tooling_lint_doctor configuration (24 × 24 tiles, s = 5, 12 096 tasks
    // per scheme) and the sim_nacl16 one (80 × 80 tiles, s = 15, 134 400).
    let sizes = [(6912, 5), (23_040, 15)];
    let mut over = Vec::new();
    for (n, steps) in sizes {
        let cfg = StencilConfig::new(Problem::laplace(n), 288, 20, ProcessGrid::new(4, 4))
            .with_steps(steps);
        let schemes: [(&str, Program); 2] = [
            ("base", build_base(&cfg, false).program),
            ("ca", build_ca(&cfg, false).program),
        ];
        for (scheme, program) in &schemes {
            let per_task = peak_bytes_per_task(program);
            println!("n {n:>5} {scheme:>4}: {per_task:6.1} peak heap bytes per task");
            if per_task > LEDGER_BYTES_PER_TASK {
                over.push(format!(
                    "n {n} {scheme}: {per_task:.1} > {LEDGER_BYTES_PER_TASK}"
                ));
            }
        }
    }
    assert!(over.is_empty(), "over the unfold memory ledger: {over:?}");
}
