//! The allocation ledger of the real engines' task hot path.
//!
//! A counting global allocator measures `runtime::run` on the same scheme
//! at two iteration counts; the difference, divided by the extra tasks, is
//! the *marginal* number of heap allocations one more task costs once the
//! run is warm — set-up, thread spawning, ring buffers, hash-table growth
//! and the first wavefront's pending entries all cancel out. The steady
//! state is meant to allocate nothing: payload buffers, task boxes and
//! slot vectors are recycled, outputs go through per-worker scratch (see
//! `docs/EXECUTOR.md`). Before that work the same measurement read 25.7
//! (shared memory) and 26.5 (multi-process) allocations per task.
//!
//! One `#[test]` only: the counter is process-wide, so nothing else may
//! run beside it in this binary.

use ca_stencil::{build_base, build_ca};
use integration::scrambled_config;
use netsim::ProcessGrid;
use runtime::{run, DtdBuilder, Program, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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

/// Allocations `run` makes for `program`, and the tasks it executed.
fn allocations_of_run(program: &Program, cfg: &RunConfig) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run(program, cfg);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.tasks_executed, program.total_tasks);
    (after - before, report.tasks_executed)
}

/// Marginal allocations per task between a short and a long instance of
/// one scheme (built outside the counted region), best of three pairs so
/// a burst of steals in one run cannot decide the verdict.
fn marginal(build: &dyn Fn(u32) -> Program, cfg: &RunConfig) -> f64 {
    const SHORT: u32 = 8;
    const LONG: u32 = 32;
    (0..3)
        .map(|_| {
            let (short_allocs, short_tasks) = allocations_of_run(&build(SHORT), cfg);
            let (long_allocs, long_tasks) = allocations_of_run(&build(LONG), cfg);
            assert!(long_tasks > short_tasks);
            (long_allocs as f64 - short_allocs as f64) / (long_tasks - short_tasks) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn steady_state_allocations_per_task_stay_within_the_ledger() {
    // 16 × 16 tiles split over two nodes: the CA scheme has
    // node-boundary tiles, deep strips and corner blocks on both engines.
    let stencil = |iters: u32| scrambled_config(256, 16, iters, ProcessGrid::new(2, 1), 5, 41);
    // A chain that changes node on every hop: the multi-process engine
    // sends one message per task.
    let chain = |iters: u32| {
        let mut b = DtdBuilder::new();
        let mut prev = b.insert(0, 0.0, &[]);
        for i in 1..iters * 100 {
            prev = b.insert(i % 2, 0.0, &[prev]);
        }
        b.build()
    };
    let schemes: [(&str, &dyn Fn(u32) -> Program); 3] = [
        ("base", &|iters| build_base(&stencil(iters), true).program),
        ("ca s=5", &|iters| build_ca(&stencil(iters), true).program),
        ("dtd chain", &chain),
    ];
    let engines = [
        ("shared_memory(2)", RunConfig::shared_memory(2), 2.0),
        ("multi_process(2, 1)", RunConfig::multi_process(2, 1), 3.0),
    ];
    let mut over = Vec::new();
    for (engine, cfg, limit) in &engines {
        for (scheme, build) in &schemes {
            let per_task = marginal(build, cfg);
            println!("{engine:>20} {scheme:>10}: {per_task:6.2} allocations per extra task");
            if per_task > *limit {
                over.push(format!("{engine} {scheme}: {per_task:.2} > {limit}"));
            }
        }
    }
    assert!(over.is_empty(), "over the allocation ledger: {over:?}");
}
