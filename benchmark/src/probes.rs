//! Layer probes: each times one layer in isolation through its public
//! calls, so a per-layer number has a bound to stand against (the kernel
//! without a runtime, dispatch without a kernel, the event loop without a
//! model). A probe reports the median of its repetitions, except where it
//! is a bound for a run time, which is a fastest-of-N.

use crate::stats::{fastest, median, metg50};
use ca_stencil::{
    build_base, Corner, Extents, Problem, Side, StencilConfig, StencilGeometry, TileBuf, Weights,
};
use netsim::ProcessGrid;
use runtime::{run, DtdBuilder, Program, RunConfig};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Repetitions of a probe that runs whole programs.
const REPS: usize = 9;

/// Seconds of each of `reps` calls of `f`.
fn time_calls(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let clock = Instant::now();
            f();
            clock.elapsed().as_secs_f64()
        })
        .collect()
}

fn median_secs(reps: usize, f: impl FnMut()) -> f64 {
    median(&time_calls(reps, f))
}

fn fastest_secs(reps: usize, f: impl FnMut()) -> f64 {
    fastest(&time_calls(reps, f))
}

/// Median nanoseconds per call of `f`, over batches of about a
/// millisecond each for `budget`.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let clock = Instant::now();
    let mut calls = 0u32;
    while clock.elapsed() < Duration::from_millis(1) {
        f();
        calls += 1;
    }
    let mut samples = Vec::new();
    while clock.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(batch.elapsed().as_nanos() as f64 / f64::from(calls));
    }
    median(&samples)
}

/// A tile filled with bounded, varied values (so no sweep runs on zeros
/// or drifts into denormals).
fn probe_tile(tile: usize, ghost: usize) -> TileBuf {
    let mut buf = TileBuf::new(tile, ghost);
    buf.fill_both(|r, c| ((r * 31 + c * 17) & 255) as f64 / 256.0);
    buf
}

/// The CA scheme's update extents for tile `(tx, ty)` at iteration
/// `t ≥ 1` (`core::ca`'s trapezoid: `s − 1 − phase` towards every side
/// that has a neighbour, on node-boundary tiles only).
pub fn ca_extents(geo: &StencilGeometry, steps: usize, tx: usize, ty: usize, t: u32) -> Extents {
    if !geo.is_node_boundary(tx, ty) {
        return Extents::ZERO;
    }
    let e = steps - 1 - (t as usize - 1) % steps;
    let on = |side| {
        if geo.neighbor(tx, ty, side).is_some() {
            e
        } else {
            0
        }
    };
    Extents {
        north: on(Side::North),
        south: on(Side::South),
        west: on(Side::West),
        east: on(Side::East),
    }
}

/// The zero-overhead bound of a real-engine solve: the solve's exact
/// kernel calls — same tiles, ghost widths, sweeps, extents and working
/// set — on bare threads with a static split and no runtime, no strips
/// and no synchronisation between sweeps. `ca_steps` is `Some(s)` for the
/// CA scheme. Returns (median seconds, points updated per solve).
pub fn kernel_only(
    geo: &StencilGeometry,
    iters: u32,
    ca_steps: Option<usize>,
    workers_per_node: usize,
) -> (f64, u64) {
    let w = Weights::skewed();
    let nodes = geo.grid.p * geo.grid.q;
    // Tiles of each node, dealt round-robin to that node's workers.
    let mut shares: Vec<Vec<(usize, usize, TileBuf)>> = (0..nodes as usize * workers_per_node)
        .map(|_| Vec::new())
        .collect();
    let mut dealt = vec![0usize; nodes as usize];
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            let node = geo.node_of_tile(tx, ty) as usize;
            let ghost = match ca_steps {
                Some(s) if geo.is_node_boundary(tx, ty) => s,
                _ => 1,
            };
            let worker = node * workers_per_node + dealt[node] % workers_per_node;
            dealt[node] += 1;
            shares[worker].push((tx, ty, probe_tile(geo.tile, ghost)));
        }
    }
    let extents = |tx, ty, t| match ca_steps {
        Some(s) => ca_extents(geo, s, tx, ty, t),
        None => Extents::ZERO,
    };
    let mut points = 0u64;
    for share in &shares {
        for &(tx, ty, _) in share {
            for t in 1..=iters {
                points += extents(tx, ty, t).region_points(geo.tile) as u64;
            }
        }
    }
    // Fastest of five, like the run time it is set against.
    let secs = fastest_secs(5, || {
        let gate = Barrier::new(shares.len() + 1);
        std::thread::scope(|scope| {
            for share in shares.iter_mut() {
                let (gate, extents, w) = (&gate, &extents, &w);
                scope.spawn(move || {
                    gate.wait();
                    for t in 1..=iters {
                        for (tx, ty, buf) in share.iter_mut() {
                            buf.jacobi_step(w, extents(*tx, *ty, t));
                        }
                    }
                });
            }
            gate.wait();
        });
    });
    (secs, points)
}

/// GFLOP/s of `jacobi_step` on one cache-resident tile on one thread: the
/// in-cache rate, to set beside the streaming rate.
pub fn cached_gflops(tile: usize) -> f64 {
    let w = Weights::skewed();
    let mut buf = probe_tile(tile, 1);
    let ns = ns_per_call(Duration::from_millis(200), || {
        buf.jacobi_step(&w, Extents::ZERO)
    });
    black_box(buf.get(0, 0));
    9.0 * (tile * tile) as f64 / ns
}

/// GFLOP/s (updated points × 9) of one boundary tile swept over the CA
/// cycle's `s` shrinking extents.
pub fn ca_extent_gflops(tile: usize, steps: usize) -> f64 {
    let w = Weights::skewed();
    let mut buf = probe_tile(tile, steps);
    let points: usize = (0..steps)
        .map(|e| Extents::uniform(e).region_points(tile))
        .sum();
    let ns = ns_per_call(Duration::from_millis(200), || {
        for e in (0..steps).rev() {
            buf.jacobi_step(&w, Extents::uniform(e));
        }
    });
    black_box(buf.get(0, 0));
    9.0 * points as f64 / ns
}

/// Nanoseconds for one strip hand-over at `depth`: `extract_strip` on the
/// producer plus `write_strip` on the consumer, cycling over the sides.
pub fn strip_pair_ns(tile: usize, depth: usize) -> f64 {
    let from = probe_tile(tile, depth);
    let mut to = probe_tile(tile, depth);
    let mut side = 0;
    let ns = ns_per_call(Duration::from_millis(100), || {
        let s = Side::ALL[side % 4];
        side += 1;
        let strip = from.extract_strip(s, depth);
        to.write_strip(s.opposite(), depth, black_box(&strip));
    });
    black_box(to.get(0, -1));
    ns
}

/// Nanoseconds for one CA corner hand-over at `depth`.
pub fn corner_pair_ns(tile: usize, depth: usize) -> f64 {
    let from = probe_tile(tile, depth);
    let mut to = probe_tile(tile, depth);
    let mut corner = 0;
    let ns = ns_per_call(Duration::from_millis(100), || {
        let c = Corner::ALL[corner % 4];
        corner += 1;
        let block = from.extract_corner(c, depth);
        to.write_corner(c.opposite(), depth, black_box(&block));
    });
    black_box(to.get(-1, -1));
    ns
}

/// Dispatch cost with no kernel at all: nanoseconds per task of three
/// zero-body programs on the shared-memory engine (the scenarios of
/// `BENCH_runtime_overhead.json`, as medians instead of a best-of-3).
/// Returns `[chain, fan, steal_storm]`.
pub fn dispatch_ns_per_task(workers: usize) -> [f64; 3] {
    let chain = {
        let mut b = DtdBuilder::new();
        let mut prev = b.insert(0, 0.0, &[]);
        for _ in 1..10_000 {
            prev = b.insert(0, 0.0, &[prev]);
        }
        b.build()
    };
    let fan = {
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        for _ in 0..10_000 {
            b.insert(0, 0.0, &[root]);
        }
        b.build()
    };
    // Layers of one task per worker, each depending on the whole previous
    // layer: whoever completes a layer holds all successors, the others
    // progress only by stealing.
    let storm = {
        let mut b = DtdBuilder::new();
        let mut prev: Vec<_> = (0..workers).map(|_| b.insert(0, 0.0, &[])).collect();
        for _ in 1..1024 {
            prev = (0..workers).map(|_| b.insert(0, 0.0, &prev)).collect();
        }
        b.build()
    };
    let per_task = |program: &Program, threads: usize| {
        let cfg = RunConfig::shared_memory(threads);
        let secs = median_secs(REPS, || {
            let report = run(program, &cfg);
            assert_eq!(report.tasks_executed, program.total_tasks);
        });
        secs * 1e9 / program.total_tasks as f64
    };
    [
        per_task(&chain, 1),
        per_task(&fan, workers),
        per_task(&storm, workers),
    ]
}

/// Task Bench's minimum effective task granularity at 50 % efficiency, in
/// microseconds: base-scheme solves of one `n = 1024` grid on the
/// shared-memory engine at tile sizes 8 … 256 (each sized to about 8 M
/// point updates). Granularity is `run seconds × workers ÷ tasks`;
/// efficiency is the flop rate over the best rate of the sweep.
pub fn metg50_us(seed: u64, workers: usize) -> Option<f64> {
    const N: usize = 1024;
    let mut sweep = Vec::new();
    for tile in [8usize, 16, 32, 64, 128, 256] {
        let iters = if tile == 8 { 4 } else { 8 };
        let cfg = StencilConfig::new(
            Problem::scrambled(N, seed),
            tile,
            iters,
            ProcessGrid::new(1, 1),
        );
        let run_cfg = RunConfig::shared_memory(workers).with_steal_seed(seed);
        let mut secs = Vec::new();
        let mut tasks = 0;
        for _ in 0..3 {
            let build = build_base(&cfg, true);
            let clock = Instant::now();
            let report = run(&build.program, &run_cfg);
            secs.push(clock.elapsed().as_secs_f64());
            tasks = report.tasks_executed;
        }
        let secs = fastest(&secs);
        let granularity_us = secs * workers as f64 / tasks as f64 * 1e6;
        sweep.push((granularity_us, cfg.nominal_flops() / secs));
    }
    let peak = sweep.iter().map(|&(_, rate)| rate).fold(0.0, f64::max);
    let curve: Vec<(f64, f64)> = sweep.iter().map(|&(g, rate)| (g, rate / peak)).collect();
    metg50(&curve)
}

/// STREAM triad bandwidth in GB/s with arrays of at least four times the
/// last-level cache (capped so the three arrays fit a quarter of free
/// memory). Returns (GB/s, MB per array) — both sizes are stated so the
/// reader can see whether the 4 × rule held.
pub fn stream_triad(workers: usize) -> (f64, f64) {
    let llc = crate::host::llc_bytes().unwrap_or(32 << 20);
    let free = crate::host::mem_available_bytes().unwrap_or(4 << 30);
    let array_bytes = (4 * llc).min(free / 12).max(16 << 20);
    let n = (array_bytes / 8) as usize;
    let result = machine::stream::run_stream(workers, n, 1);
    let triad = result.kernel(machine::stream::StreamKernel::Triad);
    (triad / 1e3, (n * 8) as f64 / 1e6)
}

/// Events per second of the bare discrete-event loop: a million no-op
/// events through `Engine::prime` / `run`, a thousand pending at a time.
pub fn desim_events_per_s() -> f64 {
    struct Noop {
        left: u64,
    }
    impl desim::Model for Noop {
        type Event = ();
        fn handle(&mut self, _: desim::VirtualTime, _: (), sched: &mut desim::Scheduler<()>) {
            if self.left > 0 {
                self.left -= 1;
                sched.schedule_in(desim::VirtualDuration::from_nanos(1000), ());
            }
        }
    }
    const EVENTS: u64 = 1_000_000;
    const PENDING: u64 = 1000;
    let secs = median_secs(5, || {
        let mut engine = desim::Engine::new(Noop {
            left: EVENTS - PENDING,
        });
        for _ in 0..PENDING {
            engine.prime(());
        }
        engine.run();
        assert_eq!(engine.events_processed(), EVENTS);
    });
    EVENTS as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_extents_follow_the_trapezoid() {
        // 4×4 tiles over 2×1 nodes: the two middle tile rows touch the split.
        let geo = StencilGeometry::new(32, 8, ProcessGrid::new(2, 1));
        let tiles = || (0..4).flat_map(|ty| (0..4).map(move |tx| (tx, ty)));
        let (bx, by) = tiles().find(|&(x, y)| geo.is_node_boundary(x, y)).unwrap();
        let (ix, iy) = tiles().find(|&(x, y)| !geo.is_node_boundary(x, y)).unwrap();
        assert_eq!(ca_extents(&geo, 3, ix, iy, 1), Extents::ZERO);
        // phase 0 → s − 1 = 2 towards neighbours, 0 towards the domain edge
        let widest = ca_extents(&geo, 3, bx, by, 1);
        let want = |side| 2 * usize::from(geo.neighbor(bx, by, side).is_some());
        assert_eq!(widest.north, want(Side::North));
        assert_eq!(widest.south, want(Side::South));
        assert_eq!(widest.west, want(Side::West));
        assert_eq!(widest.east, want(Side::East));
        assert!(widest != Extents::ZERO);
        // phase 2 → 0, then the cycle restarts
        assert_eq!(ca_extents(&geo, 3, bx, by, 3), Extents::ZERO);
        assert_eq!(ca_extents(&geo, 3, bx, by, 4), widest);
    }

    #[test]
    fn kernel_only_counts_the_solves_points() {
        let geo = StencilGeometry::new(32, 8, ProcessGrid::new(1, 1));
        let (secs, points) = kernel_only(&geo, 3, None, 2);
        assert!(secs > 0.0);
        assert_eq!(points, 32 * 32 * 3);
        let split = StencilGeometry::new(32, 8, ProcessGrid::new(2, 1));
        let (_, ca_points) = kernel_only(&split, 3, Some(3), 1);
        assert!(ca_points > points, "CA recomputes its halo");
    }

    #[test]
    fn small_probes_return_positive_rates() {
        assert!(cached_gflops(16) > 0.0);
        assert!(ca_extent_gflops(16, 3) > 0.0);
        assert!(strip_pair_ns(16, 1) > 0.0);
        assert!(corner_pair_ns(16, 3) > 0.0);
        assert!(desim_events_per_s() > 0.0);
        assert!(dispatch_ns_per_task(2).iter().all(|&ns| ns > 0.0));
    }
}
