//! # bench — the experiment harness
//!
//! One module (and one binary) per table/figure of the paper's evaluation
//! section. Each `run(...)` returns the data and prints the same rows or
//! series the paper reports, so `cargo run --release -p bench --bin
//! fig7_strong_scaling` regenerates Figure 7, and so on.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1_stream` | Table I (STREAM, measured on this host + paper profiles) |
//! | `fig5_netpipe` | Figure 5 (NetPIPE bandwidth vs message size) |
//! | `fig6_tilesize` | Figure 6 (single-node GFLOP/s vs tile size; model at paper scale + real threaded run at host scale) |
//! | `fig7_strong_scaling` | Figure 7 (PETSc vs base vs CA speedup) |
//! | `fig8_kernel_ratio` | Figure 8 (kernel-adjustment-ratio sweep) |
//! | `fig9_stepsize` | Figure 9 (CA step-size sweep) |
//! | `fig10_trace` | Figure 10 (per-node trace, occupancy, kernel medians) |
//!
//! `stencil-doctor` is the diagnosis-and-regression harness rather than a
//! paper figure: it runs base and CA on a deterministic simulated
//! configuration, attributes every idle gap (comm-wait / dependency-wait
//! / starvation via the `insight` crate), compares the achieved makespan
//! to the static lower bound, and writes or checks the committed
//! `BENCH_stencil.json` regression baseline.
//!
//! Beyond the paper's own artifacts, `ablations` sweeps the design knobs
//! (scheduler policy, comm engines, rendezvous threshold, per-message
//! cost) and runs the paper's concluding exascale projection.
//!
//! Set `REPRO_FAST=1` to shrink iteration counts for smoke runs; the
//! defaults match the paper's parameters.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp_ablations;
pub mod exp_doctor;
pub mod exp_fig10;
pub mod exp_fig5;
pub mod exp_fig6;
pub mod exp_fig7;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_roofline;
pub mod exp_table1;
pub mod exp_top;
pub mod exp_whatif;
pub mod lint;
pub mod report;
pub mod statics;

/// The paper's per-machine experiment parameters (problem size and tile
/// size used in Figures 7–10): NaCL ran 23k at tile 288, Stampede2 55k at
/// tile 864. We use the nearest tile-divisible sizes (23 040 = 80 × 288,
/// 55 296 = 64 × 864).
pub fn paper_workload(profile: &machine::MachineProfile) -> (usize, usize) {
    match profile.name.as_str() {
        "Stampede2" => (55_296, 864),
        _ => (23_040, 288),
    }
}

/// Iteration count: the paper's 100, or 10 under `REPRO_FAST=1`.
pub fn iterations() -> u32 {
    if fast_mode() {
        10
    } else {
        100
    }
}

/// True when `REPRO_FAST=1` is set.
pub fn fast_mode() -> bool {
    std::env::var("REPRO_FAST").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_divide_by_tiles() {
        for p in [
            machine::MachineProfile::nacl(),
            machine::MachineProfile::stampede2(),
        ] {
            let (n, tile) = paper_workload(&p);
            assert_eq!(n % tile, 0);
            // and distribute over all of the paper's node grids
            let tiles = n / tile;
            for nodes in [4u32, 16, 64] {
                let side = (nodes as f64).sqrt() as usize;
                assert_eq!(tiles % side, 0, "{}: {tiles} tiles over {side}", p.name);
            }
        }
    }
}
