//! `stencil-tournament`: run every scheme × every scheduler and judge the
//! portfolio.
//!
//! For each stencil scheme (base, CA, PA2 when `s ≤ tile/2`, DTD) the
//! tournament runs the deterministic simulated executor once per
//! portfolio scheduler and prints a table of makespan, achieved/bound
//! ratio, realized-critical-path daylight, and occupancy, followed by a
//! verdict on whether any list scheduler strictly beats FIFO on the CA
//! scheme.
//!
//! ```text
//! cargo run --release -p bench --bin stencil-tournament            # full reference sweep + JSON
//! cargo run --release -p bench --bin stencil-tournament -- --check # CI gate (small sweep)
//! ```
//!
//! `--check` runs a small configuration and fails if any (scheme,
//! scheduler) cell deadlocks or undercuts the static bound. No files are
//! written in check mode. That the default policy still reproduces the
//! committed `BENCH_stencil.json` is `stencil-doctor --check`'s gate.

use bench::exp_tournament::{self, TournamentConfig};
use bench::report;

struct Args {
    tc: TournamentConfig,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        tc: TournamentConfig::default(),
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {flag}"))
        };
        match flag.as_str() {
            "--n" => args.tc.n = value().parse().expect("--n takes an integer"),
            "--tile" => args.tc.tile = value().parse().expect("--tile takes an integer"),
            "--iters" => args.tc.iters = value().parse().expect("--iters takes an integer"),
            "--steps" => args.tc.steps = value().parse().expect("--steps takes an integer"),
            "--grid" => args.tc.grid = value().parse().expect("--grid takes an integer"),
            "--ratio" => args.tc.ratio = value().parse().expect("--ratio takes a float"),
            "--check" => args.check = true,
            other => {
                eprintln!(
                    "unknown flag {other}; flags: --n --tile --iters --steps --grid --ratio --check"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.check {
        check();
        return;
    }
    let t = exp_tournament::run(&args.tc);
    exp_tournament::print(&t);
    report::write_json(report::json_path("tournament"), &t);
    report::write_metrics("tournament");
}

/// The CI gate: every cell of a small sweep completes deadlock-free and
/// within physics.
fn check() {
    let t = exp_tournament::run(&TournamentConfig::check());
    exp_tournament::print(&t);
    let mut failed = false;
    for table in &t.schemes {
        for cell in &table.cells {
            if !cell.complete() {
                eprintln!(
                    "FAIL {}/{}: {}/{} tasks executed (deadlock or dropped work)",
                    table.scheme, cell.score.scheduler, cell.tasks_executed, cell.tasks_total
                );
                failed = true;
            }
            if cell.score.bound_ratio < 1.0 - 1e-9 {
                eprintln!(
                    "FAIL {}/{}: makespan {:.6} s beats the static bound ({:.3}x)",
                    table.scheme,
                    cell.score.scheduler,
                    cell.score.makespan_s,
                    cell.score.bound_ratio
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nall {} schemes completed under every scheduler",
        t.schemes.len()
    );
}
