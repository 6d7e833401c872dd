//! `stencil-lint`: run the static task-graph verifier over every scheme's
//! program for one stencil configuration and print what it proves.
//!
//! For each of base, CA (PA1) and the DTD front-end, the [`analyze`]
//! crate unfolds the parameterized task graph and checks structural
//! consistency, deadlock freedom and write-race freedom, then reports the
//! static communication volume, the redundant flops, and the critical-path
//! makespan lower bound. With `--dataflow` it additionally runs the
//! region-dataflow pass: a halo-coverage proof over every declared read
//! footprint, and dead-transfer detection (bytes on the wire no read ever
//! touches). Exit code 1 if any diagnostic fires.
//!
//! ```text
//! cargo run -p bench --bin stencil-lint -- --n 256 --tile 32 --iters 20 --steps 8 --grid 2 \
//!     --dataflow --steady-state
//! ```
//!
//! Flags beyond the geometry:
//!
//! * `--dataflow` — enable the region-dataflow checks.
//! * `--steady-state` — verify prologue + one period instead of sweeping
//!   the full unfolded DAG (prints the detected period).
//! * `--check` — quiet mode for CI: print one line per scheme.
//! * `--mutate-ca` — lint the deliberately halo-shrunk CA build; the run
//!   is then expected to exit 1 with an uncovered-read witness.

use bench::lint::{lint_schemes, LintOptions};
use ca_stencil::{Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;

struct Args {
    n: usize,
    tile: usize,
    iters: u32,
    steps: usize,
    grid: u32,
    dataflow: bool,
    steady_state: bool,
    check: bool,
    mutate_ca: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 256,
        tile: 32,
        iters: 20,
        steps: 8,
        grid: 2,
        dataflow: false,
        steady_state: false,
        check: false,
        mutate_ca: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {flag}"))
        };
        match flag.as_str() {
            "--n" => args.n = value().parse().expect("--n takes an integer"),
            "--tile" => args.tile = value().parse().expect("--tile takes an integer"),
            "--iters" => args.iters = value().parse().expect("--iters takes an integer"),
            "--steps" => args.steps = value().parse().expect("--steps takes an integer"),
            "--grid" => args.grid = value().parse().expect("--grid takes an integer"),
            "--dataflow" => args.dataflow = true,
            "--steady-state" => args.steady_state = true,
            "--check" => args.check = true,
            "--mutate-ca" => {
                args.mutate_ca = true;
                args.dataflow = true;
            }
            other => {
                eprintln!(
                    "unknown flag {other}; flags: --n --tile --iters --steps --grid \
                     --dataflow --steady-state --check --mutate-ca"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let a = parse_args();
    let cfg = StencilConfig::new(
        Problem::laplace(a.n),
        a.tile,
        a.iters,
        ProcessGrid::new(a.grid, a.grid),
    )
    .with_steps(a.steps);
    let profile = MachineProfile::nacl();
    let opts = LintOptions {
        dataflow: a.dataflow,
        steady_state: a.steady_state,
        lanes: profile.compute_threads(),
        mutate_ca: a.mutate_ca,
    };
    if !a.check {
        println!(
            "stencil-lint: n={} tile={} iters={} steps={} grid={}x{} (lanes/node={})",
            a.n, a.tile, a.iters, a.steps, a.grid, a.grid, opts.lanes
        );
    }

    let lints = lint_schemes(&cfg, &opts);

    if !a.check {
        println!(
            "{:>6} {:>9} {:>9} {:>10} {:>12} {:>12} {:>11} {:>12} {:>9} {:>6}",
            "scheme",
            "tasks",
            "edges",
            "msgs",
            "bytes",
            "red flops",
            "crit path",
            "dead bytes",
            "period",
            "diags"
        );
    }
    let mut dirty = false;
    for lint in &lints {
        let analysis = &lint.analysis;
        let cp = analysis
            .path
            .as_ref()
            .map(|p| p.critical_path)
            .unwrap_or(f64::NAN);
        let (dead, period) = analysis
            .dataflow
            .as_ref()
            .map(|d| {
                let period = match d.period {
                    Some(p) => format!("{}+{}", d.prologue, p),
                    None => "full".to_string(),
                };
                (d.dead_bytes.to_string(), period)
            })
            .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
        if a.check {
            println!(
                "{}: {} diagnostic(s), dead bytes {}, period {}",
                lint.name,
                analysis.diagnostics.len(),
                dead,
                period
            );
        } else {
            println!(
                "{:>6} {:>9} {:>9} {:>10} {:>12} {:>12} {:>10.4}s {:>12} {:>9} {:>6}",
                lint.name,
                analysis.tasks,
                analysis.edges,
                analysis.comm.cross_messages,
                analysis.comm.cross_bytes,
                analysis.flops.redundant,
                cp,
                dead,
                period,
                analysis.diagnostics.len(),
            );
        }
        if !lint.is_clean() {
            dirty = true;
            for d in &lint.deduped {
                let kind = d.kind.map(|k| format!(" kind {k}")).unwrap_or_default();
                println!(
                    "{}: [{}{}] x{}: {}",
                    lint.name, d.check, kind, d.count, d.example
                );
            }
        }
    }
    if dirty {
        std::process::exit(1);
    }
    println!("all schemes clean");
}
