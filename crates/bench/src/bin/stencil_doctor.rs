//! `stencil-doctor`: diagnose a stencil run and manage the bench
//! regression baseline.
//!
//! Runs base and CA on the deterministic simulated executor, joins the
//! trace back to the statically unfolded task graph, and prints: idle-gap
//! attribution (comm-wait / dependency-wait / starvation), per-kind
//! duration percentiles, the realized critical path against the static
//! makespan lower bound, and a step-size recommendation.
//!
//! ```text
//! cargo run --release -p bench --bin stencil-doctor              # diagnose only
//! cargo run --release -p bench --bin stencil-doctor -- --baseline  # write BENCH_stencil.json
//! cargo run --release -p bench --bin stencil-doctor -- --check     # diff against it; exit 1 on drift
//! ```
//!
//! `--file <path>` overrides the baseline location; the run parameters
//! (`--n --tile --iters --steps --grid --ratio`) default to the committed
//! baseline configuration and are recorded in the file, so a check
//! against a baseline from different parameters fails loudly instead of
//! comparing apples to oranges.

use bench::exp_doctor::{self, DoctorConfig};
use bench::report::{self, BaselineMode};

struct Args {
    dc: DoctorConfig,
    mode: BaselineMode,
    file: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        dc: DoctorConfig::default(),
        mode: BaselineMode::Off,
        file: "BENCH_stencil.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {flag}"))
        };
        match flag.as_str() {
            "--n" => args.dc.n = value().parse().expect("--n takes an integer"),
            "--tile" => args.dc.tile = value().parse().expect("--tile takes an integer"),
            "--iters" => args.dc.iters = value().parse().expect("--iters takes an integer"),
            "--steps" => args.dc.steps = value().parse().expect("--steps takes an integer"),
            "--grid" => args.dc.grid = value().parse().expect("--grid takes an integer"),
            "--ratio" => args.dc.ratio = value().parse().expect("--ratio takes a float"),
            "--file" => args.file = value(),
            "--baseline" => args.mode = BaselineMode::Write,
            "--check" => args.mode = BaselineMode::Check,
            other => {
                eprintln!(
                    "unknown flag {other}; flags: --n --tile --iters --steps --grid --ratio \
                     --baseline --check --file <path>"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let run = exp_doctor::run(&args.dc);
    exp_doctor::print(&run);
    let Some(committed) = report::baseline_gate(
        args.mode,
        &args.file,
        &run.baseline(),
        exp_doctor::band,
        Vec::new(),
    ) else {
        return;
    };

    // The work-stealing occupancy gate: a real shared-memory run (kernel
    // bodies on) must keep its lanes busier than every committed
    // *simulated* occupancy — the executor's dispatch loop is not allowed
    // to idle lanes the simulator fills. Best of a few probes: wall-clock
    // occupancy is load-noisy.
    let worst = committed
        .scalars
        .iter()
        .filter(|(key, _)| key.ends_with(".occupancy"))
        .map(|(_, &v)| v)
        .fold(0.0f64, f64::max);
    let real = exp_doctor::probe_occupancy_above(worst, exp_doctor::OCCUPANCY_PROBE_ATTEMPTS);
    println!(
        "real shared-memory probe ({} workers): occupancy {:.4} · \
         {} steals · {} failed sweeps · {} overflow spills",
        real.threads, real.occupancy, real.steals, real.steal_fails, real.overflow_pushes
    );
    println!("{}", real.starvation.render());
    if real.occupancy > worst {
        println!(
            "occupancy gate OK: real {:.4} > committed simulated max {:.4}",
            real.occupancy, worst
        );
    } else {
        eprintln!(
            "occupancy gate FAILED: real {:.4} <= committed simulated max {:.4}",
            real.occupancy, worst
        );
        std::process::exit(1);
    }
}
