//! `stencil-whatif`: rank "what to optimize next" by causal replay, and
//! hold the replay to the simulator to the nanosecond.
//!
//! Traces the base scheme on the deterministic simulated executor, builds
//! an [`insight::WhatIf`] replay of the realized DAG, and predicts the
//! end-to-end makespan under a portfolio of perturbations (faster
//! kernels, 2× bandwidth, half latency, half injection rate). Every
//! scenario is also re-run on the simulator with the change applied for
//! real; the table prints each prediction beside its re-run.
//!
//! ```text
//! cargo run --release -p bench --bin stencil-whatif               # rank only
//! cargo run --release -p bench --bin stencil-whatif -- --baseline # write BENCH_whatif.json
//! cargo run --release -p bench --bin stencil-whatif -- --check    # diff against it; exit 1 on drift
//! ```
//!
//! `--check` fails when any makespan drifts more than 2 % from the
//! committed file (the runs are deterministic), or when the baseline
//! replay differs from the traced run, or any prediction from its re-run,
//! by a single nanosecond. `--file <path>` overrides the baseline
//! location; the run parameters (`--n --tile --iters --grid --ratio`) are
//! recorded in the file and compared verbatim.

use bench::exp_whatif::{self, WhatIfConfig};
use bench::report::{self, BaselineMode};

struct Args {
    wc: WhatIfConfig,
    mode: BaselineMode,
    file: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        wc: WhatIfConfig::default(),
        mode: BaselineMode::Off,
        file: "BENCH_whatif.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value after {flag}"))
        };
        match flag.as_str() {
            "--n" => args.wc.n = value().parse().expect("--n takes an integer"),
            "--tile" => args.wc.tile = value().parse().expect("--tile takes an integer"),
            "--iters" => args.wc.iters = value().parse().expect("--iters takes an integer"),
            "--grid" => args.wc.grid = value().parse().expect("--grid takes an integer"),
            "--ratio" => args.wc.ratio = value().parse().expect("--ratio takes a float"),
            "--file" => args.file = value(),
            "--baseline" => args.mode = BaselineMode::Write,
            "--check" => args.mode = BaselineMode::Check,
            other => {
                eprintln!(
                    "unknown flag {other}; flags: --n --tile --iters --grid --ratio \
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
    let run = exp_whatif::run(&args.wc);
    exp_whatif::print(&run);
    report::baseline_gate(
        args.mode,
        &args.file,
        &run.baseline(),
        |_| exp_whatif::BAND,
        run.disagreements(),
    );
}
