//! `stencil-top`: watch a stencil run live — per-worker occupancy over
//! the last sample window, queue depths, in-flight traffic, and the
//! tracer's own overhead — refreshed in place like `top`.
//!
//! ```text
//! cargo run --release -p bench --bin stencil-top              # live view of a shared-memory run
//! cargo run --release -p bench --bin stencil-top -- --once    # one frame of the reference sim; exit 1 over budget
//! cargo run --release -p bench --bin stencil-top -- --refresh-ms 100
//! ```
//!
//! `--once` is the CI smoke wired into `ci.sh`: it runs the
//! `stencil-doctor` reference workload on the deterministic simulator
//! with live telemetry, prints the final frame, and exits nonzero if the
//! tracer overran its overhead budget or published no samples.

use bench::exp_top;
use obs::Live;
use std::time::Duration;

fn main() {
    let mut once = false;
    let mut refresh = Duration::from_millis(250);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--once" => once = true,
            "--refresh-ms" => {
                let ms: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--refresh-ms takes milliseconds"));
                refresh = Duration::from_millis(ms.max(16));
            }
            other => {
                eprintln!("unknown flag {other}; flags: --once --refresh-ms <ms>");
                std::process::exit(2);
            }
        }
    }

    if once {
        let r = exp_top::run_once();
        print!("{}", r.frame);
        if !r.ok() {
            eprintln!(
                "stencil-top: telemetry unhealthy (samples {}, overhead {:.4} %)",
                r.samples,
                100.0 * r.overhead.fraction()
            );
            std::process::exit(1);
        }
        println!(
            "telemetry healthy: {} samples, overhead within budget",
            r.samples
        );
        return;
    }

    let live = Live::new();
    let (program, cfg) = exp_top::live_run(live.clone());
    let worker = std::thread::spawn(move || runtime::run(&program, &cfg));
    while !worker.is_finished() {
        let frame = exp_top::render_frame(&live.latest_all(), None);
        // Clear and home, then draw the frame in place.
        print!("\x1b[2J\x1b[Hstencil-top — shared-memory stencil, refreshing every {refresh:?}\n{frame}");
        std::thread::sleep(refresh);
    }
    let report = worker.join().expect("run thread");
    let frame = exp_top::render_frame(&live.latest_all(), Some(&report.overhead));
    print!(
        "\x1b[2J\x1b[Hstencil-top — run complete in {:.3} s\n{frame}",
        report.makespan
    );
}
