//! `stencil-top`: a refreshing console view of a running stencil, fed by
//! the runtime's live telemetry board — per-worker occupancy over the
//! last sample window, queue depths, network traffic in flight, and the
//! tracer's own measured overhead.
//!
//! Two entry points back the binary:
//!
//! * [`run_once`] — the CI smoke: run the reference configuration on the
//!   deterministic simulator with sampling on, render the final frame,
//!   and report whether the run sampled and the tracer stayed inside its
//!   overhead budget;
//! * [`live_run`] — build a single-node shared-memory stencil whose
//!   board the binary can watch while worker threads execute real
//!   kernels.

use ca_stencil::{build_base, kind_names, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::{Live, LiveSample, TracerOverhead};
use runtime::{Program, RunConfig};
use std::fmt::Write;

/// Width of the occupancy bar in a rendered frame.
const BAR: usize = 24;

/// Render one console frame from the freshest per-node samples (pass
/// `Live::latest_all()`), plus the overhead footer once the run measured
/// it.
pub fn render_frame(latest: &[LiveSample], overhead: Option<&TracerOverhead>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>7}  {:<BAR$} {:>6} {:>8} {:>9} {:>12} {:>7} {:>7} {:>7} {:>7}",
        "node",
        "occup",
        "lanes",
        "ready",
        "pending",
        "net msgs",
        "net bytes",
        "steals",
        "sfails",
        "spills",
        "home"
    );
    for s in latest {
        let occ = s.occupancy();
        let filled = ((occ * BAR as f64).round() as usize).min(BAR);
        let bar: String = "#".repeat(filled) + &".".repeat(BAR - filled);
        let _ = writeln!(
            out,
            "{:>4} {:>6.1}%  {bar} {:>6} {:>8} {:>9} {:>12} {:>7} {:>7} {:>7} {:>7}",
            s.node,
            100.0 * occ,
            s.ready_depth,
            s.pending_tasks,
            s.inflight_msgs,
            s.inflight_bytes,
            s.steals,
            s.steal_fails,
            s.overflow_pushes,
            s.home_hits,
        );
    }
    if latest.is_empty() {
        let _ = writeln!(out, "  (no samples yet)");
    }
    if let Some(o) = overhead {
        let _ = writeln!(
            out,
            "tracer: {} events · {:.1} ns/event · {:.4} % of lane time (budget {:.0} %)",
            o.events,
            o.per_event_ns,
            100.0 * o.fraction(),
            100.0 * TracerOverhead::BUDGET_FRACTION,
        );
    }
    out
}

/// Everything the `--once` smoke needs to print and judge.
#[derive(Debug)]
pub struct TopOnce {
    /// The final rendered frame (one row per node, overhead footer).
    pub frame: String,
    /// Measured tracer self-overhead of the run.
    pub overhead: TracerOverhead,
    /// Live samples published over the run.
    pub samples: usize,
}

impl TopOnce {
    /// The smoke verdict: the run sampled, and the tracer stayed inside
    /// [`TracerOverhead::BUDGET_FRACTION`].
    pub fn ok(&self) -> bool {
        self.samples > 0 && self.overhead.within_budget()
    }
}

/// Run the reference configuration (the `stencil-doctor` baseline
/// workload, base scheme) on the deterministic simulator with live
/// sampling, and render the final frame. Virtual-time cadence: 1 ms, so
/// even the ~13 ms reference run yields a dozen windows per node.
pub fn run_once() -> TopOnce {
    let profile = MachineProfile::nacl();
    let cfg = StencilConfig::new(Problem::laplace(4608), 288, 10, ProcessGrid::new(4, 4))
        .with_ratio(0.4)
        .with_profile(profile.clone());
    let program = build_base(&cfg, false).program;
    let live = Live::new();
    let report = runtime::run(
        &program,
        &RunConfig::simulated(profile, 16)
            .with_trace()
            .with_live(live.clone())
            .with_sampling(1_000_000)
            .with_kind_names(kind_names()),
    );
    TopOnce {
        frame: render_frame(&live.latest_all(), Some(&report.overhead)),
        overhead: report.overhead,
        samples: live.len(),
    }
}

/// A single-node shared-memory stencil sized for watching: real worker
/// threads, real kernels, a few seconds of wall time. Returns the
/// program, a config already wired to `live`, and the board to observe.
pub fn live_run(live: Live) -> (Program, RunConfig) {
    let profile = MachineProfile::nacl();
    let threads = profile.compute_threads();
    let cfg = StencilConfig::new(Problem::laplace(1536), 256, 24, ProcessGrid::new(1, 1))
        .with_ratio(0.4)
        .with_profile(profile);
    let program = build_base(&cfg, true).program;
    let run_cfg = RunConfig::shared_memory(threads as usize)
        .with_trace()
        .with_live(live)
        .with_kind_names(kind_names());
    (program, run_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, busy: Vec<f64>) -> LiveSample {
        LiveSample {
            t_ns: 1_000_000,
            window_ns: 1_000_000,
            node,
            lane_busy: busy,
            ready_depth: 3,
            pending_tasks: 17,
            inflight_msgs: 2,
            inflight_bytes: 4096,
            steals: 12,
            steal_fails: 3,
            overflow_pushes: 1,
            home_hits: 40,
        }
    }

    #[test]
    fn frame_renders_one_row_per_node_plus_footer() {
        let overhead = TracerOverhead {
            events: 1000,
            per_event_ns: 20.0,
            total_ns: 20_000,
            lane_time_ns: 10_000_000,
        };
        let frame = render_frame(
            &[sample(0, vec![1.0, 1.0]), sample(1, vec![0.0, 1.0])],
            Some(&overhead),
        );
        let lines: Vec<&str> = frame.lines().collect();
        assert_eq!(lines.len(), 4, "{frame}");
        assert!(lines[0].contains("steals"), "{frame}");
        assert!(lines[1].contains("100.0%"), "{frame}");
        assert!(lines[2].contains("50.0%"), "{frame}");
        assert!(lines[3].contains("budget 2 %"), "{frame}");
        // The steal columns render the sample's counters in order.
        assert!(lines[1].contains("12       3       1      40"), "{frame}");

        let empty = render_frame(&[], None);
        assert!(empty.contains("no samples yet"));
    }

    #[test]
    fn once_smoke_passes_its_own_budget() {
        let once = run_once();
        assert!(once.ok(), "{once:?}\n{}", once.frame);
        // One row per simulated node made it into the final frame.
        assert_eq!(once.frame.lines().count(), 18, "{}", once.frame);
    }
}
