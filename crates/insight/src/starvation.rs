//! Splitting starvation with live counters: was there really no work,
//! or did ready work sit undelivered while lanes idled?
//!
//! The trace-driven gap attribution in [`crate::gaps`] can say a lane
//! was starved — no recorded producer explains the idle interval — but
//! it cannot say *why*: the run may genuinely have had nothing runnable
//! (ramp-up, drain, dependency chains elsewhere), or the scheduler may
//! have had ready tasks it failed to hand out fast enough (dispatch
//! lag). The work-stealing executors expose exactly the signal needed
//! to tell these apart: every full steal sweep that finds every deque
//! *and* every lane's inbox empty bumps the node's cumulative
//! `steal_fails` counter ([`obs::LiveSample::steal_fails`]).
//!
//! [`split_starvation`] walks a run's sample history window by window
//! and splits each window's idle lane-time three ways:
//!
//! * **no-work** — the ready queue was empty at the window's end and
//!   steal sweeps failed during it: workers actively searched and the
//!   node truly had nothing to run;
//! * **dispatch-lag** — ready tasks existed at sample time while lanes
//!   idled: work was available but not yet delivered to a lane (queue
//!   handoff latency, a thin moment in the steal fan-out, or rank-mode
//!   lock contention);
//! * **unattributed** — idle time in windows with neither signal
//!   (simulator samples, which never steal, land here, as does idle
//!   time racing the sampler's instantaneous reads).

use obs::LiveSample;
use std::collections::BTreeMap;

/// Idle lane-time from a run's live-sample history, split by whether
/// work was actually available. Built by [`split_starvation`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StarvationSplit {
    /// Sample windows inspected (across all nodes).
    pub windows: usize,
    /// Idle lane-time, nanoseconds, in windows where steal sweeps came
    /// back empty-handed and no ready task was queued: truly nothing to
    /// run on the node.
    pub no_work_ns: u64,
    /// Idle lane-time, nanoseconds, in windows where ready tasks were
    /// queued while lanes sat idle: work existed but had not reached a
    /// lane.
    pub dispatch_lag_ns: u64,
    /// Idle lane-time with neither signal (no failed steals, no queued
    /// work observed) — includes all simulator samples.
    pub unattributed_ns: u64,
}

impl StarvationSplit {
    /// Total idle lane-time the split covers, nanoseconds.
    pub fn idle_ns(&self) -> u64 {
        self.no_work_ns + self.dispatch_lag_ns + self.unattributed_ns
    }

    /// Fraction of covered idle time that was truly work-free (0 when
    /// no idle time was observed).
    pub fn no_work_fraction(&self) -> f64 {
        self.frac(self.no_work_ns)
    }

    /// Fraction of covered idle time with undelivered ready work.
    pub fn dispatch_lag_fraction(&self) -> f64 {
        self.frac(self.dispatch_lag_ns)
    }

    fn frac(&self, part: u64) -> f64 {
        let total = self.idle_ns();
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }

    /// One-line terminal rendering of the split.
    pub fn render(&self) -> String {
        format!(
            "starvation split over {} windows: no-work {:.1} % · dispatch-lag {:.1} % · unattributed {:.1} %",
            self.windows,
            100.0 * self.no_work_fraction(),
            100.0 * self.dispatch_lag_fraction(),
            100.0 * self.frac(self.unattributed_ns),
        )
    }
}

/// Split a run's idle lane-time using its live-sample history (pass
/// `Live::history()`). Samples are grouped per node and walked in
/// publication order; each window's idle time is
/// `window_ns × Σ(1 − lane_busy)` and is attributed by the window-end
/// gauges: `ready_depth > 0` → dispatch-lag; otherwise a positive
/// `steal_fails` delta against the node's previous sample → no-work;
/// otherwise unattributed. Returns the zero split on an empty history.
pub fn split_starvation(history: &[LiveSample]) -> StarvationSplit {
    let mut split = StarvationSplit::default();
    // steal_fails is cumulative per node: difference consecutive samples.
    let mut last_fails: BTreeMap<u32, u64> = BTreeMap::new();
    for s in history {
        split.windows += 1;
        // Track the cumulative steal-fail baseline even across degenerate
        // windows, so a later well-formed window differences correctly.
        let prev = last_fails.insert(s.node, s.steal_fails).unwrap_or(0);
        let failed_sweeps = s.steal_fails.saturating_sub(prev);
        // A zero-length window covers no lane-time: nothing to attribute.
        if s.window_ns == 0 {
            continue;
        }
        // A sample with no per-lane data cannot be split by busy fraction.
        // Count one lane's worth of the window explicitly unattributed
        // rather than silently treating the node as fully busy, which
        // would skew the no-work/dispatch-lag fractions upward.
        if s.lane_busy.is_empty() {
            split.unattributed_ns += s.window_ns;
            continue;
        }
        let idle: f64 = s.lane_busy.iter().map(|b| (1.0 - b).clamp(0.0, 1.0)).sum();
        let idle_ns = (idle * s.window_ns as f64).round() as u64;
        if idle_ns == 0 {
            continue;
        }
        if s.ready_depth > 0 {
            split.dispatch_lag_ns += idle_ns;
        } else if failed_sweeps > 0 {
            split.no_work_ns += idle_ns;
        } else {
            split.unattributed_ns += idle_ns;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, t: u64, busy: Vec<f64>, ready: usize, fails: u64) -> LiveSample {
        LiveSample {
            t_ns: t,
            window_ns: 1_000,
            node,
            lane_busy: busy,
            ready_depth: ready,
            pending_tasks: 0,
            inflight_msgs: 0,
            inflight_bytes: 0,
            steals: 0,
            steal_fails: fails,
            overflow_pushes: 0,
            home_hits: 0,
        }
    }

    #[test]
    fn empty_history_yields_the_zero_split() {
        let s = split_starvation(&[]);
        assert_eq!(s, StarvationSplit::default());
        assert_eq!(s.no_work_fraction(), 0.0);
    }

    #[test]
    fn ready_work_while_idle_is_dispatch_lag() {
        // Half a lane idle for one window with 3 tasks queued.
        let s = split_starvation(&[sample(0, 1_000, vec![0.5, 1.0], 3, 0)]);
        assert_eq!(s.dispatch_lag_ns, 500);
        assert_eq!(s.no_work_ns, 0);
        assert!((s.dispatch_lag_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failed_steals_with_an_empty_queue_are_no_work() {
        // First window establishes the cumulative baseline (fails=2,
        // delta 2 → no-work); second window has no new failures.
        let h = [
            sample(0, 1_000, vec![0.0], 0, 2),
            sample(0, 2_000, vec![0.0], 0, 2),
        ];
        let s = split_starvation(&h);
        assert_eq!(s.windows, 2);
        assert_eq!(s.no_work_ns, 1_000);
        assert_eq!(s.unattributed_ns, 1_000);
        assert_eq!(s.dispatch_lag_ns, 0);
    }

    #[test]
    fn steal_fail_deltas_are_tracked_per_node() {
        // Node 1's cumulative count must not bleed into node 0's delta.
        let h = [
            sample(0, 1_000, vec![0.0], 0, 0),
            sample(1, 1_000, vec![0.0], 0, 5),
            sample(0, 2_000, vec![0.0], 0, 0), // node 0: still no failures
        ];
        let s = split_starvation(&h);
        assert_eq!(s.no_work_ns, 1_000); // only node 1's window
        assert_eq!(s.unattributed_ns, 2_000);
    }

    #[test]
    fn zero_length_windows_attribute_nothing_but_keep_the_baseline() {
        // A zero-ns window with queued work must not book idle time, and
        // its cumulative steal_fails still advances the node's baseline:
        // the following window's delta is 0, not 5.
        let mut w0 = sample(0, 1_000, vec![0.0], 4, 5);
        w0.window_ns = 0;
        let h = [w0, sample(0, 2_000, vec![0.0], 0, 5)];
        let s = split_starvation(&h);
        assert_eq!(s.windows, 2);
        assert_eq!(s.dispatch_lag_ns, 0, "zero window books no lag");
        assert_eq!(s.no_work_ns, 0, "baseline consumed the 5 fails");
        assert_eq!(s.unattributed_ns, 1_000);
    }

    #[test]
    fn lane_less_samples_land_in_unattributed() {
        // A sample with no per-lane data can't be split by busy fraction;
        // it must surface as unattributed instead of reading as 100% busy
        // (which would skew the no-work/dispatch-lag fractions).
        let h = [
            sample(0, 1_000, vec![], 3, 0),
            sample(0, 2_000, vec![0.0], 2, 0),
        ];
        let s = split_starvation(&h);
        assert_eq!(s.unattributed_ns, 1_000);
        assert_eq!(s.dispatch_lag_ns, 1_000);
        assert!((s.dispatch_lag_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_busy_fractions_clamp() {
        // busy > 1 clamps to fully busy; busy < 0 clamps to fully idle.
        let s = split_starvation(&[sample(0, 1_000, vec![1.7, -0.3], 1, 0)]);
        assert_eq!(s.idle_ns(), 1_000);
        assert_eq!(s.dispatch_lag_ns, 1_000);
    }

    #[test]
    fn busy_lanes_contribute_nothing() {
        let s = split_starvation(&[sample(0, 1_000, vec![1.0, 1.0], 7, 9)]);
        assert_eq!(s.idle_ns(), 0);
        assert_eq!(s.windows, 1);
        assert!(s.render().contains("1 windows"));
    }
}
