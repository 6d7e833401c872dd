//! Live telemetry samples: periodic gauges published *during* a run.
//!
//! The executors run a sampler at the cadence configured in the runtime's
//! `RunConfig` (`sample_period_ns`). Each tick produces one
//! [`LiveSample`] per node — per-worker busy fractions over the sliding
//! window since the previous tick, plus instantaneous queue depths and
//! network in-flight gauges — and publishes it to a [`Live`] board the
//! caller can observe concurrently (the `stencil-top` view or a test).
//!
//! Busy fractions come from one [`BusyClock`] per lane, not from spans:
//! a window's busy time is the difference of two clock readings, so a
//! sample costs O(lanes) and a task that straddles a tick is split
//! exactly between the two windows.
//!
//! Samples are append-only and cheap (a short `Vec<f64>` per tick), so
//! the board doubles as the run's sample history: window-averaging the
//! history reproduces the post-hoc Figure-10 occupancy (see
//! [`Live::mean_occupancy`] and the cross-executor agreement test in
//! `tests/`).

use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// One sampler tick for one node: gauges over the window
/// `[t_ns - window_ns, t_ns]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveSample {
    /// Sample time (window end), nanoseconds on the engine's clock.
    pub t_ns: u64,
    /// Window length; busy fractions below are averaged over it.
    pub window_ns: u64,
    /// Node rank this sample describes.
    pub node: u32,
    /// Busy fraction of each worker lane over the window, `0.0..=1.0`.
    pub lane_busy: Vec<f64>,
    /// Ready-queue depth at sample time.
    pub ready_depth: usize,
    /// Pending-table size (tasks waiting on inputs) at sample time.
    pub pending_tasks: usize,
    /// Network messages in flight at sample time.
    pub inflight_msgs: u64,
    /// Network bytes in flight at sample time.
    pub inflight_bytes: u64,
    /// Cumulative tasks this node's workers obtained by stealing from a
    /// peer's deque (work-stealing engines only; 0 in the simulator).
    #[serde(default)]
    pub steals: u64,
    /// Cumulative full steal sweeps that found no work anywhere — the
    /// "truly starved" signal `insight` splits starvation on.
    #[serde(default)]
    pub steal_fails: u64,
    /// Cumulative local-deque overflows spilled to the lane's inbox.
    #[serde(default)]
    pub overflow_pushes: u64,
    /// Cumulative tasks this node's workers ran on their home lane
    /// (work-stealing engines only; 0 in the simulator).
    #[serde(default)]
    pub home_hits: u64,
}

impl LiveSample {
    /// Mean busy fraction across this node's worker lanes (0 when the
    /// node has no lanes).
    pub fn occupancy(&self) -> f64 {
        if self.lane_busy.is_empty() {
            0.0
        } else {
            self.lane_busy.iter().sum::<f64>() / self.lane_busy.len() as f64
        }
    }
}

/// Shared live-telemetry board: samplers publish, observers read, both
/// concurrently. Cloning is cheap (`Arc` inside) and all clones see the
/// same board.
#[derive(Clone, Default)]
pub struct Live {
    samples: Arc<Mutex<Vec<LiveSample>>>,
}

impl std::fmt::Debug for Live {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Live").field("len", &self.len()).finish()
    }
}

impl Live {
    /// Empty board.
    pub fn new() -> Self {
        Self::default()
    }

    fn samples(&self) -> MutexGuard<'_, Vec<LiveSample>> {
        self.samples.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one sample (called by the executors' samplers).
    pub fn publish(&self, sample: LiveSample) {
        self.samples().push(sample);
    }

    /// Number of samples published so far.
    pub fn len(&self) -> usize {
        self.samples().len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent sample per node, sorted by node rank.
    pub fn latest_all(&self) -> Vec<LiveSample> {
        let mut latest: std::collections::BTreeMap<u32, LiveSample> = Default::default();
        for s in self.samples().iter() {
            latest.insert(s.node, s.clone());
        }
        latest.into_values().collect()
    }

    /// Full sample history in publication order.
    pub fn history(&self) -> Vec<LiveSample> {
        self.samples().clone()
    }

    /// Window-averaged occupancy of `node` over the whole history: each
    /// sample's mean lane busy weighted by its window length. When the
    /// windows tile the run (as the simulator's sampler guarantees) this
    /// equals the post-hoc Figure-10 occupancy exactly.
    pub fn mean_occupancy(&self, node: u32) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for s in self.samples().iter().filter(|s| s.node == node) {
            weighted += s.occupancy() * s.window_ns as f64;
            total += s.window_ns as f64;
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }
}

/// One lane's busy clock: `B(t)` is the busy time the lane finished
/// before `t` plus the elapsed part of the task it is running at `t`, in
/// nanoseconds on the engine's clock. A window's busy time is
/// `B(w1) − B(w0)`.
///
/// The whole state is one `u64` word ([`BusyClock::to_bits`]): the
/// finished busy time while idle, and `RUNNING | (start − finished)` while
/// a task runs, from which `B(t) = t − (start − finished)`. So the lane
/// that owns the clock publishes every transition with one plain store,
/// and a sampler on another thread always reads a consistent state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyClock(u64);

impl BusyClock {
    const RUNNING: u64 = 1 << 63;

    fn running(&self) -> bool {
        self.0 & Self::RUNNING != 0
    }

    /// A task starts at `t_ns`.
    pub fn start(&mut self, t_ns: u64) {
        debug_assert!(!self.running(), "busy clock started twice");
        debug_assert!(t_ns >= self.0, "lane busier than its clock");
        self.0 = Self::RUNNING | t_ns.saturating_sub(self.0);
    }

    /// The running task ends at `t_ns`.
    pub fn stop(&mut self, t_ns: u64) {
        debug_assert!(self.running(), "busy clock stopped while idle");
        self.0 = self.read(t_ns);
    }

    /// `B(t_ns)`: busy nanoseconds up to `t_ns`.
    pub fn read(&self, t_ns: u64) -> u64 {
        if self.running() {
            t_ns.saturating_sub(self.0 & !Self::RUNNING)
        } else {
            self.0
        }
    }

    /// The clock as one word, for publishing through an atomic.
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// The clock [`BusyClock::to_bits`] published.
    pub fn from_bits(bits: u64) -> Self {
        BusyClock(bits)
    }
}

/// Busy fraction of `lanes` lanes that were busy `busy_ns` in total over
/// `[0, horizon_ns]` — the paper's "CPU occupancy". The report reads it
/// from the lanes' busy clocks and [`crate::Trace::occupancy`] from the
/// spans; both go through here, so they agree to the bit. Zero when the
/// horizon or the lane count is zero.
pub fn occupancy(busy_ns: u64, lanes: u32, horizon_ns: u64) -> f64 {
    let denom = horizon_ns as f64 * lanes as f64;
    if denom == 0.0 {
        return 0.0;
    }
    busy_ns as f64 / denom
}

/// Busy fraction of each lane over a window of `window_ns > 0`, from each
/// lane's busy-clock reading at the window's end. `last` holds the
/// readings at the window's start and advances to the new ones.
///
/// Each reading is clamped into `[last, last + window_ns]`. A clock read
/// from another thread can run a little ahead while its lane publishes a
/// stop, or behind while it publishes a start; the clamp keeps every
/// fraction in `[0, 1]` and carries the difference into the next window,
/// so the windows still sum to the lane's busy time. Exact readings (the
/// simulator's) never touch the clamp.
pub fn window_busy(
    last: &mut [u64],
    readings: impl IntoIterator<Item = u64>,
    window_ns: u64,
) -> Vec<f64> {
    last.iter_mut()
        .zip(readings)
        .map(|(last, b)| {
            let b = b.clamp(*last, *last + window_ns);
            let busy = b - *last;
            *last = b;
            busy as f64 / window_ns as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, t: u64, window: u64, busy: Vec<f64>) -> LiveSample {
        LiveSample {
            t_ns: t,
            window_ns: window,
            node,
            lane_busy: busy,
            ready_depth: 0,
            pending_tasks: 0,
            inflight_msgs: 0,
            inflight_bytes: 0,
            steals: 0,
            steal_fails: 0,
            overflow_pushes: 0,
            home_hits: 0,
        }
    }

    #[test]
    fn busy_clock_splits_a_straddling_span_between_windows() {
        // One lane: a span [30, 160) straddles the tick at 100, then a
        // span [170, 180) lies inside the second window.
        let mut clock = BusyClock::default();
        let mut last = vec![0u64];
        clock.start(30);
        assert_eq!(clock.read(30), 0);
        let w1 = window_busy(&mut last, [clock.read(100)], 100);
        assert_eq!(w1, vec![0.7], "the 70 ns before the tick");
        clock.stop(160);
        clock.start(170);
        clock.stop(180);
        assert!(!clock.running());
        let w2 = window_busy(&mut last, [clock.read(200)], 100);
        assert_eq!(w2, vec![0.7], "the other 60 ns of the span, plus 10");
        // The two windows sum to the spans exactly.
        assert_eq!(last, vec![140]);
        assert_eq!(BusyClock::from_bits(clock.to_bits()), clock);
    }

    #[test]
    fn window_busy_clamps_racing_readings_into_the_window() {
        let mut last = vec![50u64, 50];
        // Lane 0 read ahead of its window, lane 1 behind its last reading.
        let busy = window_busy(&mut last, [500, 40], 100);
        assert_eq!(busy, vec![1.0, 0.0]);
        assert_eq!(last, vec![150, 50], "the excess carries forward");
    }

    #[test]
    fn board_latest_and_history() {
        let live = Live::new();
        assert!(live.is_empty());
        assert!(live.latest_all().is_empty());
        live.publish(sample(0, 100, 100, vec![0.5]));
        live.publish(sample(1, 100, 100, vec![0.25]));
        live.publish(sample(0, 200, 100, vec![1.0]));
        assert_eq!(live.len(), 3);
        let all = live.latest_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].node, 0);
        assert_eq!(all[0].t_ns, 200);
        assert_eq!(all[1].node, 1);
        assert_eq!(live.history().len(), 3);
        // Clones share the board.
        let clone = live.clone();
        clone.publish(sample(2, 50, 50, vec![]));
        assert_eq!(live.len(), 4);
    }

    #[test]
    fn mean_occupancy_is_window_weighted() {
        let live = Live::new();
        // 100ns at 0.5 mean busy, then 300ns at 1.0: mean = 0.875.
        live.publish(sample(0, 100, 100, vec![0.0, 1.0]));
        live.publish(sample(0, 400, 300, vec![1.0, 1.0]));
        live.publish(sample(1, 400, 400, vec![0.1, 0.1]));
        assert!((live.mean_occupancy(0) - 0.875).abs() < 1e-12);
        assert!((live.mean_occupancy(1) - 0.1).abs() < 1e-12);
        assert_eq!(live.mean_occupancy(9), 0.0);
    }

    #[test]
    fn sample_occupancy_handles_no_lanes() {
        assert_eq!(sample(0, 0, 1, vec![]).occupancy(), 0.0);
        assert!((sample(0, 0, 1, vec![0.2, 0.6]).occupancy() - 0.4).abs() < 1e-12);
    }
}
