//! Live telemetry samples: periodic gauges published *during* a run.
//!
//! The executors run a sampler at the cadence configured in the runtime's
//! `RunConfig` (`sample_period_ns`). Each tick produces one
//! [`LiveSample`] per node — per-worker busy fractions over the sliding
//! window since the previous tick, plus instantaneous queue depths and
//! network in-flight gauges — and publishes it to a [`Live`] board the
//! caller can observe concurrently (the `stencil-top` view or a test).
//!
//! Samples are append-only and cheap (a short `Vec<f64>` per tick), so
//! the board doubles as the run's sample history: window-averaging the
//! history reproduces the post-hoc Figure-10 occupancy (see
//! [`Live::mean_occupancy`] and the cross-executor agreement test in
//! `tests/`).

use crate::SpanRecord;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

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
    /// Cumulative spans dropped by full telemetry rings so far.
    pub dropped_events: u64,
    /// Cumulative tasks this node's workers obtained by stealing from a
    /// peer's deque (work-stealing engines only; 0 in the simulator).
    #[serde(default)]
    pub steals: u64,
    /// Cumulative full steal sweeps that found no work anywhere — the
    /// "truly starved" signal `insight` splits starvation on.
    #[serde(default)]
    pub steal_fails: u64,
    /// Cumulative local-deque overflows spilled to the shared injector
    /// queue.
    #[serde(default)]
    pub overflow_pushes: u64,
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

struct LiveInner {
    samples: Mutex<Vec<LiveSample>>,
}

/// Shared live-telemetry board: samplers publish, observers read, both
/// concurrently. Cloning is cheap (`Arc` inside) and all clones see the
/// same board.
#[derive(Clone)]
pub struct Live {
    inner: Arc<LiveInner>,
}

impl std::fmt::Debug for Live {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Live").field("len", &self.len()).finish()
    }
}

impl Default for Live {
    fn default() -> Self {
        Live::new()
    }
}

impl Live {
    /// Empty board.
    pub fn new() -> Self {
        Live {
            inner: Arc::new(LiveInner {
                samples: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Append one sample (called by the executors' samplers).
    pub fn publish(&self, sample: LiveSample) {
        self.inner
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sample);
    }

    /// Number of samples published so far.
    pub fn len(&self) -> usize {
        self.inner
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent sample per node, sorted by node rank.
    pub fn latest_all(&self) -> Vec<LiveSample> {
        let samples = self.inner.samples.lock().unwrap_or_else(|e| e.into_inner());
        let mut latest: std::collections::BTreeMap<u32, LiveSample> = Default::default();
        for s in samples.iter() {
            latest.insert(s.node, s.clone());
        }
        latest.into_values().collect()
    }

    /// Full sample history in publication order.
    pub fn history(&self) -> Vec<LiveSample> {
        self.inner
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Window-averaged occupancy of `node` over the whole history: each
    /// sample's mean lane busy weighted by its window length. When the
    /// windows tile the run (as the simulator's sampler guarantees) this
    /// equals the post-hoc Figure-10 occupancy exactly.
    pub fn mean_occupancy(&self, node: u32) -> f64 {
        let samples = self.inner.samples.lock().unwrap_or_else(|e| e.into_inner());
        let mut weighted = 0.0;
        let mut total = 0.0;
        for s in samples.iter().filter(|s| s.node == node) {
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

/// Per-lane busy time of `node`'s first `lanes` worker lanes within the
/// window `[w0, w1)`, from already-collected spans: the overlap of each
/// span with the window, summed per lane, as a fraction of the window.
/// Lanes at or above `lanes` (the comm lane) are excluded. Returns one
/// fraction per lane; all zeros when the window is empty.
pub fn lane_busy_in_window(
    spans: &[SpanRecord],
    node: u32,
    lanes: u32,
    w0: u64,
    w1: u64,
) -> Vec<f64> {
    let mut busy_ns = vec![0u64; lanes as usize];
    if w1 <= w0 {
        return vec![0.0; lanes as usize];
    }
    for s in spans {
        if s.node != node || s.lane >= lanes {
            continue;
        }
        let lo = s.start_ns.max(w0);
        let hi = s.end_ns.min(w1);
        if hi > lo {
            busy_ns[s.lane as usize] += hi - lo;
        }
    }
    let window = (w1 - w0) as f64;
    busy_ns.into_iter().map(|b| b as f64 / window).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(node: u32, lane: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            node,
            lane,
            kind: 0,
            start_ns: start,
            end_ns: end,
            task: SpanRecord::NO_TASK,
        }
    }

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
            dropped_events: 0,
            steals: 0,
            steal_fails: 0,
            overflow_pushes: 0,
        }
    }

    #[test]
    fn window_busy_clips_spans_to_window() {
        let spans = vec![
            span(0, 0, 0, 100),  // covers the whole window
            span(0, 1, 40, 60),  // 20ns inside
            span(0, 1, 90, 200), // 10ns inside
            span(1, 0, 0, 100),  // wrong node
            span(0, 5, 0, 100),  // comm lane, excluded
        ];
        let busy = lane_busy_in_window(&spans, 0, 2, 0, 100);
        assert_eq!(busy.len(), 2);
        assert!((busy[0] - 1.0).abs() < 1e-12);
        assert!((busy[1] - 0.3).abs() < 1e-12);
        // Empty and inverted windows degrade to zeros.
        assert_eq!(lane_busy_in_window(&spans, 0, 2, 50, 50), vec![0.0, 0.0]);
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
