//! A run's counters and gauges: the snapshot every report carries, its
//! standard key names, and the statically predicted values it is checked
//! against. The engines count in plain integers and build the snapshot
//! once, at the end of the run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Canonical instrument names, so the three executors and the bench
/// harness agree on spelling.
pub mod names {
    /// Counter: tasks executed to completion.
    pub const TASKS_EXECUTED: &str = "tasks_executed";
    /// Counter: messages sent between nodes.
    pub const MESSAGES_SENT: &str = "messages_sent";
    /// Counter: payload bytes sent between nodes.
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Counter: redundant flops performed by communication-avoiding tasks.
    pub const REDUNDANT_FLOPS: &str = "redundant_flops";
    /// Counter: tasks a worker took from another lane's deque or inbox
    /// (work stealing).
    pub const STEALS: &str = "steals";
    /// Counter: full steal sweeps (own deque + own inbox + every victim)
    /// that found no work — the "no work anywhere" starvation signal.
    pub const STEAL_FAILS: &str = "steal_fails";
    /// Counter: local-deque pushes that found the ring full and spilled
    /// the task to the lane's inbox.
    pub const OVERFLOW_PUSHES: &str = "overflow_pushes";
    /// Counter: tasks that ran on their home lane (the worker that owns
    /// their data, `runtime::TaskClass::home`).
    pub const HOME_HITS: &str = "home_hits";
    /// Counter: task activations delivered through the pending table.
    pub const ACTIVATIONS: &str = "activations";
    /// Gauge: ready-queue depth (its max is the high-water mark).
    pub const QUEUE_DEPTH: &str = "queue_depth";
}

/// Snapshot of one gauge: current value and high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Value at snapshot time.
    pub current: i64,
    /// Highest value reached during the run.
    pub max: i64,
}

/// Immutable snapshot of a run's counters and gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → (current, max).
    pub gauges: BTreeMap<String, GaugeValue>,
}

impl MetricsSnapshot {
    /// A snapshot of just these counters, with no gauges.
    pub fn from_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            gauges: BTreeMap::new(),
        }
    }

    /// Value of a counter, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// High-water mark of a gauge, zero when absent.
    pub fn gauge_max(&self, name: &str) -> i64 {
        self.gauges.get(name).map(|g| g.max).unwrap_or(0)
    }

    /// Check this snapshot against statically predicted counter values
    /// (e.g. from the `analyze` crate). Returns one human-readable line
    /// per mismatching counter; an empty vector means every predicted
    /// counter matched exactly. Counters the prediction does not mention
    /// are ignored.
    pub fn verify(&self, expected: &ExpectedCounters) -> Vec<String> {
        expected
            .counters
            .iter()
            .filter(|&(name, &want)| self.counter(name) != want)
            .map(|(name, &want)| {
                format!("{name}: predicted {want}, observed {}", self.counter(name))
            })
            .collect()
    }
}

/// Statically predicted counter values: the contract a static analysis
/// makes about what a dynamic run must observe. Built by the `analyze`
/// crate, checked with [`MetricsSnapshot::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedCounters {
    /// Counter name → predicted exact value.
    pub counters: BTreeMap<String, u64>,
}

impl ExpectedCounters {
    /// Empty prediction (verifies against anything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or overwrite) a predicted counter value.
    pub fn expect(mut self, name: &str, value: u64) -> Self {
        self.counters.insert(name.to_string(), value);
        self
    }

    /// Predicted value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_reports_only_mismatches() {
        let snap =
            MetricsSnapshot::from_counters([(names::TASKS_EXECUTED, 8), (names::MESSAGES_SENT, 3)]);
        let ok = ExpectedCounters::new()
            .expect(names::TASKS_EXECUTED, 8)
            .expect(names::MESSAGES_SENT, 3);
        assert!(snap.verify(&ok).is_empty());
        assert_eq!(ok.get(names::TASKS_EXECUTED), Some(8));
        let bad = ok.expect(names::BYTES_SENT, 100);
        let report = snap.verify(&bad);
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("bytes_sent"), "{}", report[0]);
        assert!(report[0].contains("predicted 100"), "{}", report[0]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = MetricsSnapshot::from_counters([(names::BYTES_SENT, u64::MAX - 7)]);
        let depth = GaugeValue {
            current: -3,
            max: 0,
        };
        snap.gauges.insert(names::QUEUE_DEPTH.to_string(), depth);
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter(names::BYTES_SENT), u64::MAX - 7);
    }
}
