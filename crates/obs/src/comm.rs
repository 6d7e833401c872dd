//! Message-level communication tracing: per-transfer [`MsgSpan`]s and
//! their aggregation into a per-peer [`CommMatrix`].
//!
//! Every cross-node transfer an executor performs is recorded as one
//! `MsgSpan` carrying the (src, dst) pair, the producing task's kind tag,
//! the payload size, and three timestamps on the executor's clock:
//!
//! * **enqueue** — the producing task finished and handed the payload to
//!   the communication engine;
//! * **inject** — the sender's comm engine actually started pushing the
//!   message onto the wire (the gap to `enqueue` is *queueing delay*:
//!   time spent waiting behind other sends on the same NIC);
//! * **deliver** — the receiver finished processing the message and the
//!   payload became visible to consumer tasks (the gap to `inject` is
//!   *in-flight latency*: injection overhead + wire time + receive cost).
//!
//! The simulator stamps virtual times, the multi-process executor stamps
//! wall-clock; analysis downstream cannot tell the difference. A drained
//! [`crate::Trace`] carries the spans (`msgs`) and [`CommMatrix::from_trace`]
//! folds them into per-peer flow statistics whose byte/message totals are
//! cross-checked against the static analyzer's exact per-edge accounting.

use crate::{DurationSummary, LogHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One traced cross-node message: who sent what to whom, and when it was
/// enqueued, injected, and delivered (nanoseconds on the executor's
/// clock). Recorded through a [`crate::MsgRecorder`], the message
/// counterpart of [`crate::SpanRecord`]'s recording handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgSpan {
    /// Sender node rank.
    pub src: u32,
    /// Receiver node rank.
    pub dst: u32,
    /// Kind tag of the *producing* task class (which edge family this
    /// message belongs to — interior halo, CA block, …).
    pub kind: u32,
    /// Payload bytes on the wire.
    pub bytes: u64,
    /// Producer finished; payload handed to the comm engine.
    pub enqueue_ns: u64,
    /// Sender's comm engine started transmitting.
    pub inject_ns: u64,
    /// Receiver finished processing; payload visible to consumers.
    pub deliver_ns: u64,
}

impl MsgSpan {
    /// Time spent queued behind other sends before injection.
    pub fn queue_ns(&self) -> u64 {
        self.inject_ns.saturating_sub(self.enqueue_ns)
    }

    /// In-flight time from injection to delivery.
    pub fn inflight_ns(&self) -> u64 {
        self.deliver_ns.saturating_sub(self.inject_ns)
    }

    /// End-to-end time from enqueue to delivery.
    pub fn total_ns(&self) -> u64 {
        self.deliver_ns.saturating_sub(self.enqueue_ns)
    }
}

/// Aggregated flow statistics for one directed (src, dst) peer pair.
#[derive(Debug, Clone, Default)]
pub struct PeerFlow {
    /// Messages sent src → dst.
    pub messages: u64,
    /// Payload bytes sent src → dst.
    pub bytes: u64,
    /// In-flight latency digest (deliver − inject).
    pub latency: LogHistogram,
    /// Queueing-delay digest (inject − enqueue).
    pub queue: LogHistogram,
}

impl PeerFlow {
    /// In-flight latency summary (count/mean/p50/p90/p99/max).
    pub fn latency_summary(&self) -> DurationSummary {
        self.latency.summary()
    }

    /// Queueing-delay summary.
    pub fn queue_summary(&self) -> DurationSummary {
        self.queue.summary()
    }
}

/// The per-peer communication matrix of a run: one [`PeerFlow`] per
/// directed (src, dst) pair that exchanged at least one message, plus
/// per-kind and overall totals.
#[derive(Debug, Clone, Default)]
pub struct CommMatrix {
    /// Directed peer flows, keyed (src, dst).
    pub peers: BTreeMap<(u32, u32), PeerFlow>,
    /// Message and byte totals per producing-task kind.
    pub by_kind: BTreeMap<u32, (u64, u64)>,
}

impl CommMatrix {
    /// Fold a slice of message spans into a matrix.
    pub fn from_msgs(msgs: &[MsgSpan]) -> Self {
        let mut m = CommMatrix::default();
        for s in msgs {
            let flow = m.peers.entry((s.src, s.dst)).or_default();
            flow.messages += 1;
            flow.bytes += s.bytes;
            flow.latency.record(s.inflight_ns());
            flow.queue.record(s.queue_ns());
            let k = m.by_kind.entry(s.kind).or_insert((0, 0));
            k.0 += 1;
            k.1 += s.bytes;
        }
        m
    }

    /// Fold a drained trace's message spans into a matrix.
    pub fn from_trace(trace: &crate::Trace) -> Self {
        CommMatrix::from_msgs(&trace.msgs)
    }

    /// Total messages across all peers.
    pub fn total_messages(&self) -> u64 {
        self.peers.values().map(|f| f.messages).sum()
    }

    /// Total payload bytes across all peers.
    pub fn total_bytes(&self) -> u64 {
        self.peers.values().map(|f| f.bytes).sum()
    }

    /// True when no messages were recorded (single-node runs).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The peer pair with the highest in-flight p99 latency, if any —
    /// the first place to look when a run is comm-bound.
    pub fn worst_latency_peer(&self) -> Option<((u32, u32), DurationSummary)> {
        self.peers
            .iter()
            .map(|(&k, f)| (k, f.latency_summary()))
            .max_by_key(|(_, s)| s.p99_ns)
    }

    /// Render a human-readable per-peer table (the doctor/top format).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "src", "dst", "msgs", "bytes", "lat.mean", "lat.p99", "queue.mean"
        );
        for (&(src, dst), flow) in &self.peers {
            let lat = flow.latency_summary();
            let q = flow.queue_summary();
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>8} {:>12} {:>10}ns {:>10}ns {:>10}ns",
                src,
                dst,
                flow.messages,
                flow.bytes,
                lat.mean_ns as u64,
                lat.p99_ns,
                q.mean_ns as u64
            );
        }
        let _ = writeln!(
            out,
            "total: {} msgs, {} bytes",
            self.total_messages(),
            self.total_bytes()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: u32, dst: u32, bytes: u64, enq: u64, inj: u64, del: u64) -> MsgSpan {
        MsgSpan {
            src,
            dst,
            kind: 7,
            bytes,
            enqueue_ns: enq,
            inject_ns: inj,
            deliver_ns: del,
        }
    }

    #[test]
    fn matrix_aggregates_per_peer() {
        let msgs = vec![
            msg(0, 1, 100, 0, 10, 110),
            msg(0, 1, 200, 5, 20, 140),
            msg(1, 0, 50, 0, 0, 30),
        ];
        let m = CommMatrix::from_msgs(&msgs);
        assert_eq!(m.peers.len(), 2);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_bytes(), 350);
        let f01 = &m.peers[&(0, 1)];
        assert_eq!(f01.messages, 2);
        assert_eq!(f01.bytes, 300);
        // latencies 100 and 120; queue delays 10 and 15
        assert!(f01.latency_summary().mean_ns >= 100.0);
        assert!(f01.queue_summary().mean_ns >= 10.0);
        assert_eq!(m.by_kind[&7], (3, 350));
        assert!(!m.is_empty());
        let (worst, _) = m.worst_latency_peer().unwrap();
        assert_eq!(worst, (0, 1));
    }

    #[test]
    fn empty_matrix_and_render() {
        let m = CommMatrix::from_msgs(&[]);
        assert!(m.is_empty());
        assert_eq!(m.total_bytes(), 0);
        assert!(m.worst_latency_peer().is_none());
        let m = CommMatrix::from_msgs(&[msg(0, 1, 8, 0, 1, 2)]);
        let table = m.render();
        assert!(table.contains("total: 1 msgs, 8 bytes"), "{table}");
    }

    #[test]
    fn span_deltas_saturate() {
        // A wall-clock race can in principle produce deliver < inject;
        // deltas must clamp at zero, not wrap.
        let s = msg(0, 1, 8, 50, 40, 30);
        assert_eq!(s.queue_ns(), 0);
        assert_eq!(s.inflight_ns(), 0);
        assert_eq!(s.total_ns(), 0);
        let s = msg(0, 1, 8, 0, 10, 25);
        assert_eq!(s.queue_ns(), 10);
        assert_eq!(s.inflight_ns(), 15);
        assert_eq!(s.total_ns(), 25);
    }
}
