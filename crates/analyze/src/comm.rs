//! Static communication-volume and flop accounting.
//!
//! Each enumerated edge whose producer and consumer live on different
//! nodes is exactly one runtime message of `bytes` payload — the same
//! rule all three executors implement — so these sums predict the
//! dynamic `obs::names::MESSAGES_SENT` / `BYTES_SENT` counters exactly.

use runtime::UnfoldedDag;
use std::collections::BTreeMap;

/// Message and byte volume by edge class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Edges crossing a node boundary (one runtime message each).
    pub cross_messages: u64,
    /// Payload bytes crossing node boundaries.
    pub cross_bytes: u64,
    /// Edges delivered node-locally (no message).
    pub local_messages: u64,
    /// Payload bytes moved node-locally.
    pub local_bytes: u64,
}

impl CommStats {
    /// Total edges, local and cross.
    pub fn total_messages(&self) -> u64 {
        self.cross_messages + self.local_messages
    }
}

/// Static work accounting over every enumerated task.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlopStats {
    /// Useful floating-point work ([`runtime::TaskClass::flops`]).
    pub total: f64,
    /// Redundant work beyond the nominal algorithm
    /// ([`runtime::TaskClass::redundant_flops`]); matches the dynamic
    /// `obs::names::REDUNDANT_FLOPS` counter exactly.
    pub redundant: u64,
}

/// Static message and byte volume of one directed node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerComm {
    /// Cross-node edges from `src` to `dst` (one runtime message each).
    pub messages: u64,
    /// Payload bytes those edges carry.
    pub bytes: u64,
}

/// Exact static communication matrix: for every directed `(src, dst)`
/// node pair, the number of cross-node edges and their payload bytes.
/// Because every cross-node edge is exactly one runtime message, a traced
/// run's `obs::CommMatrix` must match this map *identically* — same peer
/// set, same message counts, same byte totals — whenever no message spans
/// were dropped. [`verify_comm_matrix`] performs that comparison.
pub fn peer_matrix(dag: &UnfoldedDag) -> BTreeMap<(u32, u32), PeerComm> {
    let mut peers: BTreeMap<(u32, u32), PeerComm> = BTreeMap::new();
    for e in &dag.edges {
        let src = dag.node_of(e.producer);
        let dst = dag.node_of(e.consumer);
        if src != dst {
            let p = peers.entry((src, dst)).or_default();
            p.messages += 1;
            p.bytes += e.bytes as u64;
        }
    }
    peers
}

/// Check a traced run's dynamic communication matrix against the static
/// [`peer_matrix`] prediction: every directed peer pair must appear in
/// both with identical message counts and byte totals. Returns the first
/// discrepancy as an error string.
pub fn verify_comm_matrix(
    expected: &BTreeMap<(u32, u32), PeerComm>,
    observed: &obs::CommMatrix,
) -> Result<(), String> {
    for (&(src, dst), flow) in &observed.peers {
        let Some(exp) = expected.get(&(src, dst)) else {
            return Err(format!(
                "observed {} messages {src}->{dst}, but no static edge crosses that pair",
                flow.messages
            ));
        };
        if flow.messages != exp.messages || flow.bytes != exp.bytes {
            return Err(format!(
                "peer {src}->{dst}: observed {} msgs / {} bytes, static accounting says {} / {}",
                flow.messages, flow.bytes, exp.messages, exp.bytes
            ));
        }
    }
    for (&(src, dst), exp) in expected {
        if !observed.peers.contains_key(&(src, dst)) {
            return Err(format!(
                "static accounting expects {} msgs {src}->{dst}, none observed",
                exp.messages
            ));
        }
    }
    Ok(())
}

pub(crate) fn account_comm(dag: &UnfoldedDag) -> CommStats {
    let mut stats = CommStats::default();
    for e in &dag.edges {
        if dag.node_of(e.producer) == dag.node_of(e.consumer) {
            stats.local_messages += 1;
            stats.local_bytes += e.bytes as u64;
        } else {
            stats.cross_messages += 1;
            stats.cross_bytes += e.bytes as u64;
        }
    }
    stats
}

pub(crate) fn account_flops(dag: &UnfoldedDag) -> FlopStats {
    let mut stats = FlopStats::default();
    for &key in &dag.tasks {
        let class = dag.graph.class(key.class);
        stats.total += class.flops(key.params);
        stats.redundant += class.redundant_flops(key.params);
    }
    stats
}
