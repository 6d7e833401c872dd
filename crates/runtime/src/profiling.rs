//! Post-run trace analysis: the machinery behind the paper's Figure 10
//! (per-node Gantt data, occupancy, and per-kind kernel-time statistics).
//!
//! The numeric digests are computed by `obs::fig10`; this module is a
//! thin consumer that keeps the legacy millisecond/second units and adds
//! the terminal-facing Gantt renderers. Everything operates on the
//! canonical [`obs::Trace`].

use serde::Serialize;

/// Per-kind statistics of one node's trace.
#[derive(Debug, Clone, Serialize)]
pub struct KindReport {
    /// Trace kind tag.
    pub kind: u32,
    /// Number of spans of this kind.
    pub count: usize,
    /// Median span duration, milliseconds.
    pub median_ms: f64,
    /// Mean span duration, milliseconds.
    pub mean_ms: f64,
    /// Total busy time of this kind, seconds.
    pub total_s: f64,
}

/// A Figure 10-style digest of one node's execution.
#[derive(Debug, Clone, Serialize)]
pub struct NodeProfile {
    /// The node rank.
    pub node: u32,
    /// Worker-lane occupancy in `[0, 1]` over the horizon.
    pub occupancy: f64,
    /// Per-kind statistics, ordered by kind tag.
    pub kinds: Vec<KindReport>,
}

/// Analyze one node of a trace over `lanes` worker lanes up to
/// `horizon_ns` (nanoseconds on the trace's clock, wall or virtual).
pub fn profile_node(trace: &obs::Trace, node: u32, lanes: u32, horizon_ns: u64) -> NodeProfile {
    let digest = obs::fig10::analyze_node(trace, node, lanes, horizon_ns);
    NodeProfile {
        node,
        occupancy: digest.occupancy,
        kinds: digest
            .kinds
            .into_iter()
            .map(|k| KindReport {
                kind: k.kind,
                count: k.count,
                median_ms: k.median_ns / 1e6,
                mean_ms: k.mean_ns / 1e6,
                total_s: k.total_ns as f64 / 1e9,
            })
            .collect(),
    }
}

/// Render one node's spans as rows suitable for a Gantt plot: one line per
/// span, `lane start_ms end_ms kind`. Sorted by lane then start.
pub fn gantt_rows(trace: &obs::Trace, node: u32) -> Vec<String> {
    let mut spans: Vec<_> = trace.node_spans(node).collect();
    spans.sort_by_key(|s| (s.lane, s.start_ns));
    spans
        .iter()
        .map(|s| {
            format!(
                "{} {:.3} {:.3} {}",
                s.lane,
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
                s.kind
            )
        })
        .collect()
}

/// Render one node's trace as an ASCII Gantt chart, `width` characters
/// wide: one row per lane, `.` for idle and a kind-specific glyph for busy
/// (`#` kind 0, `B` kind 1, `I` kind 2, `C` for the comm kind 1000, `?`
/// otherwise) — a terminal rendition of the paper's Figure 10.
pub fn ascii_gantt(
    trace: &obs::Trace,
    node: u32,
    lanes: u32,
    horizon_ns: u64,
    width: usize,
) -> Vec<String> {
    assert!(width > 0, "gantt width must be positive");
    let glyph = |kind: u32| match kind {
        0 => '#',
        1 => 'B',
        2 => 'I',
        obs::KIND_COMM => 'C',
        _ => '?',
    };
    let span_ns = horizon_ns.max(1);
    let mut rows = vec![vec!['.'; width]; lanes as usize + 1];
    for s in trace.node_spans(node) {
        let lane = (s.lane as usize).min(lanes as usize);
        let from = (s.start_ns as u128 * width as u128 / span_ns as u128) as usize;
        let to = (s.end_ns as u128 * width as u128 / span_ns as u128) as usize;
        for cell in rows[lane][from.min(width - 1)..=to.min(width - 1)].iter_mut() {
            *cell = glyph(s.kind);
        }
    }
    rows.into_iter()
        .enumerate()
        .map(|(lane, cells)| {
            let label = if lane == lanes as usize {
                "comm".to_string()
            } else {
                format!("{lane:>4}")
            };
            format!("{label} |{}|", cells.into_iter().collect::<String>())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(node: u32, lane: u32, kind: u32, end_ns: u64) -> obs::SpanRecord {
        obs::SpanRecord {
            node,
            lane,
            kind,
            start_ns: 0,
            end_ns,
            task: obs::SpanRecord::NO_TASK,
        }
    }

    fn trace() -> obs::Trace {
        let mut t = obs::Trace::default();
        // node 0: lane 0 busy [0, 10ms) kind 0, lane 1 busy [0, 5ms) kind 1
        t.spans.push(span(0, 0, 0, 10_000_000));
        t.spans.push(span(0, 1, 1, 5_000_000));
        t.spans.push(span(1, 0, 0, 1_000_000));
        t
    }

    #[test]
    fn profile_separates_kinds() {
        let p = profile_node(&trace(), 0, 2, 10_000_000);
        assert_eq!(p.kinds.len(), 2);
        assert_eq!(p.kinds[0].kind, 0);
        assert!((p.kinds[0].median_ms - 10.0).abs() < 1e-9);
        assert_eq!(p.kinds[1].count, 1);
        assert!((p.occupancy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gantt_rows_sorted_by_lane() {
        let rows = gantt_rows(&trace(), 0);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("0 "));
        assert!(rows[1].starts_with("1 "));
        assert_eq!(rows[0], "0 0.000 10.000 0");
    }

    #[test]
    fn ascii_gantt_renders_lanes_and_comm() {
        let mut t = trace();
        t.spans.push(obs::SpanRecord {
            node: 0,
            lane: 2, // the comm lane for lanes = 2
            kind: obs::KIND_COMM,
            start_ns: 2_000_000,
            end_ns: 8_000_000,
            task: obs::SpanRecord::NO_TASK,
        });
        let rows = ascii_gantt(&t, 0, 2, 10_000_000, 20);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("   0 |####"));
        assert!(rows[1].contains('#') || rows[1].contains('B'));
        assert!(rows[2].starts_with("comm"));
        assert!(rows[2].contains('C'));
        // lane 1 idle in the second half
        assert!(rows[1].ends_with(".|"));
    }

    #[test]
    fn other_nodes_excluded() {
        let p = profile_node(&trace(), 1, 2, 10_000_000);
        assert_eq!(p.kinds.len(), 1);
        assert_eq!(p.kinds[0].count, 1);
    }
}
