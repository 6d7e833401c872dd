//! Figure-10 occupancy analysis: per-node busy fractions and per-kind
//! kernel-time statistics computed from a drained [`Trace`] — the digest
//! behind the paper's Gantt/occupancy figure, shared by all executors —
//! plus the Gantt rows and terminal chart of one node.

use crate::{Trace, KIND_COMM};
use serde::Serialize;
use std::collections::BTreeMap;

/// Statistics of one span kind on one node.
#[derive(Debug, Clone, Serialize)]
pub struct KindStat {
    /// Trace kind tag.
    pub kind: u32,
    /// Registered kind name, or `kindN` when unregistered.
    pub name: String,
    /// Number of spans of this kind.
    pub count: usize,
    /// Total busy nanoseconds of this kind.
    pub total_ns: u64,
    /// Mean span duration, nanoseconds.
    pub mean_ns: f64,
    /// Median span duration, nanoseconds.
    pub median_ns: f64,
}

/// One node's occupancy digest.
#[derive(Debug, Clone, Serialize)]
pub struct NodeOccupancy {
    /// Node rank.
    pub node: u32,
    /// Worker lanes counted toward occupancy.
    pub lanes: u32,
    /// Busy nanoseconds summed over worker lanes.
    pub busy_ns: u64,
    /// Analysis horizon, nanoseconds.
    pub horizon_ns: u64,
    /// Busy fraction in `[0, 1]`: `busy / (lanes × horizon)`.
    pub occupancy: f64,
    /// Per-kind statistics over all of the node's spans (comm included),
    /// ordered by kind tag.
    pub kinds: Vec<KindStat>,
}

/// Analyze one node over `lanes` worker lanes up to `horizon_ns`.
/// Spans on lanes `>= lanes` (the comm lane) count toward per-kind
/// statistics but not toward occupancy, matching the paper's definition
/// of CPU occupancy. Occupancy is [`Trace::occupancy`], so busy time is
/// clamped at the horizon.
pub fn analyze_node(trace: &Trace, node: u32, lanes: u32, horizon_ns: u64) -> NodeOccupancy {
    let mut by_kind: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in trace.node_spans(node) {
        by_kind.entry(s.kind).or_default().push(s.duration_ns());
    }
    let kinds = by_kind
        .into_iter()
        .map(|(kind, mut durations)| {
            let count = durations.len();
            let total_ns: u64 = durations.iter().sum();
            let (lower, &mut upper, _) = durations.select_nth_unstable(count / 2);
            let median_ns = if count % 2 == 1 {
                upper as f64
            } else {
                (lower.iter().copied().max().unwrap_or(upper) + upper) as f64 / 2.0
            };
            KindStat {
                kind,
                name: trace
                    .kinds
                    .get(&kind)
                    .cloned()
                    .unwrap_or_else(|| format!("kind{kind}")),
                count,
                total_ns,
                mean_ns: total_ns as f64 / count as f64,
                median_ns,
            }
        })
        .collect();
    NodeOccupancy {
        node,
        lanes,
        busy_ns: trace.busy_ns(node, lanes, horizon_ns),
        horizon_ns,
        occupancy: trace.occupancy(node, lanes, horizon_ns),
        kinds,
    }
}

/// Render one node's spans as rows suitable for a Gantt plot: one line per
/// span, `lane start_ms end_ms kind`. Sorted by lane then start.
pub fn gantt_rows(trace: &Trace, node: u32) -> Vec<String> {
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
/// (`#` kind 0, `B` kind 1, `I` kind 2, `C` for [`KIND_COMM`], `?`
/// otherwise) — a terminal rendition of the paper's Figure 10.
pub fn ascii_gantt(
    trace: &Trace,
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
        KIND_COMM => 'C',
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
    use crate::Recorder;

    fn sample() -> Trace {
        let rec = Recorder::new();
        rec.register_kind(0, "interior");
        rec.register_kind(1, "boundary");
        rec.register_kind(KIND_COMM, "comm");
        let mut l = rec.local();
        // node 0: lane 0 busy [0, 10ms) kind 0, lane 1 busy [0, 5ms) kind 1
        l.task(0, 0, 0, 0, 10_000_000);
        l.task(0, 1, 1, 0, 5_000_000);
        // node 0 comm lane: excluded from occupancy, present in kinds
        l.comm(0, 2, 2_000_000, 8_000_000);
        // node 1: one short interior task
        l.task(1, 0, 0, 0, 1_000_000);
        drop(l);
        rec.drain()
    }

    #[test]
    fn occupancy_excludes_comm_lane() {
        let p = analyze_node(&sample(), 0, 2, 10_000_000);
        assert!((p.occupancy - 0.75).abs() < 1e-12, "occ = {}", p.occupancy);
        assert_eq!(p.busy_ns, 15_000_000);
        assert_eq!(p.kinds.len(), 3);
        assert_eq!(p.kinds[2].kind, KIND_COMM);
        assert_eq!(p.kinds[2].name, "comm");
    }

    #[test]
    fn kind_stats_are_named_and_summed() {
        let p = analyze_node(&sample(), 0, 2, 10_000_000);
        assert_eq!(p.kinds[0].name, "interior");
        assert_eq!(p.kinds[0].count, 1);
        assert_eq!(p.kinds[0].total_ns, 10_000_000);
        assert!((p.kinds[0].median_ns - 10_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_rows_sorted_by_lane() {
        let rows = gantt_rows(&sample(), 0);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], "0 0.000 10.000 0");
        assert!(rows[1].starts_with("1 "));
        assert_eq!(rows[2], "2 2.000 8.000 1000");
    }

    #[test]
    fn ascii_gantt_renders_lanes_and_comm() {
        // lane 2 is the comm lane for lanes = 2
        let rows = ascii_gantt(&sample(), 0, 2, 10_000_000, 20);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("   0 |####"));
        assert!(rows[1].contains('B'));
        assert!(rows[2].starts_with("comm"));
        assert!(rows[2].contains('C'));
        // lane 1 idle in the second half
        assert!(rows[1].ends_with(".|"));
    }

    #[test]
    fn median_of_even_count_interpolates() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task(0, 0, 5, 0, 10);
        l.task(0, 0, 5, 20, 50);
        drop(l);
        let p = analyze_node(&rec.drain(), 0, 1, 50);
        assert_eq!(p.kinds[0].count, 2);
        assert!((p.kinds[0].median_ns - 20.0).abs() < 1e-12);
        assert!((p.kinds[0].mean_ns - 20.0).abs() < 1e-12);
    }

    #[test]
    fn spans_crossing_horizon_are_clamped() {
        let rec = Recorder::new();
        let mut l = rec.local();
        // Fully inside, straddling, and fully beyond the 100ns horizon.
        l.task(0, 0, 0, 0, 50);
        l.task(0, 0, 0, 80, 150);
        l.task(0, 0, 0, 200, 300);
        drop(l);
        let p = analyze_node(&rec.drain(), 0, 1, 100);
        assert_eq!(p.busy_ns, 50 + 20);
        assert!(p.occupancy <= 1.0, "occ = {}", p.occupancy);
        // Per-kind totals keep full durations (kernel time is kernel time).
        assert_eq!(p.kinds[0].total_ns, 50 + 70 + 100);
    }

    #[test]
    fn trace_occupancy_is_the_digest_occupancy() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task(0, 0, 0, 0, 50);
        l.task(0, 0, 0, 80, 150); // crosses the 100 ns horizon
        drop(l);
        let t = rec.drain();
        let occ = t.occupancy(0, 1, 100);
        assert!((occ - 0.7).abs() < 1e-12, "occ = {occ}");
        assert_eq!(occ, analyze_node(&t, 0, 1, 100).occupancy);
    }

    #[test]
    fn median_matches_full_sort_on_larger_samples() {
        for n in 1..=9u64 {
            let rec = Recorder::new();
            let mut l = rec.local();
            // Durations n, n-1, ..., 1 recorded in descending order.
            for i in 0..n {
                l.task(0, 0, 7, 1000 * i, 1000 * i + (n - i));
            }
            drop(l);
            let p = analyze_node(&rec.drain(), 0, 1, 10_000);
            let mut sorted: Vec<u64> = (1..=n).collect();
            sorted.sort_unstable();
            let want = if n % 2 == 1 {
                sorted[n as usize / 2] as f64
            } else {
                (sorted[n as usize / 2 - 1] + sorted[n as usize / 2]) as f64 / 2.0
            };
            assert!(
                (p.kinds[0].median_ns - want).abs() < 1e-12,
                "n={n}: got {} want {want}",
                p.kinds[0].median_ns
            );
        }
    }

    #[test]
    fn zero_horizon_zero_occupancy() {
        let p = analyze_node(&Trace::default(), 0, 4, 0);
        assert_eq!(p.occupancy, 0.0);
        assert!(p.kinds.is_empty());
    }
}
