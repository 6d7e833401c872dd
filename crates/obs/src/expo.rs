//! Prometheus-style text exposition of a run's metrics and live gauges.
//!
//! [`render`] produces the standard `name{labels} value` text format from
//! a [`MetricsSnapshot`], the latest [`LiveSample`]s, and the tracer's
//! [`TracerOverhead`]. The bench harness dumps it next to each figure as
//! `<fig>.prom`, in the format a Prometheus scraper reads.

use crate::{CommMatrix, LiveSample, MetricsSnapshot, TracerOverhead};
use std::fmt::Write as _;

/// Metric-name prefix for everything this workspace exports.
pub const PREFIX: &str = "stencil_";

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {PREFIX}{name} {help}");
    let _ = writeln!(out, "# TYPE {PREFIX}{name} {kind}");
}

/// Emit the family header only if no earlier section already declared it
/// (e.g. `steals_total` exists both as a run-total counter in the metric
/// registry and as per-node lines from the live samples; the exposition
/// format allows one HELP/TYPE per family).
fn family_once(out: &mut String, name: &str, kind: &str, help: &str) {
    if !out.contains(&format!("# TYPE {PREFIX}{name} ")) {
        family(out, name, kind, help);
    }
}

fn line(out: &mut String, name: &str, labels: &str, value: f64) {
    // Prometheus floats: render integers without a fraction.
    if value.fract() == 0.0 && value.abs() < 9e15 {
        let _ = writeln!(out, "{PREFIX}{name}{{{labels}}} {}", value as i64);
    } else {
        let _ = writeln!(out, "{PREFIX}{name}{{{labels}}} {value}");
    }
}

/// Render the exposition text for one run: counters and gauges from the
/// metric registry, the latest live sample per node (pass
/// `Live::latest_all()`), and the tracer self-overhead when measured.
pub fn render(
    run: &str,
    snapshot: &MetricsSnapshot,
    live: &[LiveSample],
    overhead: Option<TracerOverhead>,
) -> String {
    render_full(run, snapshot, live, overhead, None)
}

/// [`render`] plus the per-peer communication matrix when one was traced:
/// `stencil_comm_*` families labelled `src`/`dst`, exactly the per-peer
/// totals the static analyzer's edge accounting predicts.
pub fn render_full(
    run: &str,
    snapshot: &MetricsSnapshot,
    live: &[LiveSample],
    overhead: Option<TracerOverhead>,
    comm: Option<&CommMatrix>,
) -> String {
    let mut out = String::new();
    let run_label = format!("run=\"{}\"", run.replace('"', "_"));

    for (name, value) in &snapshot.counters {
        let n = format!("{}_total", sanitize(name));
        family(&mut out, &n, "counter", &format!("Counter {name}."));
        line(&mut out, &n, &run_label, *value as f64);
    }
    for (name, gauge) in &snapshot.gauges {
        let n = sanitize(name);
        family(&mut out, &n, "gauge", &format!("Gauge {name}."));
        line(&mut out, &n, &run_label, gauge.current as f64);
        let nmax = format!("{n}_max");
        family(
            &mut out,
            &nmax,
            "gauge",
            &format!("High-water mark of {name}."),
        );
        line(&mut out, &nmax, &run_label, gauge.max as f64);
    }

    if !live.is_empty() {
        family(
            &mut out,
            "lane_busy",
            "gauge",
            "Per-worker busy fraction over the last sample window.",
        );
        for s in live {
            for (lane, busy) in s.lane_busy.iter().enumerate() {
                let labels = format!("{run_label},node=\"{}\",lane=\"{lane}\"", s.node);
                line(&mut out, "lane_busy", &labels, *busy);
            }
        }
        // Family name, HELP text, and the sample field it exposes.
        type NodeGauge = (&'static str, &'static str, fn(&LiveSample) -> f64);
        let per_node: &[NodeGauge] = &[
            (
                "occupancy_window",
                "Mean worker occupancy over the last sample window.",
                |s| s.occupancy(),
            ),
            ("ready_depth", "Ready-queue depth at sample time.", |s| {
                s.ready_depth as f64
            }),
            ("pending_tasks", "Pending-table size at sample time.", |s| {
                s.pending_tasks as f64
            }),
            (
                "inflight_messages",
                "Network messages in flight at sample time.",
                |s| s.inflight_msgs as f64,
            ),
            (
                "inflight_bytes",
                "Network bytes in flight at sample time.",
                |s| s.inflight_bytes as f64,
            ),
            (
                "sample_time_ns",
                "Engine-clock time of the last sample, nanoseconds.",
                |s| s.t_ns as f64,
            ),
        ];
        for (name, help, get) in per_node {
            family(&mut out, name, "gauge", help);
            for s in live {
                let labels = format!("{run_label},node=\"{}\"", s.node);
                line(&mut out, name, &labels, get(s));
            }
        }
        family(
            &mut out,
            "dropped_events_total",
            "counter",
            "Telemetry spans dropped by full rings.",
        );
        for s in live {
            let labels = format!("{run_label},node=\"{}\"", s.node);
            line(
                &mut out,
                "dropped_events_total",
                &labels,
                s.dropped_events as f64,
            );
        }
        // Work-stealing counters, per node. `family_once`: a run-total
        // `steals_total` may already exist from the metric registry (the
        // mp executor folds totals in); per-node lines join the same
        // family rather than redeclaring it.
        type NodeCounter = (&'static str, &'static str, fn(&LiveSample) -> f64);
        let steal_counters: &[NodeCounter] = &[
            (
                "steals_total",
                "Successful task steals by this node's workers.",
                |s| s.steals as f64,
            ),
            (
                "steal_fails_total",
                "Full steal sweeps that found no task.",
                |s| s.steal_fails as f64,
            ),
            (
                "overflow_pushes_total",
                "Deque-full pushes spilled to the overflow injector.",
                |s| s.overflow_pushes as f64,
            ),
        ];
        for (name, help, get) in steal_counters {
            family_once(&mut out, name, "counter", help);
            for s in live {
                let labels = format!("{run_label},node=\"{}\"", s.node);
                line(&mut out, name, &labels, get(s));
            }
        }
    }

    if let Some(matrix) = comm.filter(|m| !m.is_empty()) {
        type PeerStat = (&'static str, &'static str, &'static str);
        let fams: &[PeerStat] = &[
            (
                "comm_messages_total",
                "counter",
                "Traced messages sent src to dst.",
            ),
            (
                "comm_bytes_total",
                "counter",
                "Traced payload bytes sent src to dst.",
            ),
            (
                "comm_latency_mean_ns",
                "gauge",
                "Mean in-flight latency (deliver minus inject), src to dst.",
            ),
            (
                "comm_latency_p99_ns",
                "gauge",
                "p99 in-flight latency, src to dst.",
            ),
            (
                "comm_queue_mean_ns",
                "gauge",
                "Mean queueing delay (inject minus enqueue), src to dst.",
            ),
        ];
        for (name, kind, help) in fams {
            family(&mut out, name, kind, help);
            for (&(src, dst), flow) in &matrix.peers {
                let labels = format!("{run_label},src=\"{src}\",dst=\"{dst}\"");
                let lat = flow.latency_summary();
                let q = flow.queue_summary();
                let value = match *name {
                    "comm_messages_total" => flow.messages as f64,
                    "comm_bytes_total" => flow.bytes as f64,
                    "comm_latency_mean_ns" => lat.mean_ns,
                    "comm_latency_p99_ns" => lat.p99_ns as f64,
                    _ => q.mean_ns,
                };
                line(&mut out, name, &labels, value);
            }
        }
        family(
            &mut out,
            "comm_dropped_msgs_total",
            "counter",
            "Message spans dropped by full msg rings (matrix is a lower bound when nonzero).",
        );
        line(
            &mut out,
            "comm_dropped_msgs_total",
            &run_label,
            matrix.dropped as f64,
        );
    }

    if let Some(oh) = overhead {
        family(
            &mut out,
            "tracer_events_total",
            "counter",
            "Span-record attempts over the run.",
        );
        line(
            &mut out,
            "tracer_events_total",
            &run_label,
            oh.events as f64,
        );
        family(
            &mut out,
            "tracer_per_event_ns",
            "gauge",
            "Calibrated cost of one span record, nanoseconds.",
        );
        line(&mut out, "tracer_per_event_ns", &run_label, oh.per_event_ns);
        family(
            &mut out,
            "tracer_overhead_fraction",
            "gauge",
            "Instrumentation time as a fraction of total lane time.",
        );
        line(
            &mut out,
            "tracer_overhead_fraction",
            &run_label,
            oh.fraction(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, Metrics};

    fn sample(node: u32) -> LiveSample {
        LiveSample {
            t_ns: 1_000,
            window_ns: 500,
            node,
            lane_busy: vec![0.5, 1.0],
            ready_depth: 3,
            pending_tasks: 7,
            inflight_msgs: 2,
            inflight_bytes: 8192,
            dropped_events: 0,
            steals: 11,
            steal_fails: 4,
            overflow_pushes: 1,
        }
    }

    #[test]
    fn render_emits_wellformed_exposition() {
        let m = Metrics::new();
        m.counter(names::TASKS_EXECUTED).add(42);
        m.gauge(names::QUEUE_DEPTH).add(5);
        let oh = TracerOverhead {
            events: 100,
            per_event_ns: 25.0,
            total_ns: 2_500,
            lane_time_ns: 1_000_000,
        };
        let text = render("base", &m.snapshot(), &[sample(0), sample(1)], Some(oh));

        assert!(text.contains("stencil_tasks_executed_total{run=\"base\"} 42"));
        assert!(text.contains("stencil_queue_depth{run=\"base\"} 5"));
        assert!(text.contains("stencil_lane_busy{run=\"base\",node=\"0\",lane=\"1\"} 1"));
        assert!(text.contains("stencil_ready_depth{run=\"base\",node=\"1\"} 3"));
        assert!(text.contains("stencil_inflight_bytes{run=\"base\",node=\"0\"} 8192"));
        assert!(text.contains("stencil_tracer_overhead_fraction{run=\"base\"} 0.0025"));
        // Work-stealing counters reach the exposition per node.
        assert!(text.contains("stencil_steals_total{run=\"base\",node=\"1\"} 11"));
        assert!(text.contains("stencil_steal_fails_total{run=\"base\",node=\"0\"} 4"));
        assert!(text.contains("stencil_overflow_pushes_total{run=\"base\",node=\"0\"} 1"));

        // Every non-comment line is `name{labels} value` with a numeric
        // value, and every family has HELP + TYPE.
        for l in text.lines() {
            if l.starts_with('#') {
                assert!(l.starts_with("# HELP ") || l.starts_with("# TYPE "), "{l}");
                continue;
            }
            let (name, value) = l.rsplit_once(' ').expect("metric line");
            assert!(name.starts_with(PREFIX), "{l}");
            assert!(name.contains('{') && name.ends_with('}'), "{l}");
            assert!(value.parse::<f64>().is_ok(), "{l}");
        }
        for l in text.lines().filter(|l| !l.starts_with('#')) {
            let fam = l.split('{').next().unwrap();
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "family {fam} typed"
            );
        }
    }

    #[test]
    fn steal_family_not_redeclared_when_registry_exports_it() {
        let m = Metrics::new();
        m.counter(names::STEALS).add(100);
        let text = render("x", &m.snapshot(), &[sample(0)], None);
        let declarations = text.matches("# TYPE stencil_steals_total ").count();
        assert_eq!(declarations, 1, "one TYPE line per family:\n{text}");
        // Both the run total and the per-node line are present.
        assert!(text.contains("stencil_steals_total{run=\"x\"} 100"));
        assert!(text.contains("stencil_steals_total{run=\"x\",node=\"0\"} 11"));
    }

    #[test]
    fn comm_matrix_families_export_per_peer() {
        use crate::MsgSpan;
        let m = Metrics::new();
        let msgs = [
            MsgSpan {
                src: 0,
                dst: 1,
                kind: 0,
                bytes: 512,
                enqueue_ns: 0,
                inject_ns: 10,
                deliver_ns: 100,
            },
            MsgSpan {
                src: 1,
                dst: 0,
                kind: 0,
                bytes: 256,
                enqueue_ns: 5,
                inject_ns: 5,
                deliver_ns: 60,
            },
        ];
        let matrix = crate::CommMatrix::from_msgs(&msgs, 0);
        let text = render_full("ca", &m.snapshot(), &[], None, Some(&matrix));
        assert!(text.contains("stencil_comm_messages_total{run=\"ca\",src=\"0\",dst=\"1\"} 1"));
        assert!(text.contains("stencil_comm_bytes_total{run=\"ca\",src=\"1\",dst=\"0\"} 256"));
        assert!(text.contains("stencil_comm_latency_p99_ns{run=\"ca\",src=\"0\",dst=\"1\"}"));
        assert!(text.contains("stencil_comm_dropped_msgs_total{run=\"ca\"} 0"));
        // Well-formed: every line still parses.
        for l in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = l.rsplit_once(' ').expect("metric line");
            assert!(value.parse::<f64>().is_ok(), "{l}");
        }
        // An empty matrix emits no comm families at all.
        let empty = crate::CommMatrix::default();
        let text = render_full("ca", &m.snapshot(), &[], None, Some(&empty));
        assert!(!text.contains("comm_"), "{text}");
    }

    #[test]
    fn render_without_live_or_overhead_is_metrics_only() {
        let m = Metrics::new();
        m.counter("a.b c").add(1);
        let text = render("x", &m.snapshot(), &[], None);
        assert!(text.contains("stencil_a_b_c_total{run=\"x\"} 1"), "{text}");
        assert!(!text.contains("lane_busy"));
        assert!(!text.contains("tracer_"));
    }
}
