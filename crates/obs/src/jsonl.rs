//! JSON-lines metric export: one self-describing JSON object per line,
//! the format the bench harness writes next to its figures so runs can
//! be diffed and plotted with standard line-oriented tools.

use crate::{MetricsSnapshot, Trace};
use serde::{Number, Value};

/// Render a run's metrics (and optionally its trace digest) as JSON
/// lines. The first line is a `run` header; each counter and gauge gets
/// its own line tagged with the run name.
pub fn render(run: &str, snapshot: &MetricsSnapshot, trace: Option<&Trace>) -> String {
    render_with_scheduler(run, None, snapshot, trace)
}

/// [`render`] with the active scheduler's name stamped into the run
/// header (a `"scheduler"` field), so exported metrics from different
/// scheduling policies stay distinguishable. [`parse`] ignores unknown
/// header fields, so old readers keep working.
pub fn render_with_scheduler(
    run: &str,
    scheduler: Option<&str>,
    snapshot: &MetricsSnapshot,
    trace: Option<&Trace>,
) -> String {
    let mut out = String::new();
    let mut header = vec![
        ("record".into(), Value::Str("run".into())),
        ("run".into(), Value::Str(run.into())),
    ];
    if let Some(s) = scheduler {
        header.push(("scheduler".into(), Value::Str(s.into())));
    }
    if let Some(t) = trace {
        header.push(("spans".into(), Value::Num(Number::U(t.len() as u64))));
        header.push(("horizon_ns".into(), Value::Num(Number::U(t.horizon_ns()))));
        header.push((
            "msg_spans".into(),
            Value::Num(Number::U(t.msgs.len() as u64)),
        ));
    }
    push_line(&mut out, Value::Object(header));

    // One `comm` record per directed peer pair that exchanged messages:
    // the communication matrix in line-oriented form, ready to pivot into
    // a heatmap with standard tools.
    if let Some(t) = trace {
        let matrix = t.comm_matrix();
        for (&(src, dst), flow) in &matrix.peers {
            let lat = flow.latency_summary();
            let q = flow.queue_summary();
            push_line(
                &mut out,
                Value::Object(vec![
                    ("record".into(), Value::Str("comm".into())),
                    ("run".into(), Value::Str(run.into())),
                    ("src".into(), Value::Num(Number::U(src as u64))),
                    ("dst".into(), Value::Num(Number::U(dst as u64))),
                    ("messages".into(), Value::Num(Number::U(flow.messages))),
                    ("bytes".into(), Value::Num(Number::U(flow.bytes))),
                    ("latency_mean_ns".into(), Value::Num(Number::F(lat.mean_ns))),
                    ("latency_p99_ns".into(), Value::Num(Number::U(lat.p99_ns))),
                    ("queue_mean_ns".into(), Value::Num(Number::F(q.mean_ns))),
                    ("queue_p99_ns".into(), Value::Num(Number::U(q.p99_ns))),
                ]),
            );
        }
    }

    for (name, value) in &snapshot.counters {
        push_line(
            &mut out,
            Value::Object(vec![
                ("record".into(), Value::Str("counter".into())),
                ("run".into(), Value::Str(run.into())),
                ("name".into(), Value::Str(name.clone())),
                ("value".into(), Value::Num(Number::U(*value))),
            ]),
        );
    }
    for (name, gauge) in &snapshot.gauges {
        push_line(
            &mut out,
            Value::Object(vec![
                ("record".into(), Value::Str("gauge".into())),
                ("run".into(), Value::Str(run.into())),
                ("name".into(), Value::Str(name.clone())),
                ("current".into(), Value::Num(Number::I(gauge.current))),
                ("max".into(), Value::Num(Number::I(gauge.max))),
            ]),
        );
    }
    out
}

fn push_line(out: &mut String, v: Value) {
    out.push_str(&serde_json::to_string(&v).expect("jsonl serialization"));
    out.push('\n');
}

/// Parse JSON-lines text back into `(run, snapshot)` pairs — the inverse
/// of [`render`] over the metric lines (the run header is consumed for
/// grouping only).
pub fn parse(text: &str) -> Result<Vec<(String, MetricsSnapshot)>, String> {
    use std::collections::BTreeMap;
    let mut runs: Vec<String> = Vec::new();
    let mut by_run: BTreeMap<String, MetricsSnapshot> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let run = v
            .field("run")
            .as_str()
            .ok_or_else(|| format!("line {}: missing run tag", lineno + 1))?
            .to_string();
        if !by_run.contains_key(&run) {
            runs.push(run.clone());
            by_run.insert(run.clone(), MetricsSnapshot::default());
        }
        let snap = by_run.get_mut(&run).expect("inserted above");
        match v.field("record").as_str() {
            Some("counter") => {
                let name = v
                    .field("name")
                    .as_str()
                    .ok_or_else(|| format!("line {}: counter without name", lineno + 1))?;
                let value = v
                    .field("value")
                    .as_u64()
                    .ok_or_else(|| format!("line {}: counter without value", lineno + 1))?;
                snap.counters.insert(name.to_string(), value);
            }
            Some("gauge") => {
                let name = v
                    .field("name")
                    .as_str()
                    .ok_or_else(|| format!("line {}: gauge without name", lineno + 1))?;
                let current = v.field("current").as_i64().unwrap_or(0);
                let max = v.field("max").as_i64().unwrap_or(0);
                snap.gauges
                    .insert(name.to_string(), crate::GaugeValue { current, max });
            }
            Some("run") => {}
            // Comm-matrix lines carry per-peer flow statistics, not
            // metric counters; readers that want them parse the lines
            // directly. Skipped here so old snapshot-oriented callers
            // keep working on new files.
            Some("comm") => {}
            other => {
                return Err(format!(
                    "line {}: unknown record type {other:?}",
                    lineno + 1
                ))
            }
        }
    }
    Ok(runs
        .into_iter()
        .map(|r| {
            let snap = by_run.remove(&r).expect("populated above");
            (r, snap)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, GaugeValue, MetricsSnapshot, Recorder};

    #[test]
    fn render_then_parse_round_trips() {
        let mut snap = MetricsSnapshot::from_counters([
            (names::MESSAGES_SENT, 12),
            (names::BYTES_SENT, 4096),
            (names::STEALS, 9),
            (names::STEAL_FAILS, 2),
            (names::OVERFLOW_PUSHES, 1),
        ]);
        let depth = GaugeValue { current: 3, max: 5 };
        snap.gauges.insert(names::QUEUE_DEPTH.to_string(), depth);
        let rec = Recorder::new();
        rec.local().task(0, 0, 0, 0, 10);
        let trace = rec.drain();

        let text = render("base_4x4", &snap, Some(&trace));
        assert!(text.lines().count() >= 4);
        assert!(text.lines().all(|l| l.starts_with('{')));

        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        let (run, snap) = &parsed[0];
        assert_eq!(run, "base_4x4");
        assert_eq!(snap.counter(names::MESSAGES_SENT), 12);
        // The work-stealing counters export like any other counter.
        assert_eq!(snap.counter(names::STEALS), 9);
        assert_eq!(snap.counter(names::STEAL_FAILS), 2);
        assert_eq!(snap.counter(names::OVERFLOW_PUSHES), 1);
        assert_eq!(snap.gauge_max(names::QUEUE_DEPTH), 5);
        assert_eq!(snap.gauges[names::QUEUE_DEPTH].current, 3);
    }

    #[test]
    fn multiple_runs_keep_order_and_separation() {
        let x = |value| MetricsSnapshot::from_counters([("x", value)]);
        let mut text = render("b", &x(1), None);
        text.push_str(&render("a", &x(2), None));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed[0].0, "b");
        assert_eq!(parsed[1].0, "a");
        assert_eq!(parsed[0].1.counter("x"), 1);
        assert_eq!(parsed[1].1.counter("x"), 2);
    }

    #[test]
    fn comm_matrix_lines_export_and_parse_tolerantly() {
        let rec = Recorder::new();
        rec.local().task(0, 0, 0, 0, 10);
        rec.msg_local().record(crate::MsgSpan {
            src: 0,
            dst: 1,
            kind: 0,
            bytes: 256,
            enqueue_ns: 0,
            inject_ns: 10,
            deliver_ns: 100,
        });
        let trace = rec.drain();
        let snap = MetricsSnapshot::from_counters([("x", 1)]);
        let text = render("r", &snap, Some(&trace));
        assert!(text.contains("\"record\":\"comm\""), "{text}");
        assert!(text.contains("\"bytes\":256"), "{text}");
        assert!(text.contains("\"msg_spans\":1"), "{text}");
        // Snapshot-oriented parsing skips comm lines instead of erroring.
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed[0].1.counter("x"), 1);
    }

    #[test]
    fn scheduler_header_survives_round_trip() {
        let snap = MetricsSnapshot::from_counters([("x", 7)]);
        let text = render_with_scheduler("r", Some("lifo"), &snap, None);
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"scheduler\":\"lifo\""), "{header}");
        // Old readers ignore the extra header field.
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed[0].1.counter("x"), 7);
        // And render() itself never emits one.
        let plain = render("r", &snap, None);
        assert!(!plain.contains("scheduler"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"record\":\"counter\"}").is_err());
        assert!(parse("not json\n").is_err());
    }
}
