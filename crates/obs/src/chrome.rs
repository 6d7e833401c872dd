//! Chrome `trace_event` export/import: render a [`Trace`] as JSON that
//! Perfetto and `chrome://tracing` load directly, and parse such JSON
//! back into a [`Trace`] for round-trip tests and offline analysis.
//!
//! Each span becomes one complete event (`"ph":"X"`): `pid` is the node,
//! `tid` the lane, `ts`/`dur` are microseconds as the format requires,
//! and the exact nanosecond interval rides along in `args` so parsing
//! back is lossless.
//!
//! Each traced cross-node message ([`crate::MsgSpan`]) becomes a flow
//! arrow — a `"ph":"s"` event on the sender's comm lane at injection
//! time paired with a `"ph":"f"` event on the receiver's comm lane at
//! delivery time — so Perfetto draws the transfer as an arrow between
//! the two nodes' comm tracks. The exact spans also ride along in a
//! top-level `msgSpans` array so the round trip stays lossless (flow
//! events quantize to microseconds).

use crate::{MsgSpan, SpanRecord, Trace};
use serde::{Number, Value};
use std::collections::BTreeMap;

/// Render the trace as a Chrome trace JSON object.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<Value> = trace.spans.iter().map(|s| event(trace, s)).collect();
    // Bind each flow arrow to the node's comm lane when the trace shows
    // one (arrows attach to slices on the same pid/tid), lane 0 otherwise.
    let mut comm_lane: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &trace.spans {
        if s.kind == crate::KIND_COMM {
            comm_lane.entry(s.node).or_insert(s.lane as u64);
        }
    }
    for (i, m) in trace.msgs.iter().enumerate() {
        let lane_of = |node: u32| comm_lane.get(&node).copied().unwrap_or(0);
        events.push(flow_event(
            trace,
            m,
            i as u64,
            "s",
            m.inject_ns,
            m.src,
            lane_of(m.src),
        ));
        events.push(flow_event(
            trace,
            m,
            i as u64,
            "f",
            m.deliver_ns,
            m.dst,
            lane_of(m.dst),
        ));
    }
    let kinds: Vec<(String, Value)> = trace
        .kinds
        .iter()
        .map(|(k, name)| (k.to_string(), Value::Str(name.clone())))
        .collect();
    let msgs: Vec<Value> = trace.msgs.iter().map(msg_value).collect();
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
        ("kinds".into(), Value::Object(kinds)),
        ("msgSpans".into(), Value::Array(msgs)),
    ]);
    serde_json::to_string(&doc).expect("chrome trace serialization")
}

fn msg_value(m: &MsgSpan) -> Value {
    Value::Object(vec![
        ("src".into(), Value::Num(Number::U(m.src as u64))),
        ("dst".into(), Value::Num(Number::U(m.dst as u64))),
        ("kind".into(), Value::Num(Number::U(m.kind as u64))),
        ("bytes".into(), Value::Num(Number::U(m.bytes))),
        ("enqueue_ns".into(), Value::Num(Number::U(m.enqueue_ns))),
        ("inject_ns".into(), Value::Num(Number::U(m.inject_ns))),
        ("deliver_ns".into(), Value::Num(Number::U(m.deliver_ns))),
    ])
}

fn flow_event(
    trace: &Trace,
    m: &MsgSpan,
    id: u64,
    ph: &str,
    ts_ns: u64,
    node: u32,
    tid: u64,
) -> Value {
    let mut fields = vec![
        (
            "name".into(),
            Value::Str(format!("msg:{}", kind_name(trace, m.kind))),
        ),
        ("cat".into(), Value::Str("msg".into())),
        ("ph".into(), Value::Str(ph.into())),
        ("id".into(), Value::Num(Number::U(id))),
        ("ts".into(), Value::Num(Number::F(ts_ns as f64 / 1e3))),
        ("pid".into(), Value::Num(Number::U(node as u64))),
        ("tid".into(), Value::Num(Number::U(tid))),
    ];
    if ph == "f" {
        // Bind the arrow head to the enclosing slice rather than the
        // next one, the conventional choice for delivery-time arrows.
        fields.push(("bp".into(), Value::Str("e".into())));
    }
    Value::Object(fields)
}

/// Display name for a span's kind: the registered name when there is
/// one, `"comm"` for an unregistered comm-lane span, `kindN` otherwise.
pub fn kind_name(trace: &Trace, kind: u32) -> String {
    trace.kinds.get(&kind).cloned().unwrap_or_else(|| {
        if kind == crate::KIND_COMM {
            "comm".to_string()
        } else {
            format!("kind{kind}")
        }
    })
}

fn event(trace: &Trace, s: &SpanRecord) -> Value {
    let cat = if s.kind == crate::KIND_COMM {
        "comm"
    } else {
        "task"
    };
    let mut args = vec![
        ("kind".into(), Value::Num(Number::U(s.kind as u64))),
        ("start_ns".into(), Value::Num(Number::U(s.start_ns))),
        ("end_ns".into(), Value::Num(Number::U(s.end_ns))),
    ];
    if let Some(task) = s.task_instance() {
        args.push(("task".into(), Value::Num(Number::U(task))));
    }
    Value::Object(vec![
        ("name".into(), Value::Str(kind_name(trace, s.kind))),
        ("cat".into(), Value::Str(cat.into())),
        ("ph".into(), Value::Str("X".into())),
        ("ts".into(), Value::Num(Number::F(s.start_ns as f64 / 1e3))),
        (
            "dur".into(),
            Value::Num(Number::F(s.duration_ns() as f64 / 1e3)),
        ),
        ("pid".into(), Value::Num(Number::U(s.node as u64))),
        ("tid".into(), Value::Num(Number::U(s.lane as u64))),
        ("args".into(), Value::Object(args)),
    ])
}

/// Parse error for [`from_chrome_json`].
#[derive(Debug)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chrome trace parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parse Chrome trace JSON (as produced by [`to_chrome_json`], or the
/// bare `[...]` event-array form) back into a [`Trace`]. Top-level keys
/// it does not read — such as the `droppedSpans`/`droppedMsgs` counts
/// older exports carried — are ignored.
pub fn from_chrome_json(text: &str) -> Result<Trace, ParseError> {
    let doc: Value = serde_json::from_str(text).map_err(|e| ParseError(e.to_string()))?;
    let (events, kinds, msgs) = match &doc {
        Value::Array(events) => (events.as_slice(), BTreeMap::new(), Vec::new()),
        Value::Object(_) => {
            let events = doc
                .field("traceEvents")
                .as_array()
                .ok_or_else(|| ParseError("missing traceEvents array".into()))?;
            let mut kinds = BTreeMap::new();
            if let Some(pairs) = doc.field("kinds").as_object() {
                for (k, v) in pairs {
                    let kind = k
                        .parse::<u32>()
                        .map_err(|_| ParseError(format!("bad kind tag `{k}`")))?;
                    let name = v
                        .as_str()
                        .ok_or_else(|| ParseError(format!("kind `{k}` name not a string")))?;
                    kinds.insert(kind, name.to_string());
                }
            }
            let mut msgs = Vec::new();
            if let Some(entries) = doc.field("msgSpans").as_array() {
                for m in entries {
                    msgs.push(parse_msg(m)?);
                }
            }
            (events, kinds, msgs)
        }
        _ => return Err(ParseError("expected object or array at top level".into())),
    };

    let mut spans = Vec::new();
    let mut kinds = kinds;
    for ev in events {
        if ev.field("ph").as_str() != Some("X") {
            continue; // metadata or instant events: not spans
        }
        let span = parse_event(ev)?;
        // Recover kind names from event names when the kinds table lacks
        // them (bare-array traces), so names survive the round trip.
        if let std::collections::btree_map::Entry::Vacant(slot) = kinds.entry(span.kind) {
            if let Some(name) = ev.field("name").as_str() {
                if name != format!("kind{}", span.kind) {
                    slot.insert(name.to_string());
                }
            }
        }
        spans.push(span);
    }
    spans.sort_by_key(|s| (s.start_ns, s.node, s.lane, s.end_ns));
    let mut msgs = msgs;
    msgs.sort_by_key(|m| (m.enqueue_ns, m.src, m.dst, m.inject_ns, m.deliver_ns));
    Ok(Trace {
        spans,
        msgs,
        kinds,
        dropped: 0,
    })
}

fn parse_msg(m: &Value) -> Result<MsgSpan, ParseError> {
    let uint = |what: &str| {
        m.field(what)
            .as_u64()
            .ok_or_else(|| ParseError(format!("msgSpan {what} is not an unsigned integer")))
    };
    Ok(MsgSpan {
        src: uint("src")? as u32,
        dst: uint("dst")? as u32,
        kind: uint("kind")? as u32,
        bytes: uint("bytes")?,
        enqueue_ns: uint("enqueue_ns")?,
        inject_ns: uint("inject_ns")?,
        deliver_ns: uint("deliver_ns")?,
    })
}

fn parse_event(ev: &Value) -> Result<SpanRecord, ParseError> {
    let uint = |v: &Value, what: &str| {
        v.as_u64()
            .ok_or_else(|| ParseError(format!("event {what} is not an unsigned integer")))
    };
    let node = uint(ev.field("pid"), "pid")? as u32;
    let lane = uint(ev.field("tid"), "tid")? as u32;
    let args = ev.field("args");
    let (kind, start_ns, end_ns) = if args.field("start_ns").as_u64().is_some() {
        (
            uint(args.field("kind"), "args.kind")? as u32,
            uint(args.field("start_ns"), "args.start_ns")?,
            uint(args.field("end_ns"), "args.end_ns")?,
        )
    } else {
        // Foreign trace: reconstruct from the microsecond ts/dur fields.
        let ts = ev
            .field("ts")
            .as_f64()
            .ok_or_else(|| ParseError("event ts missing".into()))?;
        let dur = ev.field("dur").as_f64().unwrap_or(0.0);
        let start = (ts * 1e3).round() as u64;
        (0, start, start + (dur * 1e3).round() as u64)
    };
    if end_ns < start_ns {
        return Err(ParseError(format!(
            "span on node {node} lane {lane} ends before it starts"
        )));
    }
    let task = args.field("task").as_u64().unwrap_or(SpanRecord::NO_TASK);
    Ok(SpanRecord {
        node,
        lane,
        kind,
        start_ns,
        end_ns,
        task,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_trace() -> Trace {
        let rec = Recorder::new();
        rec.register_kind(0, "interior");
        rec.register_kind(1, "boundary");
        rec.register_kind(crate::KIND_COMM, "comm");
        let mut l = rec.local();
        l.task(0, 0, 0, 0, 1_000);
        l.task(0, 1, 1, 500, 2_500);
        l.comm(1, 4, 100, 900);
        l.task(1, 0, 0, u64::MAX / 2, u64::MAX / 2 + 10); // big ns values survive
        drop(l);
        rec.drain()
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = sample_trace();
        let text = to_chrome_json(&t);
        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.spans, t.spans);
        assert_eq!(back.kinds, t.kinds);
    }

    #[test]
    fn old_exports_with_drop_counts_still_parse() {
        let text = r#"{"traceEvents":[{"name":"x","ph":"X","ts":1.0,"dur":2.0,"pid":0,"tid":0}],
            "kinds":{"0":"x"},"droppedSpans":0,"msgSpans":[],"droppedMsgs":0}"#;
        let t = from_chrome_json(text).unwrap();
        assert_eq!((t.len(), t.spans[0].end_ns, t.dropped), (1, 3_000, 0));
    }

    #[test]
    fn output_is_chrome_shaped() {
        let text = to_chrome_json(&sample_trace());
        let doc: Value = serde_json::from_str(&text).unwrap();
        let events = doc.field("traceEvents").as_array().unwrap();
        assert_eq!(events.len(), 4);
        for ev in events {
            assert_eq!(ev.field("ph").as_str(), Some("X"));
            assert!(ev.field("ts").as_f64().is_some());
            assert!(ev.field("pid").as_u64().is_some());
            assert!(ev.field("tid").as_u64().is_some());
        }
        // named via the kind table, categorized by task vs comm
        assert!(text.contains("\"interior\""));
        assert!(text.contains("\"cat\":\"comm\""));
    }

    #[test]
    fn parses_bare_event_array_with_ts_dur() {
        let text = r#"[
            {"name":"x","ph":"X","ts":1.5,"dur":2.0,"pid":0,"tid":3},
            {"name":"meta","ph":"M","pid":0,"tid":0}
        ]"#;
        let t = from_chrome_json(text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.spans[0].start_ns, 1_500);
        assert_eq!(t.spans[0].end_ns, 3_500);
        assert_eq!(t.spans[0].lane, 3);
    }

    #[test]
    fn comm_lane_is_named_even_when_unregistered() {
        // No register_kind calls at all: the comm lane must still export
        // as "comm", not "kind1000", and the name must survive parsing.
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task(0, 0, 0, 0, 10);
        l.comm(0, 2, 10, 20);
        drop(l);
        let t = rec.drain();
        assert!(t.kinds.is_empty());

        let text = to_chrome_json(&t);
        assert!(text.contains("\"name\":\"comm\""));
        assert!(!text.contains("kind1000"));

        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.spans, t.spans);
        assert_eq!(
            back.kinds.get(&crate::KIND_COMM).map(String::as_str),
            Some("comm")
        );
        // Re-export of the parsed trace still names the comm lane.
        assert!(to_chrome_json(&back).contains("\"name\":\"comm\""));
    }

    #[test]
    fn task_instance_ids_round_trip() {
        let rec = Recorder::new();
        let mut l = rec.local();
        l.task_instance(0, 1, 0, 0xdead_beef, 0, 100);
        l.task(0, 0, 0, 0, 50);
        drop(l);
        let t = rec.drain();
        let back = from_chrome_json(&to_chrome_json(&t)).unwrap();
        assert_eq!(back.spans, t.spans);
        let ids: Vec<Option<u64>> = back.spans.iter().map(|s| s.task_instance()).collect();
        assert!(ids.contains(&Some(0xdead_beef)));
        assert!(ids.contains(&None));
    }

    #[test]
    fn msg_spans_round_trip_with_flow_arrows() {
        let rec = Recorder::new();
        rec.register_kind(0, "interior");
        let mut l = rec.local();
        l.task(0, 0, 0, 0, 100);
        l.comm(0, 2, 100, 150); // comm lane 2 on node 0
        l.comm(1, 2, 160, 200);
        drop(l);
        rec.msg_local().record(crate::MsgSpan {
            src: 0,
            dst: 1,
            kind: 0,
            bytes: 64,
            enqueue_ns: 100,
            inject_ns: 110,
            deliver_ns: 190,
        });
        let t = rec.drain();
        let text = to_chrome_json(&t);

        // One "s"/"f" pair per message, bound to the comm lanes.
        assert!(text.contains("\"ph\":\"s\""), "{text}");
        assert!(text.contains("\"ph\":\"f\""), "{text}");
        assert!(text.contains("\"cat\":\"msg\""), "{text}");
        assert!(text.contains("msg:interior"), "{text}");

        let back = from_chrome_json(&text).unwrap();
        assert_eq!(back.msgs, t.msgs, "msg spans survive the round trip");
        assert_eq!(back.spans, t.spans, "flow events do not pollute spans");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_chrome_json("42").is_err());
        assert!(from_chrome_json("{\"noTraceEvents\":[]}").is_err());
        assert!(from_chrome_json("not json").is_err());
    }
}
