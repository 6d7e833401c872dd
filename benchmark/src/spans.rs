//! The harness's own in-memory span recorder.
//!
//! Spans are recorded from outside the measured crates, around the calls
//! into each layer: name, start, end, parent, and the id of the operation
//! they belong to. They stay in memory until the run ends and are then
//! written as Chrome JSON. A span's self time is its duration minus the
//! part of it its children cover; summed per layer, with the container
//! spans' self time reported as `unattributed`, the self times must add up
//! to the traced wall time.

use std::time::Instant;

/// Container spans: their self time is harness glue no layer accounts for.
pub const CONTAINERS: [&str; 3] = ["workload", "setup", "run"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation id shared by every span of one setup → run → verify cycle.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder: the harness drives one operation at a time.
/// A disabled recorder records nothing, so the untraced run pays nothing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Time `f` under a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Forget the spans a panicking operation left open, and everything
    /// recorded under them.
    pub fn abandon_open(&mut self) {
        if let Some(&first) = self.open.first() {
            self.spans.truncate(first);
            self.open.clear();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals (clipped to the span), so overlapping children
/// are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Where the traced wall time went, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Duration of the root spans.
    pub wall_s: f64,
    /// Self time per layer (the part of a span name before the first `.`,
    /// or the whole name), in first-seen order.
    pub layers: Vec<(String, f64)>,
    /// Self time of the container spans.
    pub unattributed_s: f64,
}

impl Attribution {
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |&(_, s)| s)
    }

    /// |layers + unattributed − wall| as a share of wall: how far the
    /// ledger is from adding up.
    pub fn sum_error_frac(&self) -> f64 {
        let sum: f64 = self.layers.iter().map(|(_, s)| s).sum::<f64>() + self.unattributed_s;
        if self.wall_s == 0.0 {
            0.0
        } else {
            (sum - self.wall_s).abs() / self.wall_s
        }
    }
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times_ns(spans);
    let mut out = Attribution {
        wall_s: 0.0,
        layers: Vec::new(),
        unattributed_s: 0.0,
    };
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let self_s = self_ns as f64 / 1e9;
        if s.parent.is_none() {
            out.wall_s += s.duration_ns() as f64 / 1e9;
        }
        if CONTAINERS.contains(&s.name) {
            out.unattributed_s += self_s;
            continue;
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        match out.layers.iter_mut().find(|(l, _)| l == layer) {
            Some((_, total)) => *total += self_s,
            None => out.layers.push((layer.to_string(), self_s)),
        }
    }
    out
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microseconds).
pub fn to_chrome_json(spans: &[Span], workload: &str) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("workload", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("core.build", 15, 35, Some(1)),
            span("run", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [20, 10, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [
            span("run", 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("b.y", 40, 80, Some(0)),  // overlaps a.x on [40, 60)
            span("c.z", 50, 55, Some(0)),  // inside both
            span("d.w", 90, 120, Some(0)), // sticks out: clipped to the parent
        ];
        // union of children inside the parent: [10, 80) ∪ [90, 100) = 80
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn layers_plus_unattributed_sum_to_wall() {
        let spans = [
            span("workload", 0, 1000, None),
            span("setup", 0, 300, Some(0)),
            span("core.build", 50, 250, Some(1)),
            span("runtime.unfold", 250, 290, Some(1)),
            span("run", 300, 900, Some(0)),
            span("runtime.engine", 310, 890, Some(4)),
            span("verify", 900, 990, Some(0)),
        ];
        let a = attribute(&spans);
        assert_eq!(a.wall_s, 1000e-9);
        assert!((a.layer_s("core") - 200e-9).abs() < 1e-15);
        assert!((a.layer_s("runtime") - 620e-9).abs() < 1e-15);
        assert!((a.layer_s("verify") - 90e-9).abs() < 1e-15);
        assert!((a.unattributed_s - 90e-9).abs() < 1e-15);
        assert!(a.sum_error_frac() < 1e-9);

        // Concurrent siblings break the ledger, and the check says so.
        let mut broken = spans.to_vec();
        broken.push(span("runtime.shadow", 310, 890, Some(4)));
        assert!(attribute(&broken).sum_error_frac() > 0.5);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let v = rec.span("workload", |rec| {
            rec.span("setup", |rec| rec.span("core.build", |_| 7))
        });
        assert_eq!(v, 7);
        rec.next_op();
        rec.span("workload", |_| ());
        let s = rec.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["workload", "setup", "core.build", "workload"]);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[2].op, s[3].op), (1, 1, 2));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.durations_s("workload").len(), 2);

        // A panic unwinds past the closing bookkeeping; the op's spans go.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.span("workload", |rec| rec.span("setup", |_| panic!("boom")))
        }));
        assert!(caught.is_err());
        rec.abandon_open();
        assert_eq!(rec.spans().len(), 4);
        rec.span("workload", |_| ());
        assert_eq!(rec.spans()[4].parent, None);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("workload", |_| 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = [
            span("workload", 0, 2_000, None),
            span("setup", 500, 1_500, Some(0)),
        ];
        let text = to_chrome_json(&spans, "w");
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v.field("traceEvents").as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].field("ph").as_str(), Some("X"));
        assert_eq!(events[1].field("dur").as_f64(), Some(1.0));
        assert_eq!(events[1].field("args").field("parent").as_u64(), Some(0));
    }
}
