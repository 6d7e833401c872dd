//! Shared observability layer for every executor in the workspace.
//!
//! Both engines (the threaded engine and the discrete-event simulator)
//! describe what happened during a run in the same terms:
//!
//! * [`Recorder`] — a lossless span recorder: each thread appends to a
//!   private buffer and hands it to the recorder when it is done.
//!   Producers stamp spans with `u64` nanosecond timestamps from whatever
//!   clock they live on — [`WallClock`] for the real executors, virtual
//!   time for the simulator — so analysis code downstream cannot tell the
//!   difference. The tracer's own cost is measured ([`TracerOverhead`]).
//! * [`Live`] — a board of periodic [`LiveSample`] gauges (per-worker
//!   occupancy over a sliding window, read from per-lane [`BusyClock`]s,
//!   queue depths, network in-flight) the executors publish at a
//!   configurable cadence, observable mid-run by `stencil-top`.
//! * [`MetricsSnapshot`] — a run's counters and gauges (messages sent,
//!   bytes moved, redundant communication-avoiding flops, queue depths,
//!   …) under the standard [`names`], built once at the end of a run.
//! * Exporters — [`chrome`] renders a drained [`Trace`] as Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`) and
//!   parses it back; [`jsonl`] renders metric snapshots as JSON-lines for
//!   the bench harness. [`fig10`] computes the paper's Figure 10
//!   occupancy digest and Gantt views from the same spans.
//!
//! The crate is dependency-free apart from the (vendored) serde stack and
//! knows nothing about task graphs or executors; the `runtime` crate owns
//! the wiring.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod recorder;

pub mod chrome;
pub mod comm;
pub mod fig10;
pub mod hist;
pub mod jsonl;
pub mod sample;

pub use comm::{CommMatrix, MsgSpan, PeerFlow};
pub use hist::{DurationSummary, LogHistogram};
pub use metrics::{names, ExpectedCounters, GaugeValue, MetricsSnapshot};
pub use recorder::{
    per_event_cost_ns, LocalRecorder, MsgRecorder, RecordBuffer, Recorder, SpanRecord, Trace,
    TracerOverhead, WallClock,
};
pub use sample::{occupancy, window_busy, BusyClock, Live, LiveSample};

/// Span kind tag for communication activity, matching the simulator's
/// convention (task-class kinds are small integers; 1000 is the comm lane).
pub const KIND_COMM: u32 = 1000;
