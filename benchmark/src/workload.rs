//! The measurement protocol every workload goes through.
//!
//! Closed loop, one operation at a time. An operation is set-up → run →
//! verify; set-up and run are timed separately, verification never is.
//! After two untimed warm-ups, operations repeat until the time budget is
//! spent. Set-up time is reported as the median of its samples, run time
//! as the fastest (see [`crate::stats::fastest`]); quartiles and the
//! sample count are printed beside both.

use crate::golden::Golden;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub const WARMUPS: usize = 2;
/// Fewest timed operations per phase, however short the budget.
pub const MIN_OPS: usize = 3;
/// An operation slower than this multiple of the phase's median has
/// stalled, and counts as failed.
pub const STALL_FACTOR: f64 = 10.0;

pub trait Workload {
    /// What set-up hands to the run.
    type Ready;
    /// What the run hands to verification.
    type Output;

    /// Tasks one operation executes, simulates or analyses.
    fn tasks(&self) -> u64;
    /// Nominal stencil flops (`9·n²·iters`, redundant CA work excluded) of
    /// the programs one operation processes.
    fn nominal_flops(&self) -> f64;
    /// Everything a user runs before the operation.
    fn setup(&self, rec: &mut Recorder, traced: bool) -> Self::Ready;
    /// The operation itself.
    fn run(&self, ready: &Self::Ready, rec: &mut Recorder, traced: bool) -> Self::Output;
    /// Is the output correct? Exact values go through `golden`.
    fn verify(
        &self,
        ready: &Self::Ready,
        out: &Self::Output,
        golden: &mut Golden,
    ) -> Result<(), String>;
    /// Per-layer metrics of the traced run: what the last traced
    /// operation's output shows, plus this workload's layer probes.
    fn layers(&self, last: &Self::Output, phases: &Phases, rec: &Recorder, m: &mut Metrics);
}

/// Timings of one measurement phase.
#[derive(Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    /// Resident-set high-water mark reached during each operation, MB.
    pub peak_rss_mb: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.setup_s.extend(other.setup_s);
        self.run_s.extend(other.run_s);
        self.peak_rss_mb.extend(other.peak_rss_mb);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Fastest run times of the two phases, which the layer metrics are
/// ratios against.
pub struct Phases {
    pub untraced_run_s: f64,
    pub traced_run_s: f64,
}

/// What one successful operation measured.
struct Sample<O> {
    setup_s: f64,
    run_s: f64,
    peak_rss_mb: Option<f64>,
    out: O,
}

/// One operation; a panic anywhere inside it is a failed operation.
fn operation<W: Workload>(
    w: &W,
    rec: &mut Recorder,
    traced: bool,
    golden: &mut Golden,
) -> Result<Sample<W::Output>, String> {
    rec.next_op();
    crate::host::reset_peak_rss();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rec.span("workload", |rec| {
            let clock = Instant::now();
            let ready = rec.span("setup", |rec| w.setup(rec, traced));
            let setup_s = clock.elapsed().as_secs_f64();
            let clock = Instant::now();
            let out = rec.span("run", |rec| w.run(&ready, rec, traced));
            let run_s = clock.elapsed().as_secs_f64();
            let peak_rss_mb = crate::host::peak_rss_mb();
            rec.span("verify", |_| w.verify(&ready, &out, golden))
                .map(|()| Sample {
                    setup_s,
                    run_s,
                    peak_rss_mb,
                    out,
                })
        })
    }));
    outcome.unwrap_or_else(|panic| {
        rec.abandon_open();
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {what}"))
    })
}

/// Repeat operations for `budget` (at least [`MIN_OPS`] of them) and
/// return the timings with the last successful output.
pub fn measure<W: Workload>(
    w: &W,
    rec: &mut Recorder,
    traced: bool,
    golden: &mut Golden,
    budget: Duration,
) -> (Phase, Option<W::Output>) {
    let mut phase = Phase::default();
    let mut last = None;
    let clock = Instant::now();
    while clock.elapsed() < budget || (phase.attempted as usize) < MIN_OPS {
        phase.attempted += 1;
        match operation(w, rec, traced, golden) {
            Ok(sample) => {
                phase.setup_s.push(sample.setup_s);
                phase.run_s.push(sample.run_s);
                phase.peak_rss_mb.extend(sample.peak_rss_mb);
                last = Some(sample.out);
            }
            Err(why) => phase.failures.push(why),
        }
        // A workload that fails every time must not spin past its budget.
        if phase.failures.len() >= MIN_OPS && phase.run_s.is_empty() {
            break;
        }
    }
    let limit = STALL_FACTOR * crate::stats::median(&phase.run_s);
    for i in (0..phase.run_s.len()).rev() {
        if phase.run_s[i] > limit {
            let slow = phase.run_s.remove(i);
            phase.setup_s.remove(i);
            if i < phase.peak_rss_mb.len() {
                phase.peak_rss_mb.remove(i);
            }
            phase.failures.push(format!(
                "stalled: ran {slow:.4} s, over {STALL_FACTOR} × the median"
            ));
        }
    }
    (phase, last)
}

/// Warm-ups: verified and counted like any operation, never timed.
pub fn warm_up<W: Workload>(w: &W, golden: &mut Golden) -> Phase {
    let mut phase = Phase::default();
    for _ in 0..WARMUPS {
        phase.attempted += 1;
        if let Err(why) = operation(w, &mut Recorder::new(false), false, golden) {
            phase.failures.push(why);
        }
    }
    phase
}

/// The untraced run: end-to-end timings over the whole budget.
pub fn run_untraced<W: Workload>(w: &W, golden: &mut Golden, budget: Duration) -> Phase {
    let mut all = warm_up(w, golden);
    let (timed, _) = measure(w, &mut Recorder::new(false), false, golden, budget);
    all.absorb(timed);
    all
}

/// The traced run: a short untraced phase for reference, a traced phase
/// with the span recorder on, then the workload's layer probes.
pub fn run_traced<W: Workload>(
    w: &W,
    golden: &mut Golden,
    budget: Duration,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Phase {
    let mut all = warm_up(w, golden);
    let (untraced, _) = measure(
        w,
        &mut Recorder::new(false),
        false,
        golden,
        budget.mul_f64(0.3),
    );
    let (traced, last) = measure(w, rec, true, golden, budget.mul_f64(0.3));
    let phases = Phases {
        untraced_run_s: crate::stats::fastest(&untraced.run_s),
        traced_run_s: crate::stats::fastest(&traced.run_s),
    };
    m.set("harness.untraced_run_s", phases.untraced_run_s);
    m.set("harness.traced_run_s", phases.traced_run_s);
    m.set("harness.untraced_ops", untraced.run_s.len() as f64);
    m.set("harness.traced_ops", traced.run_s.len() as f64);
    if phases.untraced_run_s > 0.0 {
        m.set(
            "obs.trace_overhead_frac",
            phases.traced_run_s / phases.untraced_run_s - 1.0,
        );
    }
    if let Some(last) = &last {
        w.layers(last, &phases, rec, m);
    }
    all.absorb(untraced);
    all.absorb(traced);
    all
}

/// The `obs` layer's share of a traced engine run: the tracer's own
/// overhead, what it dropped, and what exporting the trace costs.
pub fn obs_layer(report: &runtime::RunReport, m: &mut Metrics) {
    let trace = report.trace.as_ref().expect("traced run carries its trace");
    m.set("obs.tracer_self_frac", report.overhead.fraction());
    m.set("obs.dropped_spans", trace.dropped as f64);
    let clock = Instant::now();
    let chrome = obs::chrome::to_chrome_json(trace);
    m.set("obs.chrome_export_s", clock.elapsed().as_secs_f64());
    let clock = Instant::now();
    let jsonl = obs::jsonl::render("traced", &report.metrics, Some(trace));
    m.set("obs.jsonl_export_s", clock.elapsed().as_secs_f64());
    std::hint::black_box((chrome, jsonl));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A workload whose n-th operation misbehaves on request.
    struct Scripted {
        ops: Cell<u32>,
        panic_on: Option<u32>,
        wrong_on: Option<u32>,
        stall_on: Option<u32>,
    }

    impl Workload for Scripted {
        type Ready = u32;
        type Output = u32;
        fn tasks(&self) -> u64 {
            1
        }
        fn nominal_flops(&self) -> f64 {
            1.0
        }
        fn setup(&self, _: &mut Recorder, _: bool) -> u32 {
            self.ops.set(self.ops.get() + 1);
            self.ops.get()
        }
        fn run(&self, op: &u32, rec: &mut Recorder, _: bool) -> u32 {
            assert!(Some(*op) != self.panic_on, "scripted panic");
            let pause = if Some(*op) == self.stall_on { 60 } else { 1 };
            rec.span("runtime.engine", |_| {
                std::thread::sleep(Duration::from_millis(pause))
            });
            *op
        }
        fn verify(&self, _: &u32, op: &u32, _: &mut Golden) -> Result<(), String> {
            if Some(*op) == self.wrong_on {
                Err("scripted wrong answer".into())
            } else {
                Ok(())
            }
        }
        fn layers(&self, _: &u32, _: &Phases, _: &Recorder, _: &mut Metrics) {}
    }

    fn scripted(panic_on: Option<u32>, wrong_on: Option<u32>, stall_on: Option<u32>) -> Scripted {
        Scripted {
            ops: Cell::new(0),
            panic_on,
            wrong_on,
            stall_on,
        }
    }

    fn golden() -> Golden {
        Golden::load("no-such-workload", false).unwrap()
    }

    #[test]
    fn clean_run_counts_every_operation_and_fails_none() {
        let w = scripted(None, None, None);
        let phase = run_untraced(&w, &mut golden(), Duration::from_millis(20));
        assert!(phase.failures.is_empty(), "{:?}", phase.failures);
        assert_eq!(phase.attempted, u64::from(w.ops.get()));
        assert_eq!(phase.run_s.len() + WARMUPS, phase.attempted as usize);
        assert!(phase.run_s.len() >= MIN_OPS);
        assert_eq!(phase.setup_s.len(), phase.run_s.len());
    }

    #[test]
    fn panics_wrong_answers_and_stalls_are_failed_operations() {
        let w = scripted(Some(4), Some(5), Some(6));
        let mut rec = Recorder::new(true);
        let (phase, last) = measure(
            &w,
            &mut rec,
            true,
            &mut golden(),
            Duration::from_millis(150),
        );
        assert_eq!(phase.failures.len(), 3, "{:?}", phase.failures);
        assert!(phase.failures[0].contains("scripted panic"));
        assert!(phase.failures[1].contains("wrong answer"));
        assert!(phase.failures[2].contains("stalled"));
        assert_eq!(phase.run_s.len() as u64 + 3, phase.attempted);
        assert!(last.is_some());
        // the panicking op left no half-open span behind
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots as u64, phase.attempted - 1);
    }

    #[test]
    fn a_workload_that_always_fails_stops_early() {
        struct Broken;
        impl Workload for Broken {
            type Ready = ();
            type Output = ();
            fn tasks(&self) -> u64 {
                1
            }
            fn nominal_flops(&self) -> f64 {
                1.0
            }
            fn setup(&self, _: &mut Recorder, _: bool) {}
            fn run(&self, _: &(), _: &mut Recorder, _: bool) {}
            fn verify(&self, _: &(), _: &(), _: &mut Golden) -> Result<(), String> {
                Err("always".into())
            }
            fn layers(&self, _: &(), _: &Phases, _: &Recorder, _: &mut Metrics) {}
        }
        let phase = run_untraced(&Broken, &mut golden(), Duration::from_secs(3600));
        assert_eq!(phase.attempted as usize, WARMUPS + MIN_OPS);
        assert_eq!(phase.failures.len(), WARMUPS + MIN_OPS);
    }
}
