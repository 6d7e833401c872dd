//! Result export: every experiment binary can drop its data as JSON next
//! to the human-readable table, for downstream plotting, and every run's
//! `obs` metric snapshot as JSON-lines for diffing across runs.
//!
//! The JSONL side is a per-process metric log: experiment
//! modules call [`record`] (or [`record_scalars`]) as they execute, and
//! the figure binary flushes everything with [`write_metrics`] at the
//! end. The log is thread-local — each binary is single-threaded at the
//! harness level, so one log per process is exactly one log per figure.
//!
//! The binaries that keep a committed regression baseline write and check
//! it through one routine, [`baseline_gate`].

use serde::Serialize;
use std::cell::RefCell;
use std::path::Path;

/// Serialize `data` as pretty JSON into `path`. Panics on I/O failure —
/// the harness treats an unwritable results directory as fatal.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, data: &T) {
    let path = path.as_ref();
    let json = serde_json::to_string_pretty(data).expect("experiment data serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Standard location for a figure's JSON dump: `<name>.json` in the
/// current directory (the harness is run from `results/`).
pub fn json_path(name: &str) -> String {
    format!("{name}.json")
}

/// Standard location for a figure's JSON-lines metric dump.
pub fn jsonl_path(name: &str) -> String {
    format!("{name}.metrics.jsonl")
}

thread_local! {
    static METRICS_LOG: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Append one executor run's `obs` snapshot (and trace digest, when the
/// run captured one) to the pending metric log under the label `run`.
/// The run header carries the report's scheduler name, so logs from
/// different policies stay distinguishable when diffed.
pub fn record(run: &str, report: &runtime::RunReport) {
    let text = obs::jsonl::render_with_scheduler(
        run,
        Some(&report.scheduler),
        &report.metrics,
        report.trace.as_ref(),
    );
    METRICS_LOG.with(|log| log.borrow_mut().push_str(&text));
}

/// Append scalar results from an experiment that does not go through an
/// executor (roofline analysis, STREAM, NetPIPE): each `(name, value)`
/// becomes an `obs` counter under the label `run`.
pub fn record_scalars(run: &str, values: &[(&str, u64)]) {
    let snapshot = obs::MetricsSnapshot::from_counters(values.iter().copied());
    let text = obs::jsonl::render(run, &snapshot, None);
    METRICS_LOG.with(|log| log.borrow_mut().push_str(&text));
}

/// Take the accumulated metric log, leaving it empty.
pub fn drain_metrics() -> String {
    METRICS_LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// Flush the accumulated metric log to `<name>.metrics.jsonl` and return
/// the path. Writes an empty file if nothing was recorded, so a figure's
/// metric artifact always exists.
pub fn write_metrics(name: &str) -> String {
    let path = jsonl_path(name);
    let text = drain_metrics();
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote metrics to {path}");
    path
}

/// What a baseline-managing binary does with its run's scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Report only.
    Off,
    /// `--baseline`: write the scalars to the baseline file.
    Write,
    /// `--check`: diff them against the committed file; exit 1 on drift.
    Check,
}

/// The `--baseline` / `--check` step shared by `stencil-doctor` and
/// `stencil-whatif`. `Write` stores `current` in `file`. `Check` reads
/// the committed baseline from `file` (exit 2 when unreadable), compares
/// it with `current` under `band`, adds `run_violations` (failures the
/// current run shows on its own), and exits 1 if any line results.
/// Returns the committed baseline after a passing check.
pub fn baseline_gate(
    mode: BaselineMode,
    file: &str,
    current: &insight::Baseline,
    band: impl Fn(&str) -> insight::Band,
    run_violations: Vec<String>,
) -> Option<insight::Baseline> {
    match mode {
        BaselineMode::Off => None,
        BaselineMode::Write => {
            std::fs::write(file, current.to_json()).expect("write baseline file");
            println!("\nwrote {} scalars to {file}", current.scalars.len());
            None
        }
        BaselineMode::Check => {
            let committed = std::fs::read_to_string(file)
                .map_err(|e| {
                    format!("cannot read baseline {file}: {e} (run with --baseline first)")
                })
                .and_then(|text| {
                    insight::Baseline::from_json(&text)
                        .map_err(|e| format!("cannot parse baseline {file}: {e}"))
                })
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            let mut violations = committed.compare(current, band);
            violations.extend(run_violations);
            if !violations.is_empty() {
                eprintln!("\nbaseline check FAILED against {file}:");
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
            println!("\nbaseline check OK against {file}");
            Some(committed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_valid_json() {
        let dir = std::env::temp_dir().join("bench_report_test.json");
        write_json(&dir, &vec![1, 2, 3]);
        let back: Vec<i32> = serde_json::from_str(&std::fs::read_to_string(&dir).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn json_path_format() {
        assert_eq!(json_path("fig7"), "fig7.json");
        assert_eq!(jsonl_path("fig7"), "fig7.metrics.jsonl");
    }

    #[test]
    fn metric_log_accumulates_and_drains() {
        drain_metrics(); // isolate from other tests on this thread
        record_scalars("unit", &[("alpha", 3), ("beta", 5)]);
        record_scalars("unit2", &[("alpha", 1)]);
        let text = drain_metrics();
        let runs = obs::jsonl::parse(&text).expect("log parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, "unit");
        assert_eq!(runs[0].1.counter("alpha"), 3);
        assert_eq!(runs[0].1.counter("beta"), 5);
        assert_eq!(runs[1].1.counter("alpha"), 1);
        assert!(drain_metrics().is_empty(), "drain leaves the log empty");
    }

    #[test]
    fn executor_runs_land_in_the_log() {
        use runtime::{run, DtdBuilder, RunConfig};
        drain_metrics();
        let mut b = DtdBuilder::new();
        let root = b.insert(0, 0.0, &[]);
        b.insert(0, 0.0, &[root]);
        let r = run(&b.build(), &RunConfig::shared_memory(2));
        record("dtd", &r);
        let text = drain_metrics();
        let runs = obs::jsonl::parse(&text).expect("log parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1.counter(obs::names::TASKS_EXECUTED), 2);
    }
}
