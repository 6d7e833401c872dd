//! The benchmark's vocabulary: every workload and every metric it may
//! print, with unit, direction and (end to end) regression bound. These
//! tables are the source `BENCHMARK.json` is checked against.

use crate::stats::Summary;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics, which are never gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "shm_kernel_bound",
        why: "shared-memory base solve, 512-wide tiles over a 68 MB working set: the jacobi kernel is about 90 % of the run, dispatch about 1 %",
    },
    WorkloadDef {
        name: "shm_dispatch_bound",
        why: "same engine and scheme on 16-wide tiles: dispatch, deques, pending table and strip copies are most of the run, the kernel little",
    },
    WorkloadDef {
        name: "mp_base_halo",
        why: "multi-process engine, 2 nodes, base scheme: one 256 B halo message per boundary tile per iteration sits on the critical path",
    },
    WorkloadDef {
        name: "mp_ca_halo",
        why: "same problem with the CA scheme (s=5): fewer, deeper strips plus corners and redundant flops through the same messaging layer",
    },
    WorkloadDef {
        name: "sim_nacl16",
        why: "simulated NaCL cluster, 16 nodes, Figure 8/10 configuration, base then CA: only unfold, the event loop and report assembly run",
    },
    WorkloadDef {
        name: "tooling_lint_doctor",
        why: "static analysis with races and dataflow, comm-matrix check, diagnosis and what-if ranking of a CA program: only analyze/insight work",
    },
];

pub const END_TO_END: [MetricDef; 5] = [
    e2e("run_s", "s", false, 0.20),
    e2e("gflops", "GFLOP/s", true, 0.20),
    e2e("tasks_per_s", "1/s", true, 0.20),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Every per-layer metric, in report order. A workload prints 0 for a
/// layer that does no work on it.
pub const PER_LAYER: [MetricDef; 73] = [
    // host fingerprint
    up("host.nproc", "count"),
    up("host.llc_mb", "MB"),
    up("machine.stream.triad_gbs", "GB/s"),
    up("machine.stream.array_mb", "MB"),
    // the harness's own span ledger, per traced operation
    down("harness.traced_op_s", "s"),
    up("harness.traced_ops", "count"),
    down("harness.core_self_s", "s"),
    down("harness.runtime_self_s", "s"),
    down("harness.analyze_self_s", "s"),
    down("harness.insight_self_s", "s"),
    down("harness.verify_self_s", "s"),
    down("harness.unattributed_s", "s"),
    down("harness.layer_sum_err_frac", "frac"),
    // core::tile kernel
    down("core.tile.kernel_only_s", "s"),
    up("core.tile.jacobi_gflops", "GFLOP/s"),
    up("core.tile.jacobi_gbs_computed", "GB/s"),
    up("core.tile.jacobi_roofline_frac", "frac"),
    up("core.tile.jacobi_cached_gflops", "GFLOP/s"),
    up("core.tile.kernel_share", "frac"),
    up("core.tile.ca_extent_gflops", "GFLOP/s"),
    down("core.ca.redundant_flops", "count"),
    // core::tile strips
    down("core.tile.strip_pair_ns", "ns"),
    down("core.tile.corner_pair_ns", "ns"),
    down("core.tile.strip_bytes", "B"),
    // core builders and reference
    down("core.build.s", "s"),
    up("core.reference.gflops", "GFLOP/s"),
    up("core.reference.speedup", "x"),
    // runtime dispatch and the real engines
    down("runtime.dispatch.chain_ns_per_task", "ns"),
    down("runtime.dispatch.fan_ns_per_task", "ns"),
    down("runtime.dispatch.steal_storm_ns_per_task", "ns"),
    down("runtime.real_exec.ns_per_task", "ns"),
    down("runtime.real_exec.overhead_ns_per_task", "ns"),
    up("runtime.real_exec.occupancy", "frac"),
    down("runtime.real_exec.steals", "count"),
    down("runtime.real_exec.steal_fails", "count"),
    down("runtime.real_exec.overflow_pushes", "count"),
    down("runtime.metg50_us", "us"),
    // runtime::mp_exec
    down("runtime.mp_exec.msgs", "count"),
    down("runtime.mp_exec.bytes", "B"),
    down("runtime.mp_exec.msg_latency_p50_us", "us"),
    down("runtime.mp_exec.msg_queue_p50_us", "us"),
    down("runtime.mp_exec.msg_latency_p99_us", "us"),
    up("runtime.mp_exec.msg_samples", "count"),
    up("runtime.mp_exec.occupancy", "frac"),
    down("runtime.mp_exec.vs_shm_ratio", "x"),
    // runtime::{unfold, sim_exec}, desim
    down("runtime.unfold.s", "s"),
    up("runtime.unfold.tasks_per_s", "1/s"),
    down("runtime.sim_exec.base_host_s", "s"),
    down("runtime.sim_exec.ca_host_s", "s"),
    down("runtime.sim_exec.host_ns_per_task", "ns"),
    down("runtime.sim_exec.msgs", "count"),
    down("runtime.sim_exec.base_makespan_sim_s", "sim_s"),
    down("runtime.sim_exec.ca_makespan_sim_s", "sim_s"),
    up("desim.engine.events_per_s", "1/s"),
    // obs
    down("obs.trace_overhead_frac", "frac"),
    down("obs.tracer_self_frac", "frac"),
    down("obs.dropped_spans", "count"),
    down("obs.chrome_export_s", "s"),
    down("obs.jsonl_export_s", "s"),
    // analyze, insight
    down("analyze.unfold_s", "s"),
    down("analyze.structural_s", "s"),
    down("analyze.races_s", "s"),
    down("analyze.races_share", "frac"),
    down("analyze.dataflow_s", "s"),
    down("analyze.comm_matrix_s", "s"),
    down("analyze.mutant_s", "s"),
    up("analyze.tasks_per_s", "1/s"),
    down("insight.diagnose_s", "s"),
    down("insight.whatif_rank_s", "s"),
    // untraced reference points the ratios above are taken against
    down("harness.untraced_run_s", "s"),
    down("harness.traced_run_s", "s"),
    up("harness.untraced_ops", "count"),
    down("harness.reference_s", "s"),
];

/// Values collected during one run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The values of `table`'s metrics in table order, 0 where unset.
    /// A name outside the table is a bug in the harness, as is a value
    /// that is not a finite number.
    pub fn resolve<'a>(&self, table: &'a [MetricDef]) -> Result<Vec<(&'a MetricDef, f64)>, String> {
        if let Some((name, _)) = self
            .0
            .iter()
            .find(|(n, _)| table.iter().all(|d| d.name != *n))
        {
            return Err(format!("metric {name} is not in the table"));
        }
        table
            .iter()
            .map(|d| match self.get(d.name).unwrap_or(0.0) {
                v if v.is_finite() => Ok((d, v)),
                v => Err(format!("metric {} is {v}", d.name)),
            })
            .collect()
    }
}

/// One human-readable report line.
pub fn describe(def: &MetricDef, value: f64, samples: Option<&Summary>) -> String {
    let spread = samples.map_or(String::new(), |s| {
        format!(
            "  [min {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, n={}, spread {:.1} %]",
            s.min,
            s.q1,
            s.median,
            s.q3,
            s.n,
            s.spread() * 100.0
        )
    });
    let bound = if def.bound > 0.0 {
        format!(", bound {:.0} %", def.bound * 100.0)
    } else {
        String::new()
    };
    format!(
        "  {:<42} {:>16.6} {:<8}{spread}  ({} is better{bound})",
        def.name,
        value,
        def.unit,
        if def.higher { "higher" } else { "lower" },
    )
}

/// The last line of standard output: the contract's result object.
pub fn result_json(attempted: u64, failed: u64, values: &[(&MetricDef, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use serde::Value;

    #[test]
    fn names_and_units_obey_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root says what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strs = |v: &Value| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strs(v.field("command")), ["bash", "benchmark/run.sh"]);
        assert_eq!(strs(v.field("paths")), ["benchmark"]);
        let secs = v.field("run_seconds").as_u64().unwrap();
        assert!((1..=60).contains(&secs));

        let workloads = v.field("workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.as_object().unwrap().len(), 2);
            assert_eq!(j.field("name").as_str(), Some(w.name));
            assert_eq!(j.field("why").as_str(), Some(w.why));
        }
        let check = |key: &str, table: &[MetricDef], bounded: bool| {
            let listed = v.field(key).as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, d) in listed.iter().zip(table) {
                assert_eq!(j.as_object().unwrap().len(), if bounded { 4 } else { 3 });
                assert_eq!(j.field("name").as_str(), Some(d.name));
                assert_eq!(j.field("unit").as_str(), Some(d.unit), "{}", d.name);
                let better = if d.higher { "higher" } else { "lower" };
                assert_eq!(j.field("better").as_str(), Some(better), "{}", d.name);
                if bounded {
                    assert_eq!(j.field("bound").as_f64(), Some(d.bound), "{}", d.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
    }

    #[test]
    fn resolve_fills_zeros_and_rejects_strays() {
        let mut m = Metrics::default();
        m.set("run_s", 0.5);
        m.set("run_s", 0.25);
        let got = m.resolve(&END_TO_END).unwrap();
        assert_eq!(got.len(), END_TO_END.len());
        assert_eq!((got[0].0.name, got[0].1), ("run_s", 0.25));
        assert_eq!(got[1].1, 0.0);
        m.set("host.nproc", 2.0);
        assert!(m.resolve(&END_TO_END).unwrap_err().contains("host.nproc"));
        let mut nan = Metrics::default();
        nan.set("gflops", f64::NAN);
        assert!(nan.resolve(&END_TO_END).is_err());
    }

    #[test]
    fn result_line_is_the_contracts_object() {
        let mut m = Metrics::default();
        m.set("run_s", 0.1234567890123);
        let line = result_json(12, 0, &m.resolve(&END_TO_END).unwrap());
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.field("correct"), &Value::Bool(true));
        assert_eq!(v.field("attempted").as_u64(), Some(12));
        let run = v.field("metrics").field("run_s");
        assert_eq!(run.field("value").as_f64(), Some(0.1234567890123));
        assert_eq!(run.field("unit").as_str(), Some("s"));
        assert_eq!(
            v.field("metrics").as_object().unwrap().len(),
            END_TO_END.len()
        );
        assert!(result_json(3, 1, &[]).contains("\"correct\": false"));
    }
}
