//! `stencil-perf`: the repository's benchmark.
//!
//! Six workloads, each dominated by a different layer, measured from
//! outside through the first-party crates' public calls. One invocation
//! runs one workload in one process (`--workload <name>`), prints every
//! metric by name with its unit, and ends with the result object
//! `BENCHMARK.json` describes; `--workload all` and `--selfcheck` re-run
//! this binary once per workload. See `README.md` beside `Cargo.toml`.

mod golden;
mod host;
mod metrics;
mod probes;
mod real;
mod sim;
mod spans;
mod stats;
mod tooling;
mod workload;

use golden::Golden;
use metrics::{describe, result_json, MetricDef, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use real::{Engine, Real, RealSpec};
use sim::{Sim, SimSpec};
use spans::Recorder;
use stats::summarize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use tooling::Tooling;
use workload::{run_traced, run_untraced, Workload};

const USAGE: &str = "usage: stencil-perf [--workload <name>|all] [--seed <u64>] \
[--seconds <n>] [--trace 0|1] [--update-golden] [--selfcheck]";

// Workload sizes: fixed, chosen for a 2-core host so that one operation
// takes 0.1 – 0.8 s and the named layer dominates it (README.md has the
// measured shares).

const SHM_KERNEL_BOUND: RealSpec = RealSpec {
    engine: Engine::SharedMemory,
    ca: false,
    n: 2048,
    tile: 512,
    iters: 50,
    grid: (1, 1),
    steps: 1,
    workers: 2,
    roofline: true,
    dispatch_probes: false,
};

const SHM_DISPATCH_BOUND: RealSpec = RealSpec {
    n: 1024,
    tile: 16,
    iters: 15,
    roofline: false,
    dispatch_probes: true,
    ..SHM_KERNEL_BOUND
};

const MP_BASE_HALO: RealSpec = RealSpec {
    engine: Engine::MultiProcess,
    ca: false,
    n: 1024,
    tile: 32,
    iters: 60,
    grid: (2, 1),
    steps: 5,
    workers: 1,
    roofline: false,
    dispatch_probes: false,
};

const MP_CA_HALO: RealSpec = RealSpec {
    ca: true,
    ..MP_BASE_HALO
};

/// The Figure 8/10 configuration of the paper, shortened to 20 sweeps.
const SIM_NACL16: SimSpec = SimSpec {
    n: 23_040,
    tile: 288,
    iters: 20,
    grid: 4,
    steps: 15,
    ratio: 0.4,
};

const TOOLING_LINT_DOCTOR: SimSpec = SimSpec {
    n: 6912,
    tile: 288,
    iters: 20,
    grid: 4,
    steps: 5,
    ratio: 0.4,
};

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    update_golden: bool,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        update_golden: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--update-golden" => opts.update_golden = true,
            "--selfcheck" => opts.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload != "all" && WORKLOADS.iter().all(|w| w.name != opts.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; one of: all, {}",
            opts.workload,
            names.join(", ")
        ));
    }
    Ok(opts)
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Run one workload in this process and print its report.
fn drive<W: Workload>(w: &W, opts: &Opts) -> Result<bool, String> {
    let mut golden = Golden::load(&opts.workload, opts.update_golden)?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut m = Metrics::default();
    let mut summaries = Vec::new();

    let (phase, table): (_, &[MetricDef]) = if opts.trace {
        let mut rec = Recorder::new(true);
        let phase = run_traced(w, &mut golden, budget, &mut rec, &mut m);
        ledger(&rec, &mut m);
        m.set("host.nproc", host::nproc() as f64);
        m.set("host.llc_mb", host::llc_bytes().unwrap_or(0) as f64 / 1e6);
        let out = package_dir().join("out");
        let file = out.join(format!("{}.trace.json", opts.workload));
        std::fs::create_dir_all(&out)
            .and_then(|()| {
                std::fs::write(&file, spans::to_chrome_json(rec.spans(), &opts.workload))
            })
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("harness spans: {}", file.display());
        (phase, &PER_LAYER)
    } else {
        let phase = run_untraced(w, &mut golden, budget);
        let run = summarize(&phase.run_s).ok_or("no operation succeeded")?;
        let setup = summarize(&phase.setup_s).ok_or("no operation succeeded")?;
        m.set("run_s", run.min);
        m.set("gflops", w.nominal_flops() / run.min / 1e9);
        m.set("tasks_per_s", w.tasks() as f64 / run.min);
        m.set("setup_s", setup.median);
        let rss = summarize(&phase.peak_rss_mb).ok_or("no VmHWM in /proc/self/status")?;
        m.set("peak_rss_mb", rss.median);
        summaries = vec![("run_s", run), ("setup_s", setup), ("peak_rss_mb", rss)];
        (phase, &END_TO_END)
    };

    for why in &phase.failures {
        eprintln!("FAILED operation: {why}");
    }
    let failed = phase.failures.len() as u64;
    println!(
        "workload {} seed {} on {} cpus — {} operations attempted, {failed} failed",
        opts.workload,
        opts.seed,
        host::nproc(),
        phase.attempted,
    );
    let values = m.resolve(table)?;
    for (def, value) in &values {
        let samples = summaries
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, s)| s);
        println!("{}", describe(def, *value, samples));
    }
    if opts.update_golden {
        if failed == 0 {
            golden.save(&package_dir().join("golden.json"))?;
            println!(
                "golden.json: section {} rewritten; rebuild to use it",
                opts.workload
            );
        } else {
            eprintln!("golden.json left alone: operations failed");
        }
    }
    println!("{}", result_json(phase.attempted, failed, &values));
    Ok(failed == 0)
}

/// The span ledger of the traced phase, per traced operation.
fn ledger(rec: &Recorder, m: &mut Metrics) {
    let a = spans::attribute(rec.spans());
    let ops = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .count()
        .max(1) as f64;
    m.set("harness.traced_op_s", a.wall_s / ops);
    for (name, layer) in [
        ("harness.core_self_s", "core"),
        ("harness.runtime_self_s", "runtime"),
        ("harness.analyze_self_s", "analyze"),
        ("harness.insight_self_s", "insight"),
        ("harness.verify_self_s", "verify"),
    ] {
        m.set(name, a.layer_s(layer) / ops);
    }
    m.set("harness.unattributed_s", a.unattributed_s / ops);
    m.set("harness.layer_sum_err_frac", a.sum_error_frac());
}

fn run_one(opts: &Opts) -> Result<bool, String> {
    match opts.workload.as_str() {
        "shm_kernel_bound" => drive(&Real::new(SHM_KERNEL_BOUND, opts.seed), opts),
        "shm_dispatch_bound" => drive(&Real::new(SHM_DISPATCH_BOUND, opts.seed), opts),
        "mp_base_halo" => drive(&Real::new(MP_BASE_HALO, opts.seed), opts),
        "mp_ca_halo" => drive(&Real::new(MP_CA_HALO, opts.seed), opts),
        "sim_nacl16" => drive(&Sim::new(SIM_NACL16), opts),
        "tooling_lint_doctor" => drive(&Tooling::new(TOOLING_LINT_DOCTOR), opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run `workload` in a process of its own (so `peak_rss_mb` is that
/// workload's alone), pass its output through, and return the metrics of
/// its result object when it succeeded.
fn child(opts: &Opts, workload: &str, trace: bool) -> Result<Option<Vec<(String, f64)>>, String> {
    let exe: PathBuf = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.update_golden {
        cmd.arg("--update-golden");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Ok(None);
    }
    let last = text.lines().last().ok_or("child printed nothing")?;
    let v: serde::Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let metrics = v
        .field("metrics")
        .as_object()
        .ok_or("result has no metrics")?;
    Ok(Some(
        metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.field("value").as_f64()?)))
            .collect(),
    ))
}

/// Every workload, untraced then traced, one process each.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("\n=== {} (trace {}) — {}", w.name, u8::from(trace), w.why);
            ok &= child(opts, w.name, trace)?.is_some();
        }
    }
    println!(
        "\n{}",
        if ok {
            "all workloads correct"
        } else {
            "SOME WORKLOADS FAILED"
        }
    );
    Ok(ok)
}

/// Two complete untraced sets back to back; every end-to-end metric of
/// the second must be within its bound of the first.
fn selfcheck(opts: &Opts) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 1..=2 {
        for w in &WORKLOADS {
            println!("\n=== set {set}: {}", w.name);
            let metrics = child(opts, w.name, false)?.ok_or(format!("{} failed", w.name))?;
            sets.push(metrics);
        }
    }
    let (first, second) = sets.split_at(WORKLOADS.len());
    let mut ok = true;
    println!("\nselfcheck: second set against first");
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
        for (def, ((_, a), (_, b))) in END_TO_END.iter().zip(a.iter().zip(b)) {
            let diff = (b - a).abs() / a;
            let verdict = if diff > def.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            ok &= diff <= def.bound;
            println!(
                "  {:<20} {:<12} {a:>14.6} {b:>14.6} {:>7.2} % of {:>3.0} %  {verdict}",
                w.name,
                def.name,
                diff * 100.0,
                def.bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| {
        if opts.selfcheck {
            selfcheck(&opts)
        } else if opts.workload == "all" {
            run_all(&opts)
        } else {
            run_one(&opts)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("stencil-perf: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Opts, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_takes_the_contracts_flags() {
        let o = args(&[
            "--workload",
            "mp_ca_halo",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("mp_ca_halo", 42, 7.0, true)
        );
        let o = args(&[]).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.trace), ("all", 1, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--json", "x"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// A workload at reduced size through the whole protocol, untraced and
    /// traced. Reduced sizes have no committed golden values, so the golden
    /// table runs in update mode (and is never saved).
    fn smoke<W: Workload>(w: &W, name: &str) {
        let mut golden = Golden::load(name, true).unwrap();
        let budget = Duration::from_millis(200);
        // At these sizes an operation takes well under a millisecond, so a
        // descheduled test thread looks like a stall; only wrong results count.
        let wrong = |phase: &workload::Phase| -> Vec<String> {
            let real = phase.failures.iter().filter(|f| !f.starts_with("stalled"));
            real.cloned().collect()
        };
        let phase = run_untraced(w, &mut golden, budget);
        assert!(wrong(&phase).is_empty(), "{name}: {:?}", phase.failures);
        assert!(phase.run_s.len() + 1 >= workload::MIN_OPS);
        assert!(w.tasks() > 0 && w.nominal_flops() > 0.0);

        let mut rec = Recorder::new(true);
        let mut m = Metrics::default();
        let phase = run_traced(w, &mut golden, budget, &mut rec, &mut m);
        assert!(wrong(&phase).is_empty(), "{name}: {:?}", phase.failures);
        ledger(&rec, &mut m);
        let values = m.resolve(&PER_LAYER).unwrap();
        let get = |n: &str| values.iter().find(|(d, _)| d.name == n).unwrap().1;
        assert!(get("harness.layer_sum_err_frac") < 0.01, "{name}");
        assert!(get("harness.traced_op_s") > 0.0);
        assert!(get("core.build.s") > 0.0);
        let a = spans::attribute(rec.spans());
        let known = ["core", "runtime", "analyze", "insight", "verify"];
        assert!(
            a.layers.iter().all(|(l, _)| known.contains(&l.as_str())),
            "{:?}",
            a.layers
        );
    }

    const SMALL_REAL: RealSpec = RealSpec {
        n: 64,
        tile: 16,
        iters: 6,
        roofline: false,
        dispatch_probes: false,
        ..SHM_KERNEL_BOUND
    };

    #[test]
    fn smoke_shm_kernel_bound_at_reduced_size() {
        smoke(&Real::new(SMALL_REAL, 3), "shm_kernel_bound");
    }

    #[test]
    fn smoke_mp_base_and_ca_at_reduced_size() {
        let base = RealSpec {
            n: 64,
            tile: 8,
            iters: 12,
            ..MP_BASE_HALO
        };
        smoke(&Real::new(base, 4), "mp_base_halo");
        smoke(&Real::new(RealSpec { ca: true, ..base }, 5), "mp_ca_halo");
    }

    #[test]
    fn smoke_sim_and_tooling_at_reduced_size() {
        let small = SimSpec {
            n: 1152,
            tile: 288,
            iters: 6,
            grid: 2,
            steps: 3,
            ratio: 0.4,
        };
        smoke(&Sim::new(small), "sim_nacl16");
        smoke(&Tooling::new(small), "tooling_lint_doctor");
    }

    #[test]
    fn a_wrong_reference_fails_every_operation() {
        // seed 3's reference against seed 4's solve
        let mut golden = Golden::load("x", true).unwrap();
        let w = Real::new(SMALL_REAL, 3).with_seed_for_test(4);
        let phase = run_untraced(&w, &mut golden, Duration::from_millis(50));
        assert_eq!(phase.failures.len() as u64, phase.attempted);
        assert!(phase.failures[0].contains("jacobi_reference"));
    }
}
