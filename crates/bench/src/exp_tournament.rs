//! `stencil-tournament`: every scheme × every scheduler, judged.
//!
//! The pluggable [`runtime::Scheduler`] API makes dispatch order a knob;
//! this experiment turns the knob across the whole portfolio
//! ([`runtime::SchedulerHandle::portfolio`]) on every stencil scheme
//! (base, CA, PA2 when `s ≤ tile/2`, and the DTD front-end) over one
//! deterministic simulated configuration. Each cell is diagnosed with
//! [`insight::diagnose`] and condensed to an [`insight::SchedulerScore`]:
//! makespan against `analyze`'s static lower bound, realized-critical-path
//! "daylight", and worker-lane occupancy. The verdict names the first
//! list scheduler that strictly beats FIFO on the CA scheme — or
//! quantifies why none does.

use crate::statics;
use analyze::AnalyzeConfig;
use ca_stencil::{
    build_base, build_base_dtd, build_ca, build_pa2, kind_names, Problem, StencilConfig,
};
use insight::SchedulerScore;
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{Program, RunConfig, SchedulerHandle};
use serde::Serialize;

/// The tournament's run parameters (mirrors `stencil-doctor`'s flags).
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Grid edge length.
    pub n: usize,
    /// Tile edge length.
    pub tile: usize,
    /// Jacobi iterations.
    pub iters: u32,
    /// CA step size `s`.
    pub steps: usize,
    /// Process grid edge (`grid × grid` nodes).
    pub grid: u32,
    /// Kernel adjustment ratio.
    pub ratio: f64,
}

impl Default for TournamentConfig {
    /// The reference configuration — identical to
    /// [`crate::exp_doctor::DoctorConfig::default`], so tournament rows
    /// under the default policy describe the same runs the committed
    /// baseline pins.
    fn default() -> Self {
        TournamentConfig {
            n: 4608,
            tile: 288,
            iters: 10,
            steps: 5,
            grid: 4,
            ratio: 0.4,
        }
    }
}

impl TournamentConfig {
    /// A small sweep for CI's `--check` mode: every cell completes in
    /// milliseconds while still exercising cross-node edges and CA
    /// windows on a 2 × 2 grid.
    pub fn check() -> Self {
        TournamentConfig {
            n: 256,
            tile: 32,
            iters: 6,
            steps: 3,
            grid: 2,
            ratio: 0.4,
        }
    }

    /// The config-identity string printed in the report header.
    pub fn describe(&self) -> String {
        format!(
            "n={} tile={} iters={} steps={} grid={}x{} ratio={} profile=NaCL",
            self.n, self.tile, self.iters, self.steps, self.grid, self.grid, self.ratio
        )
    }
}

/// One (scheme, scheduler) cell of the tournament.
#[derive(Debug, Clone, Serialize)]
pub struct TournamentCell {
    /// The judged quantities.
    pub score: SchedulerScore,
    /// Tasks the run actually executed.
    pub tasks_executed: u64,
    /// Tasks the program declares; a shortfall means the schedule
    /// deadlocked or dropped work.
    pub tasks_total: u64,
}

impl TournamentCell {
    /// True when the run executed every declared task (deadlock-free).
    pub fn complete(&self) -> bool {
        self.tasks_executed == self.tasks_total
    }
}

/// One scheme's row of cells, every scheduler on the same program.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeTable {
    /// Scheme name (`base`, `ca`, `pa2`, `dtd`).
    pub scheme: String,
    /// Static makespan lower bound for the scheme, seconds.
    pub bound_s: f64,
    /// One cell per portfolio scheduler, in portfolio order.
    pub cells: Vec<TournamentCell>,
}

/// The whole tournament.
#[derive(Debug, Clone, Serialize)]
pub struct Tournament {
    /// The run parameters.
    pub config: String,
    /// Worker lanes per node.
    pub lanes: u32,
    /// One table per scheme.
    pub schemes: Vec<SchemeTable>,
    /// The judged outcome on the CA scheme.
    pub verdict: String,
}

/// Run every portfolio scheduler on every scheme of `tc`'s configuration.
pub fn run(tc: &TournamentConfig) -> Tournament {
    let profile = MachineProfile::nacl();
    let lanes = profile.compute_threads();
    let nodes = tc.grid * tc.grid;
    let cfg = StencilConfig::new(
        Problem::laplace(tc.n),
        tc.tile,
        tc.iters,
        ProcessGrid::new(tc.grid, tc.grid),
    )
    .with_steps(tc.steps)
    .with_ratio(tc.ratio)
    .with_profile(profile.clone());

    let mut programs: Vec<(&str, Program)> = vec![
        ("base", build_base(&cfg, false).program),
        ("ca", build_ca(&cfg, false).program),
    ];
    if tc.steps <= tc.tile / 2 {
        programs.push(("pa2", build_pa2(&cfg, false).program));
    } else {
        println!(
            "(pa2 skipped: steps {} > tile/2 = {})",
            tc.steps,
            tc.tile / 2
        );
    }
    programs.push(("dtd", build_base_dtd(&cfg)));

    let portfolio = SchedulerHandle::portfolio();
    let mut schemes = Vec::new();
    for (name, program) in &programs {
        // One unfolding per scheme serves the static bound, the span
        // join, and every list scheduler's rank table.
        let dag = analyze::unfold(program, &AnalyzeConfig::new());
        let cols = statics::predict_dag(&dag, lanes);
        let mut cells = Vec::new();
        for sched in &portfolio {
            let report = runtime::run(
                program,
                &RunConfig::simulated(profile.clone(), nodes)
                    .with_scheduler(sched.clone())
                    .with_trace()
                    .with_kind_names(kind_names()),
            );
            crate::report::record(&format!("tournament/{name}/{}", sched.name()), &report);
            let trace = report.trace.as_ref().expect("trace requested");
            let diag = insight::diagnose(trace, &dag, lanes);
            cells.push(TournamentCell {
                score: SchedulerScore::from_diagnosis(
                    &report.scheduler,
                    &diag,
                    cols.makespan_bound,
                ),
                tasks_executed: report.metrics.counter(obs::names::TASKS_EXECUTED),
                tasks_total: program.total_tasks,
            });
        }
        schemes.push(SchemeTable {
            scheme: name.to_string(),
            bound_s: cols.makespan_bound,
            cells,
        });
    }
    let verdict = judge(&schemes);
    Tournament {
        config: tc.describe(),
        lanes,
        schemes,
        verdict,
    }
}

/// The schedulers that order dispatch by a static rank (everything in the
/// portfolio past the FIFO/LIFO/priority shims).
const LIST_SCHEDULERS: [&str; 4] = ["heft", "peft", "dls", "lookahead"];

/// The FIFO cell and the best FIFO-beating list scheduler of one row
/// (lowest makespan among cells that win on makespan or occupancy).
fn best_winner(table: &SchemeTable) -> (Option<&TournamentCell>, Option<&TournamentCell>) {
    let Some(fifo) = table.cells.iter().find(|c| c.score.scheduler == "fifo") else {
        return (None, None);
    };
    let winner = table
        .cells
        .iter()
        .filter(|c| LIST_SCHEDULERS.contains(&c.score.scheduler.as_str()))
        .filter(|c| c.score.beats(&fifo.score))
        .min_by(|a, b| {
            a.score
                .makespan_s
                .partial_cmp(&b.score.makespan_s)
                .expect("finite makespans")
        });
    (Some(fifo), winner)
}

/// Judge the CA scheme's row — name the best list scheduler that strictly
/// beats FIFO (makespan or occupancy), or quantify why none does — then
/// note FIFO-beating list schedulers on the other schemes.
fn judge(schemes: &[SchemeTable]) -> String {
    let Some(ca) = schemes.iter().find(|s| s.scheme == "ca") else {
        return "no CA scheme in the sweep".to_string();
    };
    let (Some(fifo), winner) = best_winner(ca) else {
        return "no FIFO cell in the CA row".to_string();
    };
    let mut out = match winner {
        Some(w) => format!(
            "{} beats fifo on ca: makespan {:.6} s vs {:.6} s ({:+.2} %), occupancy {:.1} % vs {:.1} %",
            w.score.scheduler,
            w.score.makespan_s,
            fifo.score.makespan_s,
            100.0 * (w.score.makespan_s / fifo.score.makespan_s - 1.0),
            100.0 * w.score.occupancy,
            100.0 * fifo.score.occupancy,
        ),
        None => format!(
            "no list scheduler beats fifo on ca: fifo already runs at {:.3}x the static bound \
             with {:.6} s of critical-path daylight ({:.1} % wait) — the CA wavefront's FIFO \
             order already matches rank order, leaving rank policies only ties to reshuffle",
            fifo.score.bound_ratio,
            fifo.score.daylight_s,
            100.0 * fifo.score.daylight_fraction,
        ),
    };
    let elsewhere: Vec<String> = schemes
        .iter()
        .filter(|s| s.scheme != "ca")
        .filter_map(|s| {
            let (fifo, winner) = best_winner(s);
            let (f, w) = (fifo?, winner?);
            Some(format!(
                "{} beats fifo on {} ({:.6} s vs {:.6} s, {:+.2} %, occupancy {:.1} % vs {:.1} %)",
                w.score.scheduler,
                s.scheme,
                w.score.makespan_s,
                f.score.makespan_s,
                100.0 * (w.score.makespan_s / f.score.makespan_s - 1.0),
                100.0 * w.score.occupancy,
                100.0 * f.score.occupancy,
            ))
        })
        .collect();
    if !elsewhere.is_empty() {
        out.push_str(&format!("; elsewhere: {}", elsewhere.join("; ")));
    }
    out
}

/// Print the scheme × scheduler tables and the verdict.
pub fn print(t: &Tournament) {
    println!("stencil-tournament: {} ({} lanes/node)", t.config, t.lanes);
    for table in &t.schemes {
        println!(
            "\n=== {} (static bound {:.6} s) ===",
            table.scheme, table.bound_s
        );
        println!(
            "{:>10} {:>12} {:>9} {:>12} {:>11} {:>11} {:>9}",
            "scheduler",
            "makespan(s)",
            "x bound",
            "daylight(s)",
            "daylight %",
            "occupancy",
            "tasks"
        );
        for c in &table.cells {
            let s = &c.score;
            println!(
                "{:>10} {:>12.6} {:>9.3} {:>12.6} {:>10.1}% {:>10.1}% {:>9}",
                s.scheduler,
                s.makespan_s,
                s.bound_ratio,
                s.daylight_s,
                100.0 * s.daylight_fraction,
                100.0 * s.occupancy,
                if c.complete() {
                    format!("{}", c.tasks_executed)
                } else {
                    format!("{}/{} !!", c.tasks_executed, c.tasks_total)
                },
            );
        }
    }
    println!("\nverdict: {}", t.verdict);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_completes_every_cell() {
        let t = run(&TournamentConfig::check());
        let names: Vec<&str> = t.schemes.iter().map(|s| s.scheme.as_str()).collect();
        assert_eq!(names, ["base", "ca", "pa2", "dtd"]);
        let portfolio = SchedulerHandle::portfolio();
        for table in &t.schemes {
            assert_eq!(table.cells.len(), portfolio.len(), "{}", table.scheme);
            for (cell, sched) in table.cells.iter().zip(&portfolio) {
                assert_eq!(cell.score.scheduler, sched.name());
                assert!(
                    cell.complete(),
                    "{}/{}: {}/{} tasks",
                    table.scheme,
                    cell.score.scheduler,
                    cell.tasks_executed,
                    cell.tasks_total
                );
                // A correct simulation never beats the static bound.
                assert!(
                    cell.score.bound_ratio >= 1.0 - 1e-9,
                    "{}/{}: x bound {}",
                    table.scheme,
                    cell.score.scheduler,
                    cell.score.bound_ratio
                );
            }
        }
        assert!(!t.verdict.is_empty());
    }

    #[test]
    fn simulated_cells_are_deterministic_per_scheduler() {
        // Same config, same scheduler ⇒ bit-identical makespan and
        // occupancy: the tournament is a pure function of its inputs.
        let a = run(&TournamentConfig::check());
        let b = run(&TournamentConfig::check());
        for (ta, tb) in a.schemes.iter().zip(&b.schemes) {
            for (ca, cb) in ta.cells.iter().zip(&tb.cells) {
                assert_eq!(ca.score.makespan_s.to_bits(), cb.score.makespan_s.to_bits());
                assert_eq!(ca.score.occupancy.to_bits(), cb.score.occupancy.to_bits());
            }
        }
    }
}
