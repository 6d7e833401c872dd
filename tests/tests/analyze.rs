//! The static analyzer vs the whole stack: every scheme's program must be
//! analysis-clean across geometries, the static communication accounting
//! must match the simulator's dynamic counters *exactly*, and no simulated
//! run may beat the analyzer's makespan lower bound.

use analyze::{analyze_program, AnalyzeConfig, DataflowMode, Diagnostic, RectSet};
use ca_stencil::metrics::predict_ca_redundant_flops;
use ca_stencil::{
    build_base, build_base_dtd, build_ca, build_ca_shrunk, Corner, Problem, StencilConfig,
};
use machine::MachineProfile;
use netsim::ProcessGrid;
use obs::names;
use proptest::prelude::*;
use runtime::{
    run, ClassId, FlowData, Footprint, OutputDep, Params, Program, Rect, RunConfig,
    StructuralFault, TaskClass, TaskGraph, UnfoldedDag,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg(n: usize, tile: usize, steps: usize, side: u32, iters: u32) -> StencilConfig {
    StencilConfig::new(
        Problem::laplace(n),
        tile,
        iters,
        ProcessGrid::new(side, side),
    )
    .with_steps(steps)
}

/// Several (grid, tile, s) points per scheme; each must produce zero
/// diagnostics.
#[test]
fn all_schemes_are_analysis_clean() {
    let points = [
        (16, 4, 1, 1u32, 3u32),
        (32, 4, 2, 2, 5),
        (48, 8, 4, 2, 7),
        (36, 6, 3, 3, 4),
    ];
    for (n, tile, steps, side, iters) in points {
        let c = cfg(n, tile, steps, side, iters);
        let label = format!("n={n} tile={tile} s={steps} side={side}");
        let schemes: Vec<(&str, Program)> = vec![
            ("base", build_base(&c, false).program),
            ("ca", build_ca(&c, false).program),
            ("dtd", build_base_dtd(&c)),
        ];
        for (name, program) in schemes {
            let a = analyze_program(&program, &AnalyzeConfig::new());
            assert!(a.is_clean(), "{name} at {label}: {}", a.report());
            // One activation-table entry per task: no holes in the slots.
            assert_eq!(
                u64::from(program.graph.num_slots()),
                program.total_tasks,
                "{name} at {label}"
            );
        }
    }
}

/// Delegates to one class of a real program but declares a parameter box
/// one iterate short, so the last sweep's tasks fall outside it.
struct ShortBox {
    inner: Arc<TaskGraph>,
    id: ClassId,
}

impl ShortBox {
    fn class(&self) -> &dyn TaskClass {
        self.inner.class(self.id)
    }
}

impl TaskClass for ShortBox {
    fn name(&self) -> &str {
        self.class().name()
    }
    fn param_box(&self) -> [u32; 4] {
        let [x, y, t, z] = self.class().param_box();
        [x, y, t - 1, z]
    }
    fn node_of(&self, p: Params) -> u32 {
        self.class().node_of(p)
    }
    fn activation_count(&self, p: Params) -> usize {
        self.class().activation_count(p)
    }
    fn num_input_slots(&self, p: Params) -> usize {
        self.class().num_input_slots(p)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        self.class().num_output_flows(p)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        self.class().outputs(p, out)
    }
    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        self.class().execute(p, inputs, out)
    }
    fn cost(&self, p: Params) -> f64 {
        self.class().cost(p)
    }
}

/// The panic text of `f`, or "completed"; `f` runs on a helper thread and
/// a run still going after 5 s fails the test instead of hanging it.
fn panic_text(f: impl FnOnce() + Send + 'static) -> (String, Duration) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let text = match outcome {
            Ok(()) => "completed".to_string(),
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        };
        let _ = tx.send((text, start.elapsed()));
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("run still going after 5 s")
}

/// A wrong parameter box is caught before any run, and a run that ignores
/// the verdict fails loudly and at once instead of hanging.
#[test]
fn a_box_one_iterate_short_is_rejected_statically_and_fails_runs_loudly() {
    let c = cfg(16, 4, 1, 2, 3);
    let short = |program: Program| {
        let mut graph = TaskGraph::new();
        graph.add_class(Arc::new(ShortBox {
            inner: program.graph,
            id: 0,
        }));
        Program {
            graph: Arc::new(graph),
            ..program
        }
    };
    let program = short(build_base(&c, true).program);
    let a = analyze_program(&program, &AnalyzeConfig::new());
    let outside: Vec<_> = a
        .diagnostics
        .iter()
        .filter_map(|d| match d {
            Diagnostic::Structural(StructuralFault::OutsideBox { key, bound }) => {
                Some((key, bound))
            }
            _ => None,
        })
        .collect();
    // Every tile's last-sweep task, against the 4 × 4 × 3 box.
    assert_eq!(outside.len(), 16, "{}", a.report());
    assert!(outside
        .iter()
        .all(|(key, &bound)| key.params[2] == 3 && bound == [4, 4, 3, 1]));

    let program = Arc::new(program);
    let sim = {
        let program = Arc::clone(&program);
        move || {
            run(&program, &RunConfig::simulated(MachineProfile::nacl(), 4));
        }
    };
    let (text, _) = panic_text(sim);
    assert!(
        text.contains(",3,0) lies outside the parameter box [4, 4, 3, 1]"),
        "{text}"
    );
    for cfg in [RunConfig::shared_memory(2), RunConfig::multi_process(4, 1)] {
        let program = Arc::clone(&program);
        let (text, took) = panic_text(move || {
            run(&program, &cfg);
        });
        assert!(text.contains("worker panicked"), "{text}");
        assert!(took < Duration::from_secs(2), "took {took:?}");
    }
}

/// The static per-edge accounting predicts the dynamic counters exactly:
/// task count, cross-node messages, cross-node bytes, redundant flops.
#[test]
fn static_comm_matches_dynamic_counters_exactly() {
    let c = cfg(32, 8, 3, 2, 6);
    let schemes: Vec<(&str, Program)> = vec![
        ("base", build_base(&c, false).program),
        ("ca", build_ca(&c, false).program),
        ("dtd", build_base_dtd(&c)),
    ];
    for (name, program) in schemes {
        let a = analyze_program(&program, &AnalyzeConfig::new());
        assert!(a.is_clean(), "{name}: {}", a.report());
        let r = run(&program, &RunConfig::simulated(MachineProfile::nacl(), 4));
        let mismatches = r.metrics.verify(&a.expected_counters());
        assert!(mismatches.is_empty(), "{name}: {mismatches:?}");
        // the same facts through the report's accessors, for redundancy
        assert_eq!(r.remote_messages(), a.comm.cross_messages, "{name}");
        assert_eq!(r.remote_bytes(), a.comm.cross_bytes, "{name}");
        assert_eq!(
            r.counter(names::REDUNDANT_FLOPS),
            a.flops.redundant,
            "{name}"
        );
    }
}

/// No schedule can beat the critical-path / busiest-node lower bound,
/// so in particular the simulator's makespan must not.
#[test]
fn simulated_makespan_never_beats_lower_bound() {
    let profile = MachineProfile::nacl();
    let lanes = profile.compute_threads();
    for steps in [1usize, 2, 4] {
        let c = cfg(32, 8, steps, 2, 8);
        let schemes: Vec<(&str, Program)> = vec![
            ("base", build_base(&c, false).program),
            ("ca", build_ca(&c, false).program),
        ];
        for (name, program) in schemes {
            let a = analyze_program(&program, &AnalyzeConfig::new().with_lanes(lanes));
            let path = a.path.expect("clean DAG has a critical path");
            let r = run(&program, &RunConfig::simulated(profile.clone(), 4));
            assert!(
                r.makespan >= path.makespan_lower_bound,
                "{name} s={steps}: makespan {} < bound {}",
                r.makespan,
                path.makespan_lower_bound,
            );
            assert!(path.makespan_lower_bound >= path.critical_path / lanes as f64);
        }
    }
}

// ---------------------------------------------------------------------
// Region-dataflow: halo coverage, dead transfers, steady state
// ---------------------------------------------------------------------

fn all_schemes(c: &StencilConfig) -> Vec<(&'static str, Program)> {
    vec![
        ("base", build_base(c, false).program),
        ("ca", build_ca(c, false).program),
        ("dtd", build_base_dtd(c)),
    ]
}

/// The halo-coverage proof passes for every scheme across geometries:
/// every declared read is accounted for by writes, deliveries, or the
/// Dirichlet frame — and the pass actually checked something.
#[test]
fn dataflow_coverage_proof_passes_all_schemes() {
    let points = [(32, 4, 2, 2u32, 5u32), (48, 8, 4, 2, 9), (36, 6, 3, 3, 4)];
    for (n, tile, steps, side, iters) in points {
        let c = cfg(n, tile, steps, side, iters);
        for (name, program) in all_schemes(&c) {
            let a = analyze_program(
                &program,
                &AnalyzeConfig::new().with_dataflow(DataflowMode::Full),
            );
            assert!(a.is_clean(), "{name} n={n} s={steps}: {}", a.report());
            let d = a.dataflow.expect("dataflow pass ran");
            assert_eq!(d.uncovered, 0, "{name}");
            assert!(
                d.checked_reads > 0,
                "{name}: the proof must check actual reads"
            );
        }
    }
}

/// Mutation check: shrinking one CA halo declaration (the deep South
/// strips lose their deepest row) must break the coverage proof with a
/// concrete uncovered-rectangle witness — in both full-unfold and
/// steady-state mode.
#[test]
fn shrunk_ca_halo_is_caught_with_a_witness() {
    let c = cfg(48, 8, 4, 2, 9);
    let program = build_ca_shrunk(&c).program;
    for mode in [DataflowMode::Full, DataflowMode::SteadyState] {
        let a = analyze_program(&program, &AnalyzeConfig::new().with_dataflow(mode));
        assert!(!a.is_clean(), "{mode:?}: the mutation must be caught");
        let witness = a
            .diagnostics
            .iter()
            .find_map(|d| match d {
                Diagnostic::UncoveredRead { witness, cells, .. } => Some((*witness, *cells)),
                _ => None,
            })
            .expect("an uncovered-read diagnostic with a witness");
        // the missing payload is exactly the consumer's deepest
        // north-ghost row: 1 row spanning the tile
        assert_eq!(witness.0.rows, 1, "{mode:?}: witness {witness:?}");
        assert_eq!(witness.0.cols as usize, c.tile, "{mode:?}");
        assert_eq!(witness.1, c.tile as u64, "{mode:?}");
    }
    // the unmutated build stays clean under the same analysis
    let a = analyze_program(
        &build_ca(&c, false).program,
        &AnalyzeConfig::new().with_dataflow(DataflowMode::Full),
    );
    assert!(a.is_clean(), "{}", a.report());
}

/// Steady-state verification reproduces the full-unfold verdict and
/// dead-transfer totals while analyzing only prologue + one period of
/// task instances.
#[test]
fn steady_state_matches_full_unfold() {
    let c = cfg(48, 8, 4, 2, 11);
    let tiles = c.geometry().num_tiles();
    for (name, program) in all_schemes(&c) {
        let full = analyze_program(
            &program,
            &AnalyzeConfig::new().with_dataflow(DataflowMode::Full),
        );
        let ss = analyze_program(
            &program,
            &AnalyzeConfig::new().with_dataflow(DataflowMode::SteadyState),
        );
        assert_eq!(full.is_clean(), ss.is_clean(), "{name}");
        let (df, ds) = (full.dataflow.unwrap(), ss.dataflow.unwrap());
        assert_eq!(df.dead_bytes, ds.dead_bytes, "{name}");
        assert_eq!(df.dead_cross_bytes, ds.dead_cross_bytes, "{name}");
        assert_eq!(df.uncovered, ds.uncovered, "{name}");
        let period = ds.period.unwrap_or_else(|| panic!("{name}: no period"));
        // base/dtd repeat every iteration; CA every s iterations
        let expected_period = if name == "base" || name == "dtd" {
            1
        } else {
            c.steps
        };
        assert_eq!(period, expected_period, "{name}");
        // the whole point: prologue + one period instead of the full DAG
        assert_eq!(ds.analyzed_tasks, (ds.prologue + period) * tiles, "{name}");
        assert!(
            ds.analyzed_tasks < df.analyzed_tasks,
            "{name}: {} !< {}",
            ds.analyzed_tasks,
            df.analyzed_tasks
        );
    }
}

/// The tooling-size CA program (`tooling_lint_doctor`: n 6912, tile 288,
/// 20 sweeps, 4 × 4 nodes, s = 5): both dataflow modes and the
/// shrunk-halo mutant report exactly these figures. Any change to the
/// rectangle algebra or the sweep must keep them, witness included.
#[test]
fn tooling_size_dataflow_reports_are_pinned() {
    let c = cfg(6912, 288, 5, 4, 20);
    let program = build_ca(&c, false).program;
    let lint = |mode| AnalyzeConfig::new().without_races().with_dataflow(mode);
    let ss = analyze_program(&program, &lint(DataflowMode::SteadyState));
    assert!(ss.is_clean(), "{}", ss.report());
    let d = ss.dataflow.unwrap();
    assert_eq!(
        (d.layers, d.analyzed_tasks, d.checked_reads, d.uncovered),
        (21, 4032, 3456, 0)
    );
    assert_eq!((d.period, d.prologue), (Some(5), 2));
    let dead = (d.dead_bytes, d.dead_cross_bytes, d.dead_edges);
    assert_eq!(dead, (30720, 16512, 3840));

    let full = analyze_program(&program, &lint(DataflowMode::Full));
    assert!(full.is_clean(), "{}", full.report());
    let f = full.dataflow.unwrap();
    assert_eq!((f.analyzed_tasks, f.checked_reads), (12096, 11520));
    assert_eq!((f.dead_bytes, f.dead_cross_bytes, f.dead_edges), dead);

    let mutant = analyze_program(
        &build_ca_shrunk(&c).program,
        &lint(DataflowMode::SteadyState),
    );
    assert_eq!(mutant.dataflow.unwrap().uncovered, 492);
    assert_eq!(
        mutant.diagnostics[0],
        Diagnostic::UncoveredRead {
            task: "ca-stencil(5,1,1,0)".into(),
            kind: 1,
            space: 29,
            cells: 288,
            witness: Rect::new(283, 1440, 1, 288),
        }
    );
}

/// CA's dead wire traffic, cross-checked three ways: the analyzer's
/// dead-byte total equals the closed-form geometric count (one far cell
/// of 8 bytes per corner block — the cell outside the 5-point cross of
/// any update region), the static counters match the simulator's dynamic
/// `obs` counters exactly, and the redundant-flop total matches the
/// closed-form predictor.
#[test]
fn ca_dead_transfers_match_geometry_and_dynamic_counters() {
    let c = cfg(32, 8, 3, 2, 7); // s >= 2: exactly one dead far cell/block
    let geo = c.geometry();
    let program = build_ca(&c, false).program;
    let a = analyze_program(
        &program,
        &AnalyzeConfig::new().with_dataflow(DataflowMode::Full),
    );
    assert!(a.is_clean(), "{}", a.report());
    let d = a.dataflow.as_ref().unwrap();

    // geometric expectation: every corner block delivered to a boundary
    // consumer carries exactly one cell no 5-point read ever touches
    let rounds = (0..c.iterations)
        .filter(|t| t % c.steps as u32 == 0)
        .count() as u64;
    let mut corner_deliveries = 0u64;
    let mut cross_deliveries = 0u64;
    for ty in 0..geo.tiles_y {
        for tx in 0..geo.tiles_x {
            for corner in Corner::ALL {
                if let Some((dx, dy)) = geo.diagonal(tx, ty, corner) {
                    if geo.is_node_boundary(dx, dy) {
                        corner_deliveries += 1;
                        if geo.node_of_tile(tx, ty) != geo.node_of_tile(dx, dy) {
                            cross_deliveries += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(d.dead_bytes, corner_deliveries * rounds * 8);
    assert_eq!(d.dead_cross_bytes, cross_deliveries * rounds * 8);
    assert_eq!(d.dead_edges as u64, corner_deliveries * rounds);

    // dynamic cross-check: the statically predicted counters are exact,
    // and the dead bytes are a strict subset of real wire traffic
    let r = run(&program, &RunConfig::simulated(MachineProfile::nacl(), 4));
    let mismatches = r.metrics.verify(&a.expected_counters());
    assert!(mismatches.is_empty(), "{mismatches:?}");
    assert!(d.dead_cross_bytes > 0 && d.dead_cross_bytes < r.remote_bytes());
    assert_eq!(
        a.flops.redundant,
        predict_ca_redundant_flops(&geo, c.iterations, c.steps, c.ratio)
    );
}

// ---------------------------------------------------------------------
// Write races at scheme scale
// ---------------------------------------------------------------------

/// Delegates to one class of a real program and counts its footprint
/// declarations. With `shared_space` it reports every write in one
/// shared space: the aliasing CA's private ghost rings rule out, so
/// neighbouring tiles' overlapping halo recomputes become races.
struct Wrapped {
    inner: Arc<TaskGraph>,
    id: ClassId,
    shared_space: bool,
    footprints: Arc<AtomicUsize>,
}

impl Wrapped {
    fn class(&self) -> &dyn TaskClass {
        self.inner.class(self.id)
    }
}

impl TaskClass for Wrapped {
    fn name(&self) -> &str {
        self.class().name()
    }
    fn param_box(&self) -> [u32; 4] {
        self.class().param_box()
    }
    fn node_of(&self, p: Params) -> u32 {
        self.class().node_of(p)
    }
    fn activation_count(&self, p: Params) -> usize {
        self.class().activation_count(p)
    }
    fn num_input_slots(&self, p: Params) -> usize {
        self.class().num_input_slots(p)
    }
    fn num_output_flows(&self, p: Params) -> usize {
        self.class().num_output_flows(p)
    }
    fn outputs(&self, p: Params, out: &mut Vec<OutputDep>) {
        self.class().outputs(p, out)
    }
    fn execute(&self, p: Params, inputs: &mut [Option<FlowData>], out: &mut Vec<FlowData>) {
        self.class().execute(p, inputs, out)
    }
    fn cost(&self, p: Params) -> f64 {
        self.class().cost(p)
    }
    fn footprint(&self, p: Params, fp: &mut Footprint) {
        self.footprints.fetch_add(1, Ordering::Relaxed);
        self.class().footprint(p, fp);
        if let Some((_, rect)) = fp.write().filter(|_| self.shared_space) {
            fp.set_write(0, rect);
        }
    }
}

/// `program` with every class [`Wrapped`], and the shared count of its
/// footprint declarations.
fn wrapped(program: &Program, shared_space: bool) -> (Program, Arc<AtomicUsize>) {
    let footprints = Arc::new(AtomicUsize::new(0));
    let mut graph = TaskGraph::new();
    for id in 0..program.graph.num_classes() {
        graph.add_class(Arc::new(Wrapped {
            inner: Arc::clone(&program.graph),
            id: id as ClassId,
            shared_space,
            footprints: Arc::clone(&footprints),
        }));
    }
    let program = Program {
        graph: Arc::new(graph),
        roots: program.roots.clone(),
        total_tasks: program.total_tasks,
    };
    (program, footprints)
}

/// With the race and dataflow passes both on, `analyze_dag` declares
/// every task's footprint exactly once: the passes share one table.
#[test]
fn footprints_are_declared_once_per_task() {
    let c = cfg(6912, 288, 5, 4, 20);
    let (program, footprints) = wrapped(&build_ca(&c, false).program, false);
    let both = AnalyzeConfig::new().with_dataflow(DataflowMode::SteadyState);
    let dag = analyze::unfold(&program, &both);
    assert_eq!(
        footprints.load(Ordering::Relaxed),
        0,
        "unfold declares none"
    );
    let a = analyze::analyze_dag(&dag, &both);
    assert!(a.is_clean(), "{}", a.report());
    assert_eq!(a.dataflow.and_then(|d| d.period), Some(5));
    assert_eq!(dag.len(), 12_096);
    assert_eq!(footprints.load(Ordering::Relaxed), dag.len());
}

/// Each space's writers with their rects, in topological-rank order.
fn writer_chains(dag: &UnfoldedDag) -> BTreeMap<u64, Vec<(usize, Rect)>> {
    let topo = dag.topo_order().expect("acyclic");
    let mut rank = vec![0; dag.len()];
    for (r, &i) in topo.iter().enumerate() {
        rank[i] = r;
    }
    let mut groups: BTreeMap<u64, Vec<(usize, Rect)>> = BTreeMap::new();
    let mut fp = Footprint::default();
    for (i, &key) in dag.tasks.iter().enumerate() {
        fp.clear();
        dag.graph.class(key.class).footprint(key.params, &mut fp);
        if let Some((space, rect)) = fp.write() {
            groups.entry(space).or_default().push((i, rect));
        }
    }
    for members in groups.values_mut() {
        members.sort_by_key(|&(i, _)| rank[i]);
    }
    groups
}

/// All-pairs oracle: full forward reachability from every writer, every
/// overlapping later writer of its space checked, in the analyzer's
/// report order (space, then topological rank).
fn oracle_races(dag: &UnfoldedDag) -> Vec<Diagnostic> {
    let name = |i: usize| {
        let key = dag.tasks[i];
        let p = key.params;
        let class = dag.graph.class(key.class).name();
        format!("{class}({},{},{},{})", p[0], p[1], p[2], p[3])
    };
    let mut races = Vec::new();
    for (space, members) in writer_chains(dag) {
        for (ai, &(a, ra)) in members.iter().enumerate() {
            let mut reach = HashSet::from([a]);
            let mut stack = vec![a];
            while let Some(i) = stack.pop() {
                for e in dag.out_edges(i) {
                    let c = e.consumer as usize;
                    if reach.insert(c) {
                        stack.push(c);
                    }
                }
            }
            for &(b, rb) in &members[ai + 1..] {
                if ra.intersects(&rb) && !reach.contains(&b) {
                    races.push(Diagnostic::WriteRace {
                        first: name(a),
                        second: name(b),
                        space,
                    });
                }
            }
        }
    }
    races
}

/// At the CI lint size every scheme is race-clean with the race pass on,
/// and every space's writer chain is fully linked by direct edges (the
/// tile self-flow), so each link costs the pass one adjacency scan. CA
/// with all tile spaces aliased into one races exactly where the
/// all-pairs oracle says — its broken links go through the fallback
/// search.
#[test]
fn aliased_ca_spaces_race_exactly_as_the_oracle_says() {
    let c = cfg(128, 32, 4, 2, 9);
    for (name, program) in all_schemes(&c) {
        let dag = analyze::unfold(&program, &AnalyzeConfig::new());
        let a = analyze::analyze_dag(&dag, &AnalyzeConfig::new());
        assert!(a.is_clean(), "{name}: {}", a.report());
        assert!(oracle_races(&dag).is_empty(), "{name}");
        let edges: HashSet<(usize, usize)> = dag
            .edges
            .iter()
            .map(|e| (e.producer as usize, e.consumer as usize))
            .collect();
        for (space, members) in writer_chains(&dag) {
            for link in members.windows(2) {
                assert!(
                    edges.contains(&(link[0].0, link[1].0)),
                    "{name}: space {space} link is not a direct edge"
                );
            }
        }
    }
    let (mutant, _) = wrapped(&build_ca(&c, false).program, true);
    let dag = analyze::unfold(&mutant, &AnalyzeConfig::new());
    let races = analyze::analyze_dag(&dag, &AnalyzeConfig::new()).diagnostics;
    assert!(!races.is_empty(), "aliased CA must race");
    assert!(races
        .iter()
        .all(|d| matches!(d, Diagnostic::WriteRace { space: 0, .. })));
    assert_eq!(races, oracle_races(&dag));
}

// ---------------------------------------------------------------------
// Rect-set algebra round-trips
// ---------------------------------------------------------------------

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-8i64..24, -8i64..24, 1u32..12, 1u32..12).prop_map(|(r, c, h, w)| Rect::new(r, c, h, w))
}

fn intersection_area(a: Rect, b: Rect) -> u64 {
    let rows = (a.row + a.rows as i64).min(b.row + b.rows as i64) - a.row.max(b.row);
    let cols = (a.col + a.cols as i64).min(b.col + b.cols as i64) - a.col.max(b.col);
    if rows <= 0 || cols <= 0 {
        0
    } else {
        rows as u64 * cols as u64
    }
}

proptest! {
    /// Subtract-then-union identity: (a \ b) ∪ b covers a and equals
    /// {a, b} as a cell set; areas obey |a \ b| = |a| − |a ∩ b|.
    #[test]
    fn rectset_subtract_union_roundtrip(a in arb_rect(), b in arb_rect()) {
        let mut diff = RectSet::from_rect(a);
        diff.subtract_rect(&b);
        prop_assert_eq!(diff.area(), a.area() - intersection_area(a, b));
        // no fragment of the difference may touch b
        for &r in diff.rects() {
            prop_assert!(!r.intersects(&b));
        }
        let mut rejoined = diff.clone();
        rejoined.insert(b);
        prop_assert!(rejoined.covers(&a));
        prop_assert!(rejoined.same_cells(&RectSet::from_rects([a, b])));
    }

    /// Coverage monotonicity: inserting rects never shrinks the covered
    /// set, and every inserted rect is covered afterwards.
    #[test]
    fn rectset_coverage_is_monotone(rects in proptest::collection::vec(arb_rect(), 1..8)) {
        let mut set = RectSet::new();
        let mut prev_area = 0;
        for (i, &r) in rects.iter().enumerate() {
            let before = set.clone();
            set.insert(r);
            prop_assert!(set.area() >= prev_area, "area shrank at step {i}");
            prop_assert!(before.difference(&set).is_empty(), "lost cells at step {i}");
            prop_assert!(set.covers(&r));
            prev_area = set.area();
        }
        // the union is fragmentation-insensitive: rebuilding in reverse
        // order yields the same cell set
        let mut reversed = RectSet::new();
        for &r in rects.iter().rev() {
            reversed.insert(r);
        }
        prop_assert!(set.same_cells(&reversed));
    }
}

/// Any rect of the oracle's window, zero-area ones included.
fn arb_any_rect() -> impl Strategy<Value = Rect> {
    (-8i64..24, -8i64..24, 0u32..12, 0u32..12).prop_map(|(r, c, h, w)| Rect::new(r, c, h, w))
}

/// First row and column of the oracle's window; `arb_any_rect` stays
/// inside `[ORACLE_LO, ORACLE_LO + ORACLE_SIDE)` on both axes.
const ORACLE_LO: i64 = -16;
const ORACLE_SIDE: usize = 64;

/// A cell bitmap: the oracle the rectangle algebra is checked against.
#[derive(Clone, PartialEq)]
struct Cells(Vec<bool>);

impl Cells {
    fn empty() -> Self {
        Cells(vec![false; ORACLE_SIDE * ORACLE_SIDE])
    }

    fn indices(r: Rect) -> impl Iterator<Item = usize> {
        let at = |v: i64| (v - ORACLE_LO) as usize;
        (r.row..r.row + r.rows as i64).flat_map(move |y| {
            (r.col..r.col + r.cols as i64).map(move |x| at(y) * ORACLE_SIDE + at(x))
        })
    }

    fn set(&mut self, r: Rect, on: bool) {
        for i in Self::indices(r) {
            self.0[i] = on;
        }
    }

    fn covers(&self, r: Rect) -> bool {
        Self::indices(r).all(|i| self.0[i])
    }

    fn count(&self) -> u64 {
        self.0.iter().filter(|&&on| on).count() as u64
    }

    /// The cells of `set`'s fragments, or an error naming a fragment that
    /// is empty or overlaps an earlier one.
    fn of(set: &RectSet) -> Result<Cells, String> {
        let mut cells = Cells::empty();
        for &r in set.rects() {
            if r.area() == 0 {
                return Err(format!("empty fragment {r:?}"));
            }
            for i in Self::indices(r) {
                if std::mem::replace(&mut cells.0[i], true) {
                    return Err(format!("fragment {r:?} overlaps an earlier one"));
                }
            }
        }
        Ok(cells)
    }

    /// The same cells as one-row runs: a decomposition unlike any the
    /// algebra builds, for `same_cells`.
    fn row_runs(&self) -> RectSet {
        let mut runs = Vec::new();
        for y in 0..ORACLE_SIDE {
            let row = &self.0[y * ORACLE_SIDE..(y + 1) * ORACLE_SIDE];
            let mut x = 0;
            while x < ORACLE_SIDE {
                let len = row[x..].iter().take_while(|&&on| on).count();
                if len > 0 {
                    let at = |v: usize| v as i64 + ORACLE_LO;
                    runs.push(Rect::new(at(y), at(x), 1, len as u32));
                }
                x += len.max(1);
            }
        }
        RectSet::from_rects(runs)
    }
}

/// One step of a random `RectSet` script.
#[derive(Debug)]
enum Op {
    Insert(Rect),
    SubtractRect(Rect),
    Subtract(Vec<Rect>),
    Union(Vec<Rect>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let rects = proptest::collection::vec(arb_any_rect(), 0..4);
    (0u8..4, arb_any_rect(), rects).prop_map(|(code, r, rs)| match code {
        0 => Op::Insert(r),
        1 => Op::SubtractRect(r),
        2 => Op::Subtract(rs),
        _ => Op::Union(rs),
    })
}

proptest! {
    /// Every operation agrees with a cell bitmap: after each step the
    /// fragments are non-empty and pairwise disjoint and hold exactly the
    /// oracle's cells, and `area`, `is_empty`, `covers`, `same_cells` and
    /// `largest` answer as the bitmap does.
    #[test]
    fn rectset_agrees_with_a_cell_bitmap(
        ops in proptest::collection::vec(arb_op(), 1..12),
        probe in arb_any_rect(),
    ) {
        let mut set = RectSet::new();
        let mut oracle = Cells::empty();
        for (step, op) in ops.iter().enumerate() {
            let before = (set.clone(), oracle.clone());
            match op {
                Op::Insert(r) => {
                    set.insert(*r);
                    oracle.set(*r, true);
                }
                Op::SubtractRect(r) => {
                    set.subtract_rect(r);
                    oracle.set(*r, false);
                }
                Op::Subtract(rs) => {
                    set.subtract(&RectSet::from_rects(rs.iter().copied()));
                    rs.iter().for_each(|&r| oracle.set(r, false));
                }
                Op::Union(rs) => {
                    set.union_with(&RectSet::from_rects(rs.iter().copied()));
                    rs.iter().for_each(|&r| oracle.set(r, true));
                }
            }
            let cells = Cells::of(&set).map_err(|e| format!("step {step} {op:?}: {e}"))?;
            prop_assert!(cells == oracle, "step {step} {op:?}: cells differ from the oracle");
            prop_assert_eq!(set.area(), oracle.count(), "step {step}");
            prop_assert_eq!(set.is_empty(), oracle.count() == 0, "step {step}");
            for q in [probe, before.0.largest().unwrap_or(probe)] {
                prop_assert_eq!(set.covers(&q), oracle.covers(q), "step {step} covers {q:?}");
            }
            prop_assert!(set.same_cells(&oracle.row_runs()), "step {step}");
            // one column over: the same area, never the same cells
            let shifted = set.rects().iter().map(|r| Rect::new(r.row, r.col + 1, r.rows, r.cols));
            let shifted = RectSet::from_rects(shifted);
            prop_assert_eq!(set.same_cells(&shifted), set.is_empty(), "step {step}");
            prop_assert_eq!(set.same_cells(&before.0), oracle == before.1, "step {step}");
            match set.largest() {
                None => prop_assert!(set.is_empty(), "step {step}"),
                Some(w) => {
                    prop_assert!(set.rects().contains(&w), "step {step}: {w:?}");
                    let max = set.rects().iter().map(Rect::area).max();
                    prop_assert_eq!(Some(w.area()), max, "step {step}");
                }
            }
        }
    }
}

/// One fixed script with its exact fragment list: the guillotine split
/// order (bands above and below, then left and right remnants, each
/// existing fragment in turn) decides which fragment `largest` reports as
/// an uncovered-read witness, so the order is pinned, not only the cells.
#[test]
fn rectset_fragment_order_is_pinned() {
    let r = Rect::new;
    let mut s = RectSet::new();
    s.insert(r(0, 0, 10, 10));
    s.insert(r(5, 5, 10, 10));
    s.subtract_rect(&r(2, 2, 3, 3));
    s.insert(r(-3, -3, 4, 20));
    s.insert(r(7, 7, 0, 4));
    s.subtract(&RectSet::from_rects([r(8, -5, 2, 30), r(-4, 12, 24, 1)]));
    s.union_with(&RectSet::from_rects([r(3, 3, 1, 1), r(12, -2, 3, 6)]));
    s.subtract_rect(&r(6, 6, 0, 0));
    let expected = [
        r(0, 0, 2, 10),
        r(5, 0, 3, 10),
        r(2, 0, 3, 2),
        r(2, 5, 3, 5),
        r(10, 5, 5, 7),
        r(10, 13, 5, 2),
        r(5, 10, 3, 2),
        r(5, 13, 3, 2),
        r(-3, -3, 3, 15),
        r(-3, 13, 3, 4),
        r(0, -3, 1, 3),
        r(0, 10, 1, 2),
        r(0, 13, 1, 4),
        r(3, 3, 1, 1),
        r(12, -2, 3, 6),
    ];
    assert_eq!(s.rects(), &expected);
    assert_eq!(s.largest(), Some(r(-3, -3, 3, 15)));
}
