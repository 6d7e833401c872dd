//! Scheme fingerprints: every task of every stencil scheme's unfolded DAG,
//! folded into one number per configuration, plus the simulated makespan
//! and traffic of each configuration. The values were recorded from the
//! hand-written base and CA task classes; a refactor of the stencil
//! task classes must reproduce them bit for bit. A mismatch prints the
//! whole table as it is now, for a reviewed update.

use ca_stencil::{build_base, build_base_dtd, build_ca, build_ca_shrunk, Problem, StencilConfig};
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, Footprint, OutputDep, Program, Rect, RunConfig, UnfoldedDag};

/// 64-bit FNV-1a, written out here so the recorded values depend on no
/// library's hashing (std's `DefaultHasher` may change between releases).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn rect(&mut self, r: &Rect) {
        self.i64(r.row);
        self.i64(r.col);
        self.u64(u64::from(r.rows));
        self.u64(u64::from(r.cols));
    }

    fn write(&mut self, w: Option<(u64, Rect)>) {
        match w {
            None => self.u64(0),
            Some((space, rect)) => {
                self.u64(1);
                self.u64(space);
                self.rect(&rect);
            }
        }
    }

    fn region(&mut self, r: Option<(u64, &[Rect])>) {
        match r {
            None => self.u64(0),
            Some((space, rects)) => {
                self.u64(1 + rects.len() as u64);
                self.u64(space);
                rects.iter().for_each(|rect| self.rect(rect));
            }
        }
    }
}

/// Everything the runtime and the analyzer ask of every task of
/// `program`, in the unfolded DAG's discovery order.
fn fingerprint(program: &Program) -> u64 {
    let dag = UnfoldedDag::enumerate(program);
    assert!(dag.faults.is_empty(), "{:?}", dag.faults);
    let mut h = Fnv::new();
    let mut outs: Vec<OutputDep> = Vec::new();
    let mut fp = Footprint::default();
    for key in &dag.tasks {
        let class = program.graph.class(key.class);
        let p = key.params;
        h.str(class.name());
        h.u64(u64::from(key.class));
        p.iter().for_each(|&v| h.i64(i64::from(v)));
        h.u64(u64::from(class.kind(p)));
        h.i64(i64::from(class.priority(p)));
        h.u64(u64::from(class.node_of(p)));
        for lanes in [2, 3] {
            h.u64(class.home(p, lanes).map_or(u64::MAX, |l| l as u64));
        }
        h.u64(class.activation_count(p) as u64);
        h.u64(class.num_input_slots(p) as u64);
        h.u64(class.num_output_flows(p) as u64);
        h.u64(class.cost(p).to_bits());
        h.u64(class.flops(p).to_bits());
        h.u64(class.redundant_flops(p));
        fp.clear();
        class.footprint(p, &mut fp);
        h.write(fp.write());
        h.region(fp.read());
        h.region(fp.pinned());
        outs.clear();
        class.outputs(p, &mut outs);
        h.u64(outs.len() as u64);
        for o in &outs {
            h.u64(o.flow as u64);
            h.u64(u64::from(o.consumer.class));
            o.consumer.params.iter().for_each(|&v| h.i64(i64::from(v)));
            h.u64(o.slot as u64);
            h.u64(o.bytes as u64);
            h.region(fp.delivered(o.flow));
        }
    }
    h.0
}

/// The simulated makespan in integer nanoseconds, remote messages and
/// remote bytes of one run on the NaCL profile.
fn simulate(program: &Program, grid: ProcessGrid) -> (u64, u64, u64) {
    let r = run(
        program,
        &RunConfig::simulated(MachineProfile::nacl(), grid.nodes()),
    );
    assert_eq!(r.tasks_executed, program.total_tasks);
    let ns = (r.makespan * 1e9).round() as u64;
    (ns, r.remote_messages(), r.remote_bytes())
}

/// One measured row: configuration label, DAG fingerprint, makespan in
/// ns, remote messages, remote bytes.
type Row = (String, u64, u64, u64, u64);

/// Every configuration the table pins: 36 × 36 grids of 6 × 6 tiles (so
/// every grid below has tiles on the domain edge), 7 iterations (no step
/// size divides it), on 1 × 1, 2 × 2 and 3 × 2 process grids, plus a
/// variable-coefficient problem at kernel ratio 0.4 on 2 × 2.
fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    let problems = [
        (1, 1, Problem::laplace(36), 1.0, "laplace"),
        (2, 2, Problem::laplace(36), 1.0, "laplace"),
        (3, 2, Problem::laplace(36), 1.0, "laplace"),
        (
            2,
            2,
            Problem::variable_diffusion(36, 5),
            0.4,
            "variable r=0.4",
        ),
    ];
    for (p, q, problem, ratio, what) in problems {
        let grid = ProcessGrid::new(p, q);
        let at = |steps: usize| {
            StencilConfig::new(problem.clone(), 6, 7, grid)
                .with_steps(steps)
                .with_ratio(ratio)
        };
        let mut programs: Vec<(String, Program)> =
            vec![("base".into(), build_base(&at(1), false).program)];
        for s in [1, 2, 4] {
            programs.push((format!("ca s={s}"), build_ca(&at(s), false).program));
        }
        programs.push(("ca-shrunk s=4".into(), build_ca_shrunk(&at(4)).program));
        for (scheme, program) in programs {
            let (ns, msgs, bytes) = simulate(&program, grid);
            let label = format!("{p}x{q} {what} {scheme}");
            rows.push((label, fingerprint(&program), ns, msgs, bytes));
        }
    }
    rows
}

#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64, u64, u64)] = &[
    ("1x1 laplace base", 0x3054ad13cc023db9, 697958, 0, 0),
    ("1x1 laplace ca s=1", 0x3e9e720a5a5a818d, 697699, 0, 0),
    ("1x1 laplace ca s=2", 0x3e9e720a5a5a818d, 697699, 0, 0),
    ("1x1 laplace ca s=4", 0x3e9e720a5a5a818d, 697699, 0, 0),
    ("1x1 laplace ca-shrunk s=4", 0x3e9e720a5a5a818d, 697699, 0, 0),
    ("2x2 laplace base", 0x4accfbcc0042cea1, 3433105, 168, 8064),
    ("2x2 laplace ca s=1", 0xba755c289aa60061, 8536429, 420, 10080),
    ("2x2 laplace ca s=2", 0x3d61831ca2ab1855, 4892391, 240, 13824),
    ("2x2 laplace ca s=4", 0x0e4b6c823a2c3759, 2526000, 120, 18432),
    ("2x2 laplace ca-shrunk s=4", 0xb624ec851abf3e2d, 2526000, 120, 18432),
    ("3x2 laplace base", 0x3f6b365eebf1eb51, 4567301, 252, 12096),
    ("3x2 laplace ca s=1", 0x93924e887425d0e5, 11371675, 616, 15008),
    ("3x2 laplace ca s=2", 0x86f0b8989e6fe969, 6512809, 352, 20480),
    ("3x2 laplace ca s=4", 0x1d413a4fefa98345, 3336748, 176, 27136),
    ("3x2 laplace ca-shrunk s=4", 0xc9277c8a8b54dd01, 3336748, 176, 27136),
    ("2x2 variable r=0.4 base", 0x782c23094c77b48d, 3432969, 168, 8064),
    ("2x2 variable r=0.4 ca s=1", 0x41f2b0534e37bd79, 8536293, 420, 10080),
    ("2x2 variable r=0.4 ca s=2", 0x6b79631bb6747ed1, 4892148, 240, 13824),
    ("2x2 variable r=0.4 ca s=4", 0x75f8534408f0b761, 2524833, 120, 18432),
    ("2x2 variable r=0.4 ca-shrunk s=4", 0x5f387690a1b11fe1, 2524833, 120, 18432),
];

#[test]
fn every_scheme_keeps_its_dag_costs_regions_and_makespan() {
    let rows = measure();
    let table: String = rows
        .iter()
        .map(|(l, f, ns, m, b)| format!("    ({l:?}, {f:#018x}, {ns}, {m}, {b}),\n"))
        .collect();
    let got: Vec<(&str, u64, u64, u64, u64)> = rows
        .iter()
        .map(|(l, f, ns, m, b)| (l.as_str(), *f, *ns, *m, *b))
        .collect();
    assert_eq!(got, EXPECTED, "the table now reads:\n{table}");
}

/// The DTD front-end inserts the base scheme's DAG task by task; its
/// simulated makespan and traffic are pinned beside the PTG schemes'.
#[test]
fn dtd_front_end_keeps_its_makespan_and_traffic() {
    let mut got = Vec::new();
    for (p, q) in [(1, 1), (2, 2), (3, 2)] {
        let grid = ProcessGrid::new(p, q);
        let cfg = StencilConfig::new(Problem::laplace(36), 6, 7, grid);
        got.push(simulate(&build_base_dtd(&cfg), grid));
    }
    assert_eq!(got, DTD_EXPECTED, "DTD now reads {got:?}");
}

const DTD_EXPECTED: &[(u64, u64, u64)] =
    &[(697958, 0, 0), (3433105, 168, 8064), (4567301, 252, 12096)];

/// The DTD program's fingerprint on the same grids. It hashes every
/// task's footprint and, edge by edge, the delivered region the front-end
/// declares on the consumer's side, so that lookup is pinned too.
#[test]
fn dtd_front_end_keeps_its_dag_and_regions() {
    let got: Vec<u64> = [(1, 1), (2, 2), (3, 2)]
        .into_iter()
        .map(|(p, q)| {
            let grid = ProcessGrid::new(p, q);
            fingerprint(&build_base_dtd(&StencilConfig::new(
                Problem::laplace(36),
                6,
                7,
                grid,
            )))
        })
        .collect();
    assert_eq!(got, DTD_FINGERPRINTS, "DTD now reads {got:#018x?}");
}

const DTD_FINGERPRINTS: &[u64] = &[0xd920c42edc0f3818, 0xa5edfaf6eac3ee82, 0x391e73258e78a4fa];
