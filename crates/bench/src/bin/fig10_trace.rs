//! Regenerate Figure 10: one node's execution trace for base and CA.
//! Writes, per version, full Gantt rows to `fig10_<version>.gantt`, the
//! whole-cluster span trace as Chrome `trace_event` JSON to
//! `fig10_<version>.trace.json` (load it in Perfetto or
//! `chrome://tracing`) and the diagnosis to `fig10_<version>.doctor.txt`;
//! prints the occupancy/median digest and drops the run's `obs` metrics
//! as JSON lines to `fig10.metrics.jsonl`. The runs are simulated, so
//! every artifact is byte-identical from run to run.

use std::io::Write;

fn main() {
    let r = bench::exp_fig10::run(5);
    bench::exp_fig10::print(&r.fig);
    for (i, side) in r.fig.sides.iter().enumerate() {
        let version = side.version.to_lowercase();
        let path = format!("fig10_{version}.gantt");
        let mut f = std::fs::File::create(&path).expect("create gantt file");
        for row in &side.gantt {
            writeln!(f, "{row}").expect("write gantt row");
        }
        println!("wrote {} rows to {path}", side.gantt.len());

        let chrome = format!("fig10_{version}.trace.json");
        std::fs::write(&chrome, r.chrome_json(i)).expect("write chrome trace");
        println!("wrote {} spans to {chrome}", r.traces[i].len());

        let doctor = format!("fig10_{version}.doctor.txt");
        std::fs::write(&doctor, &r.reports[i]).expect("write doctor report");
        println!("wrote diagnosis to {doctor}");
    }
    bench::report::write_metrics("fig10");
}
