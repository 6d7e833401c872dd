//! The simulator is deterministic: identical runs produce identical
//! makespans, message counts and traces.

use ca_stencil::{build_base, build_ca};
use integration::scrambled_config;
use machine::MachineProfile;
use netsim::ProcessGrid;
use runtime::{run, RunConfig};

#[test]
fn repeated_simulations_are_identical() {
    let cfg = scrambled_config(32, 4, 10, ProcessGrid::new(2, 2), 3, 17);
    let run = || {
        let b = build_ca(&cfg, false);
        let r = run(
            &b.program,
            &RunConfig::simulated(MachineProfile::nacl(), 4).with_trace(),
        );
        (
            r.makespan,
            r.remote_messages(),
            r.remote_bytes(),
            r.counter(obs::names::ACTIVATIONS),
            r.trace.unwrap().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn base_and_ca_makespans_are_stable_across_reruns() {
    let cfg = scrambled_config(32, 4, 6, ProcessGrid::new(2, 2), 2, 3);
    let base1 = run(
        &build_base(&cfg, false).program,
        &RunConfig::simulated(MachineProfile::nacl(), 4),
    )
    .makespan;
    let base2 = run(
        &build_base(&cfg, false).program,
        &RunConfig::simulated(MachineProfile::nacl(), 4),
    )
    .makespan;
    assert_eq!(base1, base2);
}

#[test]
fn body_execution_does_not_change_timing() {
    // performance-only and data-carrying runs see identical virtual time:
    // the cost model, not the body, sets task durations
    let cfg = scrambled_config(16, 4, 5, ProcessGrid::new(2, 2), 2, 23);
    let perf = run(
        &build_ca(&cfg, false).program,
        &RunConfig::simulated(MachineProfile::nacl(), 4),
    );
    let data = run(
        &build_ca(&cfg, true).program,
        &RunConfig::simulated(MachineProfile::nacl(), 4).with_bodies(),
    );
    assert_eq!(perf.makespan, data.makespan);
    assert_eq!(perf.remote_messages(), data.remote_messages());
    // message bytes match too: the payloads bodies emit are as big as OutputDep::bytes declares
    assert_eq!(perf.remote_bytes(), data.remote_bytes());
}
