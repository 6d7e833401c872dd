#!/usr/bin/env bash
# Tier-1 CI for the workspace: build, tests, formatting, lints.
# fmt/clippy are skipped with a warning when the toolchain component is
# not installed (offline/minimal environments); build and tests always
# gate.
set -uo pipefail

cd "$(dirname "$0")"
failed=0

step() {
    echo
    echo "==> $*"
    if ! "$@"; then
        echo "FAILED: $*"
        failed=1
    fi
}

step cargo build --workspace --release
step cargo test --workspace -q

# Sanitizers. The loom model tests exercise the runtime's concurrent
# structures (ready queue, work-stealing deque, parking handshake, and
# the dense activation table's racing deliveries into one entry) under
# the loom scheduler when the real crate is vendored; under the stub they
# still run as plain threaded tests, which is why the table also has a
# std-thread stress test
# (pending::tests::racing_deliveries_fire_every_consumer_exactly_once).
# Miri is optional tooling: warn-skip when absent.
loom_test() {
    RUSTFLAGS="--cfg loom" cargo test -q -p runtime --lib loom_model
}
step loom_test

if cargo miri --version >/dev/null 2>&1; then
    step cargo miri test -p desim -p ca-stencil
    # hard-fail: the analyze crate's rect algebra is pure pointer-free
    # code and must be UB-clean whenever miri is available
    step cargo miri test -p analyze
else
    echo "WARNING: miri not installed; skipping cargo miri test (desim, ca-stencil, analyze)"
fi

# Bench regression gate: diagnose the reference stencil configuration and
# diff against the committed baseline (BENCH_stencil.json) within
# tolerance bands.
step ./target/release/stencil-doctor --check

# Causal-profiler gate: what-if replays the DAG on the simulator's own
# model, so the checks are on its inputs. The baseline replay must equal
# the traced run (realized durations reproduce the class costs), and
# every scenario's prediction (scaled kernel costs, scaled network,
# slowed injection) its simulator re-run, in integer nanoseconds
# (perturbation folding equals the profile change exp_whatif::realize
# makes); the makespans must match BENCH_whatif.json within 2 %.
step ./target/release/stencil-whatif --check

# Transcript gates: the docs quote the output of virtual-time binaries
# and of the static analyzer, which are byte-stable. Each entry is a
# (doc, command line) pair; the block quoted after that `$ ...` line, up
# to the closing fence, must equal a fresh run of the release binary with
# the line's environment assignments and the arguments after its `--`,
# in a temp directory (binaries write their JSON artifacts into the
# working directory).
transcripts=(
    docs/OBSERVABILITY.md '$ cargo run --release -p bench --bin stencil-whatif'
    EXPERIMENTS.md '$ REPRO_FAST=1 cargo run --release -p bench --bin fig8_kernel_ratio'
    README.md '$ cargo run --release -p bench --bin stencil-lint -- --n 256 --tile 32 --iters 20 --steps 8 --grid 2 --dataflow --steady-state'
)
transcript_gate() {
    local doc=$1 cmd=$2 run=${2##*--bin } root=$PWD vars bin args= dir status=0
    bin=${run%% *}
    [[ $run == *" -- "* ]] && args=${run#* -- }
    vars=${cmd#\$ }
    vars=${vars%%cargo run*}
    dir=$(mktemp -d) || return 1
    # shellcheck disable=SC2086 # $vars splits into its assignments, $args into arguments
    diff <(awk -v cmd="$cmd" '$0 == cmd { on = 1; next } on && /^```/ { exit } on' "$doc") \
        <(cd "$dir" && env $vars "$root/target/release/$bin" $args) || status=1
    rm -rf "$dir"
    return "$status"
}
for ((i = 0; i < ${#transcripts[@]}; i += 2)); do
    step transcript_gate "${transcripts[i]}" "${transcripts[i + 1]}"
done

# Communication-observatory gate: the per-peer comm matrix built from
# traced message spans must carry exactly the per-edge message and byte
# counts `analyze` derives statically, for every scheme (base/ca/dtd).
comm_matrix_identity_gate() {
    cargo test --release -q -p integration --test observability \
        comm_matrix_matches_static_edge_accounting
}
step comm_matrix_identity_gate

# Allocation-ledger gate: the threaded engine's steady state must stay at
# most 2 (one node) / 3 (two nodes) heap allocations per extra task for
# every scheme — the hot path recycles payloads, task boxes and
# scratch instead of allocating (docs/EXECUTOR.md) — the static
# unfolder's peak heap must stay within 240 B per task for the base and
# CA schemes at the tooling_lint_doctor and sim_nacl16 sizes
# (runtime::unfold), and at the tooling_lint_doctor size the
# steady-state region-dataflow analysis of the CA DAG must stay within
# 0.31 heap allocations per task and the race pass alone within 0.0046
# on the CA and DTD DAGs: footprints are declared into one reused
# scratch and neither pass allocates per task (analyze::{footprint,
# race, dataflow}); a what-if replay of the CA run stays within 0.03
# per task, as its DAG source allocates per replay only
# (runtime::replay).
allocation_ledger_gate() {
    cargo test --release -q -p integration --test alloc_steady_state &&
        cargo test --release -q -p integration --test alloc_unfold &&
        cargo test --release -q -p integration --test alloc_dataflow
}
step allocation_ledger_gate

# Harness gate: the stand-alone benchmark package links the public API
# like an outside user. Build and unit-test it unchanged, so an API break
# (or a changed count it checks) is caught here, before the driver runs it.
step cargo test --release --offline --manifest-path benchmark/Cargo.toml
# Changing a path crate's dependency set silently rewrites the harness's
# committed lockfile; fail instead of letting that slip into a commit.
lockfile_unchanged() {
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git diff --quiet -- benchmark/Cargo.lock
    fi
}
step lockfile_unchanged

# Region-dataflow gate: the halo-coverage proof and dead-transfer
# accounting must pass for all three schemes (base/ca/dtd) in
# steady-state mode, and the deliberately halo-shrunk CA build must make
# the proof FAIL — a mutation test that the coverage check has teeth.
step ./target/release/stencil-lint --n 128 --tile 32 --iters 9 --steps 4 --grid 2 \
    --dataflow --steady-state --check
# The same race and dataflow proofs at the tooling_lint_doctor benchmark
# size: 12 096-task DAGs for every scheme.
step ./target/release/stencil-lint --n 6912 --tile 288 --iters 20 --steps 5 --grid 4 \
    --dataflow --steady-state --check
lint_mutation_gate() {
    local out status
    out=$(./target/release/stencil-lint --n 128 --tile 32 --iters 9 --steps 4 --grid 2 \
        --mutate-ca --check 2>&1)
    status=$?
    # Only a failed proof counts: exit 1 with an uncovered read on the
    # mutant. A panic (exit 101) or any other failure is not a catch.
    if [ "$status" -ne 1 ] || ! grep -qF 'ca*: [uncovered-read' <<<"$out"; then
        echo "mutation NOT caught: want exit 1 and a 'ca*: [uncovered-read' line, got exit $status:"
        echo "$out"
        return 1
    fi
    echo "mutation caught: shrunk CA halo fails the coverage proof"
}
step lint_mutation_gate

# Telemetry smoke: one frame of the reference workload with live
# telemetry on; exits nonzero if the tracer overruns its 2 % self-overhead
# budget or publishes no live samples.
step ./target/release/stencil-top --once

# Figure-10 determinism gate: the figure comes from virtual-time runs, so
# two runs of fig10_trace must write byte-identical artifacts — the
# metrics JSONL and, per version, the Gantt rows, the Chrome trace and
# the diagnosis.
fig10_determinism_gate() {
    local bin="$PWD/target/release/fig10_trace" a b f status=0
    a=$(mktemp -d) && b=$(mktemp -d) || return 1
    (cd "$a" && REPRO_FAST=1 "$bin" >/dev/null) &&
        (cd "$b" && REPRO_FAST=1 "$bin" >/dev/null) || status=1
    for f in fig10.metrics.jsonl fig10_{base,ca}.{gantt,trace.json,doctor.txt}; do
        cmp "$a/$f" "$b/$f" || status=1
    done
    rm -rf "$a" "$b"
    return "$status"
}
step fig10_determinism_gate

# Docs gate: every public item is documented (the workspace denies
# missing_docs) and rustdoc itself must be warning-clean — broken
# intra-doc links are errors, not noise. First-party crates only; the
# vendored stubs are exempt.
docs_clean() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
        -p obs -p desim -p machine -p netsim -p runtime -p analyze \
        -p insight -p ca-stencil -p spmv -p bench
}
step docs_clean

if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --all -- --check
else
    echo "WARNING: rustfmt not installed; skipping cargo fmt --check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    step cargo clippy --workspace --all-targets -- -D warnings
else
    echo "WARNING: clippy not installed; skipping cargo clippy"
fi

if [ "$failed" -ne 0 ]; then
    echo
    echo "CI failed"
    exit 1
fi
echo
echo "CI passed"
