#!/usr/bin/env bash
# Build stencil-perf (offline, release, its own workspace) and run it.
#
#   benchmark/run.sh                         every workload, untraced then traced
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                            one workload, as BENCHMARK.json runs it
#   benchmark/run.sh --selfcheck             two sets back to back, compared
#   benchmark/run.sh --workload all --update-golden   rewrite golden.json
#
# Run from anywhere; nothing outside the checkout is written. The last line
# of a single-workload run is the JSON result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/stencil-perf" "$@"
