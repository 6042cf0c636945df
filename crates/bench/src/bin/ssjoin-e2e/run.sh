#!/usr/bin/env bash
# Build the `ssjoin` CLI and the `ssjoin-e2e` benchmark from source, then run
# the benchmark with the given arguments, e.g.
#
#   bash crates/bench/src/bin/ssjoin-e2e/run.sh --workload edit-25k --seed 7 --seconds 20 --trace 0
#
# Both are binaries of the repository's workspace (`ssjoin-e2e` is found
# automatically under `crates/bench/src/bin/`), so one build puts them side
# by side in CARGO_TARGET_DIR (default: the repository's `target`), where the
# benchmark finds `ssjoin`.
set -euo pipefail
cd "$(dirname "$0")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ssjoin -p ssjoin-bench --bin ssjoin --bin ssjoin-e2e
exec "$CARGO_TARGET_DIR/release/ssjoin-e2e" "$@"
