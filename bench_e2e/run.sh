#!/usr/bin/env bash
# Build the benchmark and the repository crates under it from source
# (release profile, offline), then run it with the given arguments:
#   bash bench_e2e/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/srumma-bench-e2e" "$@"
