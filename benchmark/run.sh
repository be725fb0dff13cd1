#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark package from source (offline; into CARGO_TARGET_DIR
# when set, else benchmark/target) and runs one workload: `bench-run` with
# tracing off for the end-to-end metrics, `bench-trace` for the per-layer
# ones. Only the binary that runs is built, so a refactor that breaks a
# finer-grained call `bench-trace` makes cannot stop `bench-run`. Any other
# arguments (--smoke, --aa, none) go to `bench-run` unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bin=bench-run
previous=""
for argument in "$@"; do
  if [[ "$previous" == "--trace" && "$argument" == "1" ]]; then
    bin=bench-trace
  fi
  previous="$argument"
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin "$bin" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/$bin" "$@"
