#!/usr/bin/env bash
# Regenerate results/ from the current code, default seed and scale: one
# results/<name>.txt per figure binary (stdout only; the [bench] progress
# lines go to stderr), the 5-day headline and threshold sweep
# scripts/check.sh diffs against, and the detector scorecard. All of these are pure functions of the seed,
# so a second run leaves `git status results/` clean (~15 min).
#
# Usage: scripts/regen_results.sh [--timed]
#   --timed  also run the two recorders, whose snapshots carry wall-clock
#            numbers and so differ run to run: scan_bench (1 M bundles,
#            ~100 MB of scratch disk) and crash_bench (50 k bundles).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
cargo build --offline --release -p sandwich-bench
bin=$root/target/release

# The binaries run from a scratch directory: export_dataset writes
# dataset.jsonl and dataset.store beside itself and prints those names.
tmp=$root/target/regen.tmp
rm -rf "$tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
unset SANDWICH_DAYS SANDWICH_SCALE SANDWICH_SEED SANDWICH_OUT \
      SANDWICH_STORE_DIR SANDWICH_BENCH_OUT SANDWICH_FUZZ_CASES \
      SANDWICH_SCAN_BUNDLES SANDWICH_CRASH_BUNDLES

figure() { # figure <binary> <output file>
  echo "==> $2" >&2
  "$bin/$1" > "$root/results/$2" 2> "$tmp/stderr" || {
    tail -n 20 "$tmp/stderr" >&2
    exit 1
  }
}

for name in fig1 fig2 fig3 fig4 table1 headline ablation threshold_sweep \
            whatif lower_bound overlap export_dataset; do
  figure "$name" "$name.txt"
done
SANDWICH_DAYS=5 figure headline headline_5d.txt
SANDWICH_DAYS=5 figure threshold_sweep threshold_sweep_5d.txt

writers=(conformance)
if [[ "${1:-}" == --timed ]]; then
  writers+=(scan crash)
fi
for name in "${writers[@]}"; do
  echo "==> BENCH_$name.json" >&2
  SANDWICH_BENCH_OUT="$root/results/BENCH_$name.json" "$bin/${name}_bench" >&2
done
