#!/usr/bin/env bash
# Alternating parent/change benchmark pairs for one workload — the table a
# performance PR owes its CHANGES.md entry.
#
# Usage: scripts/bench_pairs.sh <workload> <pairs> [<rev>]
#
# Archives <rev> (default HEAD) into a temp dir as the parent, builds
# `bench-run` once per side, then runs `benchmark/run.sh --workload
# <workload> --seconds 16 --trace 0` on the parent and on the working tree
# <pairs> times: both sides of a pair get the same seed, odd pairs run the
# parent first and even pairs the change. Seeds are SEED_BASE+1.. (SEED_BASE
# defaults to 100; move it to measure on seeds not used during development).
# Prints one host line first (both sides' git revs, nproc, CPU model, kernel
# release, whether the CPU has the SHA extensions), then every run's result
# line as it lands, then per metric both medians, both quartile pairs, the
# pair wins and the driver's spread rule: the
# change's quartile spread (q3 - q1) as a share of the parent's median,
# flagged WIDE past the metric's `bound` in BENCHMARK.json — a change that
# multiplies a rate must keep its own runs inside that absolute band.
# Needs python3 for the table only.
# With BENCH_PAIRS_DIR set, the parent checkout and both target dirs live
# there and survive, so a second workload does not rebuild.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  sed -n '2,22p' "${BASH_SOURCE[0]}" >&2
  exit 2
fi
workload="$1"
pairs="$2"
rev="${3:-HEAD}"
seed_base="${SEED_BASE:-100}"

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ -n "${BENCH_PAIRS_DIR:-}" ]]; then
  work="$BENCH_PAIRS_DIR"
  rm -rf "$work/parent" "$work/runs.txt"
else
  work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
  trap 'rm -rf "$work"' EXIT
fi

mkdir -p "$work/parent"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent"

declare -A root=([parent]="$work/parent" [change]="$repo")

change_rev="$(git -C "$repo" rev-parse --short HEAD)"
[[ -z "$(git -C "$repo" status --porcelain)" ]] || change_rev+="+dirty"
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
sha_ni=no
grep -qw sha_ni /proc/cpuinfo 2>/dev/null && sha_ni=yes
echo "host: parent $(git -C "$repo" rev-parse --short "$rev") change $change_rev," \
  "nproc $(nproc), cpu ${cpu:-unknown}, kernel $(uname -r), sha_ni $sha_ni"

for name in parent change; do
  echo "building $name (${root[$name]})" >&2
  CARGO_TARGET_DIR="$work/$name-target" cargo build --release --offline --quiet \
    --manifest-path "${root[$name]}/benchmark/Cargo.toml" --bin bench-run
done

# side <parent|change> <seed>: one contract run, the result line on stdout.
# A run whose checks fail exits non-zero but still prints its line, which
# the table counts.
side() {
  CARGO_TARGET_DIR="$work/$1-target" bash "${root[$1]}/benchmark/run.sh" \
    --workload "$workload" --seed "$2" --seconds 16 --trace 0 2>/dev/null | tail -n 1 || true
}

for ((pair = 1; pair <= pairs; pair++)); do
  seed=$((seed_base + pair))
  if ((pair % 2)); then order="parent change"; else order="change parent"; fi
  for name in $order; do
    line="$(side "$name" "$seed")"
    echo "pair $pair seed $seed $name $line"
    echo "$pair $name $line" >>"$work/runs.txt"
  done
done

python3 - "$workload" "$work/runs.txt" "$repo/BENCHMARK.json" <<'PY'
import json, statistics, sys

workload, path = sys.argv[1], sys.argv[2]
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[3]))["end_to_end"]}
lower_is_better = {"setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "disk_bytes_per_bundle"}
runs = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for row in open(path):
    pair, side, line = row.split(" ", 2)
    result = json.loads(line)
    runs[side][int(pair)] = {k: v["value"] for k, v in result["metrics"].items()}
    failed[side] += result["failed"] + (0 if result["correct"] else 1)

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

pairs = sorted(runs["parent"])
print(f"\n{workload}: {len(pairs)} pairs, failed ops or checks parent {failed['parent']} change {failed['change']}")
print(f"{'metric':<24}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}{'median':>12}{'wins':>7}{'spread/bound':>20}")
for metric in runs["parent"][pairs[0]]:
    parent = [runs["parent"][p][metric] for p in pairs]
    change = [runs["change"][p][metric] for p in pairs]
    better = (lambda c, p: c < p) if metric in lower_is_better else (lambda c, p: c > p)
    wins = sum(better(c, p) for c, p in zip(change, parent))
    ties = sum(c == p for c, p in zip(change, parent))
    pq, cq = quartiles(parent), quartiles(change)
    shift = (cq[1] / pq[1] - 1) * 100 if pq[1] else 0.0
    cell = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
    tied = f" ={ties}" if ties else ""
    spread = (cq[2] - cq[0]) / pq[1] if pq[1] else 0.0
    bound = bounds.get(metric)
    wide = " WIDE" if bound is not None and spread > bound else ""
    rule = f"{spread:.3f} / {bound}{wide}" if bound is not None else f"{spread:.3f}"
    print(f"{metric:<24}{cell(pq):>36}{cell(cq):>36}{shift:>+11.1f}%{wins:>4}/{len(pairs)}{tied:<4}{rule:>16}")
PY
