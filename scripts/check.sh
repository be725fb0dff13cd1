#!/usr/bin/env sh
# Repo health gate: formatting, lints, build, tests. Fully offline.
#
# Usage: scripts/check.sh
# Runs from any directory; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> bash -n scripts/bench_pairs.sh"
bash -n scripts/bench_pairs.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

# The chaos matrix injects outages, bursts, stalls, corruption, and 429s
# into the full pipeline; a hang here means a resilience regression, so it
# runs again by name under a hard wall-clock bound.
echo "==> chaos matrix (bounded)"
timeout 420 cargo test --offline -p sandwich-suite --test chaos_matrix -q

# The transport under the same profiles: the keep-alive pool never replays
# a request (explorer requests == collector attempts), deadline-free
# profiles repeat to the byte with their connection counts, and router legs
# ride a bounded pool and still fail closed. A pooled connection that hangs
# would hang here, hence the bound.
echo "==> transport (bounded)"
timeout 420 cargo test --offline -p sandwich-suite --test transport -q

# The segment store scan must stay byte-identical across worker counts and
# against the legacy in-memory analysis; a divergence here is a determinism
# regression in the scan engine.
echo "==> store scan determinism (bounded)"
timeout 420 cargo test --offline -p sandwich-suite --test store_scan -q

# The crash matrix kills the store writer at every enumerated crash point
# of a segment seal (clean kill and torn write), and fuzzes truncations and
# bit flips over sealed segments: every case must recover byte-identically
# or quarantine explicitly. Runs by name under a wall-clock bound.
echo "==> crash matrix (bounded)"
timeout 420 cargo test --offline -p sandwich-suite --test crash_matrix -q

# A bounded crash_bench run drives the same matrix end to end at a 10k-
# bundle store scale, exercises the doctor over torn tails / footer rot /
# body rot / missing files, and proves queryd keeps serving (healthz OK,
# coverage reported) over a store with one quarantined segment. The two
# hard gates: zero silent divergence, and at least 20 enumerated crash
# points per seal.
echo "==> crash_bench smoke (bounded, 10k-bundle store)"
SANDWICH_CRASH_BUNDLES=10000 \
SANDWICH_BENCH_OUT=target/BENCH_crash_smoke.json \
timeout 420 cargo run --offline --release -p sandwich-bench --bin crash_bench
gate_crash_json() {
  f="$1"
  grep -q '"silent_divergence": 0' "$f" || {
    echo "$f: silent_divergence != 0 — a crash case produced a silently different store" >&2
    exit 1
  }
  points=$(sed -n 's/.*"crash_points": \([0-9][0-9]*\).*/\1/p' "$f")
  if [ -z "$points" ] || [ "$points" -lt 20 ]; then
    echo "$f: crash_points '${points:-missing}' is under the floor of 20" >&2
    exit 1
  fi
  for field in recovery_max_ms torn_tail_bytes_reclaimed queryd_served_with_quarantine healthz_ok; do
    grep -q "\"$field\"" "$f" || {
      echo "$f is missing \"$field\"" >&2
      exit 1
    }
  done
}
gate_crash_json target/BENCH_crash_smoke.json
if [ -f results/BENCH_crash.json ]; then
  gate_crash_json results/BENCH_crash.json
fi

# A bounded scale_gen + scan_bench run smoke-tests the synthesize → seal →
# scan path end to end: it asserts the findings count equals the planted
# ground truth and that the zero-copy, materializing, and multi-thread
# scans all serialize byte-identically. The >=2x speedup gate only arms at
# >=200k bundles, so this checks correctness, not the ratio.
echo "==> scan_bench smoke (bounded, 50k-bundle scale store)"
SANDWICH_SCAN_BUNDLES=50000 \
SANDWICH_BENCH_OUT=target/BENCH_scan_smoke.json \
SANDWICH_STORE_DIR=target/scan_smoke.store \
timeout 420 cargo run --offline --release -p sandwich-bench --bin scan_bench
for field in zero_copy_speedup_1_thread materializing_bundles_per_sec \
             byte_identical_across_paths_and_threads single_core; do
  grep -q "\"$field\"" target/BENCH_scan_smoke.json || {
    echo "BENCH_scan_smoke.json is missing \"$field\"" >&2
    exit 1
  }
done
if [ -f results/BENCH_scan.json ]; then
  for field in zero_copy_speedup_1_thread materializing_bundles_per_sec \
               byte_identical_across_paths_and_threads; do
    grep -q "\"$field\"" results/BENCH_scan.json || {
      echo "results/BENCH_scan.json is missing \"$field\"" >&2
      exit 1
    }
  done
fi

# The on-disk format spec must agree with the code on the format version:
# docs/FORMAT.md states it as a greppable "FORMAT_VERSION = N" line, and
# crates/store declares "FORMAT_VERSION: u8 = N". Extract both, compare.
echo "==> FORMAT.md version matches store::FORMAT_VERSION"
spec_ver=$(sed -n 's/^FORMAT_VERSION = \([0-9][0-9]*\)$/\1/p' docs/FORMAT.md)
code_ver=$(sed -n 's/^pub const FORMAT_VERSION: u8 = \([0-9][0-9]*\);$/\1/p' crates/store/src/segment.rs)
if [ -z "$spec_ver" ] || [ -z "$code_ver" ] || [ "$spec_ver" != "$code_ver" ]; then
  echo "format version drift: docs/FORMAT.md says '${spec_ver:-missing}'," \
       "crates/store/src/segment.rs says '${code_ver:-missing}'" >&2
  exit 1
fi

# The conformance smoke replays the ground-truth lab end to end: detector
# precision/recall 1.0 against the sim's labels, every criterion ablation
# load-bearing, all fuzzer near-miss families rejected, and a byte-identical
# scorecard on a second identically-seeded run.
echo "==> conformance_bench smoke (bounded)"
SANDWICH_DAYS=2 \
SANDWICH_FUZZ_CASES=5 \
SANDWICH_SCORE_REPS=2 \
SANDWICH_BENCH_OUT=target/BENCH_conformance_smoke.json \
timeout 420 cargo run --offline --release -p sandwich-bench --bin conformance_bench

# The query subsystem: index build/persistence/corruption handling and the
# no-torn-reads contract under concurrent clients and reloads.
echo "==> query service tests (bounded)"
timeout 420 cargo test --offline -p sandwich-query -q
timeout 420 cargo test --offline -p sandwich-suite --test query_service -q

# The live tail: fold-equivalence properties (any partition, any order,
# mixed v1/v2 and quarantined segments in the delta), and the concurrency
# test where a writer seals while clients long-poll /api/live — cursors
# never skip or duplicate, and the index never falls back to a full
# rebuild.
echo "==> live tail tests (bounded)"
timeout 420 cargo test --offline -p sandwich-suite --test live_fold_props -q
timeout 420 cargo test --offline -p sandwich-suite --test live_tail -q

# A short query_bench run drives the live service over real sockets: it
# asserts the zipf cache-hit rate, byte-identical cached vs uncached
# bodies, persisted-index reuse on restart, and the live-tail phase —
# every seal folded (never rebuilt) into the serving index and visible on
# /api/live within one seal.
echo "==> query_bench smoke (bounded)"
SANDWICH_DAYS=2 \
SANDWICH_QUERY_STORE_DIR=target/query_smoke.store \
SANDWICH_LIVE_STORE_DIR=target/query_smoke.live.store \
SANDWICH_BENCH_OUT=target/BENCH_query_smoke.json \
timeout 420 cargo run --offline --release -p sandwich-bench --bin query_bench
gate_query_json() {
  f="$1"
  grep -q '"fold_only_reloads": true' "$f" || {
    echo "$f: fold_only_reloads != true — a reload fell back to a full index rebuild" >&2
    exit 1
  }
  grep -q '"full_rebuilds": 0' "$f" || {
    echo "$f: full_rebuilds != 0 — the live phase rebuilt an index from scratch" >&2
    exit 1
  }
  grep -q '"live_identical": true' "$f" || {
    echo "$f: live_identical != true — router /api/live diverged from the single engine" >&2
    exit 1
  }
  p99_seals=$(sed -n 's/.*"p99_freshness_seals": \([0-9][0-9]*\).*/\1/p' "$f")
  if [ -z "$p99_seals" ] || [ "$p99_seals" -gt 1 ]; then
    echo "$f: p99_freshness_seals '${p99_seals:-missing}' exceeds the 1-seal freshness bound" >&2
    exit 1
  fi
  for field in p50_ms p95_ms p99_ms throughput_rps; do
    grep -q "\"$field\"" "$f" || {
      echo "$f is missing \"$field\"" >&2
      exit 1
    }
  done
}
grep -q '"zipf_cache_hit_rate"' target/BENCH_query_smoke.json || {
  echo "BENCH_query_smoke.json is missing \"zipf_cache_hit_rate\"" >&2
  exit 1
}
gate_query_json target/BENCH_query_smoke.json
if [ -f results/BENCH_query.json ]; then
  gate_query_json results/BENCH_query.json
fi

# The sharded router: merge-layer properties, the /shard/* wire round
# trip, byte-identity across shard counts (incl. pagination, coverage,
# 404s), degraded shards, and rebalance under a live router; then the
# serving skeleton seen from outside — pinned probe bodies of all three
# services, the shed response, and shards folding on growth.
echo "==> shard router tests (bounded)"
timeout 420 cargo test --offline -p sandwich-shard -q
timeout 420 cargo test --offline -p sandwich-suite --test shard_props -q
timeout 420 cargo test --offline -p sandwich-suite --test shard_router -q
timeout 420 cargo test --offline -p sandwich-suite --test serving_core -q

# A bounded shard_bench run drives a 50k-bundle store through 1/2/4/8
# shards over real sockets. The hard gate is merged_identical: every
# router response byte-identical to the single engine at every shard
# count. scan_speedup_4_shards is reported, not gated — it only means
# something on multi-core hardware.
echo "==> shard_bench smoke (bounded, 50k-bundle store)"
SANDWICH_SHARD_BUNDLES=50000 \
SANDWICH_SHARD_REQUESTS=200 \
SANDWICH_BENCH_OUT=target/BENCH_shard_smoke.json \
timeout 420 cargo run --offline --release -p sandwich-bench --bin shard_bench
gate_shard_json() {
  f="$1"
  grep -q '"merged_identical": true' "$f" || {
    echo "$f: merged_identical != true — a sharded response diverged from the single engine" >&2
    exit 1
  }
  for field in scan_speedup_4_shards build_seconds throughput_rps; do
    grep -q "\"$field\"" "$f" || {
      echo "$f is missing \"$field\"" >&2
      exit 1
    }
  done
}
gate_shard_json target/BENCH_shard_smoke.json
if [ -f results/BENCH_shard.json ]; then
  gate_shard_json results/BENCH_shard.json
fi

# The attribution bench replays the default 8-day scenario into a store,
# joins every sealed sandwich to its slot leader, and scores the result
# against the sim's label book. The hard gates: exact attribution
# (accuracy 1.0 — every detected sandwich on the right leader, colluder
# set recovered exactly) and byte-identical /api/validators responses
# between the single engine and the 1/2/4/8-shard router.
echo "==> attrib_bench smoke (bounded, 8-day scenario)"
SANDWICH_ATTRIB_STORE_DIR=target/attrib_smoke.store \
SANDWICH_BENCH_OUT=target/BENCH_attrib_smoke.json \
timeout 420 cargo run --offline --release -p sandwich-bench --bin attrib_bench
gate_attrib_json() {
  f="$1"
  grep -q '"attribution_accuracy": 1.000' "$f" || {
    echo "$f: attribution_accuracy != 1.0 — a sandwich was joined to the wrong leader" >&2
    exit 1
  }
  grep -q '"validators_identical": true' "$f" || {
    echo "$f: validators_identical != true — sharded /api/validators diverged from the single engine" >&2
    exit 1
  }
  for field in colluder_precision colluder_recall colluder_ranking_agreement \
               leaderboard_overhead_pct; do
    grep -q "\"$field\"" "$f" || {
      echo "$f is missing \"$field\"" >&2
      exit 1
    }
  done
}
gate_attrib_json target/BENCH_attrib_smoke.json
if [ -f results/BENCH_attrib.json ]; then
  gate_attrib_json results/BENCH_attrib.json
fi

# The repository's one benchmark lives in benchmark/, a package of its own
# outside the workspace. Its unit tests compile bench-run *and* bench-trace
# against the crates' public API — a refactor that breaks a call either
# binary makes fails here, not at the next benchmark run — and the smoke
# run drives all five workloads once (~16 s) with every op checked against
# its reference.
echo "==> benchmark package tests + smoke (bounded)"
timeout 900 cargo test --offline -q --manifest-path benchmark/Cargo.toml
timeout 420 bash benchmark/run.sh --smoke

echo "==> all checks passed"
