#!/usr/bin/env sh
# Repo health gate: formatting, lints, build, tests. Fully offline.
#
# Usage: scripts/check.sh
# Runs from any directory; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> bash -n scripts/*.sh"
bash -n scripts/bench_pairs.sh
bash -n scripts/regen_results.sh
sh -n scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

# Every suite runs once, here, under one wall-clock bound: a hang is a
# resilience regression and must fail the gate instead of wedging it. What
# the suites with a failure mode of their own are there for:
# - chaos_matrix: outages, bursts, stalls, corruption and 429s injected into
#   the full pipeline; a hung retry loop hangs here.
# - transport: the keep-alive pool never replays a request (explorer
#   requests == collector attempts) under the same profiles, deadline-free
#   profiles repeat to the byte, router legs ride a bounded pool and still
#   fail closed; a pooled connection that hangs would hang here.
# - store_scan: the segment scan stays byte-identical across worker counts,
#   seal thresholds and against the materializing reference scan; every
#   sealed segment re-encodes to its own bytes; a halted run's report (its
#   residue scanned as one in-memory segment) equals its store with that
#   residue sealed in.
# - crash_matrix: the store writer killed at every crash point of a seal
#   (>= 20, clean kill and torn write), truncations and bit flips fuzzed over
#   sealed segments: byte-identical recovery or explicit quarantine, never a
#   silently different report.
# - format_compat: a pre-columnar segment is a `bad_magic` quarantine with
#   exact coverage, never silently skipped; a pre-binary `SWQIX01` index
#   frame is rejected once and rewritten, whole-store and per shard.
# - sandwich-query unit tests, query_service: index build / persistence /
#   corruption handling, the frame body's round trip, determinism and byte
#   fuzz, restart reuses the persisted index, no torn reads under
#   concurrent clients and reloads, serving over a quarantined segment.
# - live_fold_props, live_tail: fold == rebuild for any partition and order;
#   a writer seals while clients long-poll /api/live — cursors never skip or
#   duplicate, a sandwich is on the tail one seal later, the index never
#   falls back to a full rebuild, router live pages match the single engine.
# - sandwich-shard unit tests, shard_props, shard_router, serving_core:
#   merge-layer properties, router responses byte-identical to the single
#   engine at 1/2/4/8 shards (pagination, coverage, validators, 404s),
#   degraded shards, rebalance under a live router, pinned probe bodies of
#   all three services, a shard at another generation or with a malformed
#   partial fails the fan-out closed, a shard words every malformed request
#   like the service, queryd and the router long-poll /api/live alike
#   (same bytes, same query.live.* counts across a mid-wait seal). The
#   canonical path a shard is asked with parses back to its request
#   (sandwich-query's unit proptest).
# - conformance: detector and attribution scored exactly 1.0 against the
#   sim's labels, every criterion load-bearing, every fuzzer family
#   rejected, the scorecard deterministic per seed.
echo "==> cargo test (every suite once, bounded)"
timeout 1200 cargo test --offline --workspace -q

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

# Same for the query index frame: the magic in FORMAT.md's section heading
# must be the INDEX_MAGIC crates/query writes.
echo "==> FORMAT.md index frame magic matches query::INDEX_MAGIC"
spec_magic=$(sed -n 's/^## Query index frame (`\(SWQIX[0-9][0-9]\)\\n`)$/\1/p' docs/FORMAT.md)
code_magic=$(sed -n 's/^pub const INDEX_MAGIC: &\[u8; 8\] = b"\(SWQIX[0-9][0-9]\)\\n";$/\1/p' crates/query/src/index.rs)
if [ -z "$spec_magic" ] || [ -z "$code_magic" ] || [ "$spec_magic" != "$code_magic" ]; then
  echo "index frame magic drift: docs/FORMAT.md says '${spec_magic:-missing}'," \
       "crates/query/src/index.rs says '${code_magic:-missing}'" >&2
  exit 1
fi

# A reload is one store snapshot: a BundleStore reads the manifest and
# computes its generation once, and the serving code reads both off the
# snapshot. So the non-test part of crates/query and crates/shard (each
# file cut at its first #[cfg(test)], as scripts/loc.sh counts) never
# loads the manifest or calls generation_of, and crates/store holds the
# one definition of it.
echo "==> serving code reads the manifest once per snapshot"
rereads=$(find crates/query/src crates/shard/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  !test && /Manifest::load|generation_of\(/ { print FILENAME ":" FNR ": " $0 }')
defs=$(grep -rn --include='*.rs' 'fn generation_of\b' crates || true)
if [ -n "$rereads" ] || [ "$(printf '%s' "$defs" | grep -c '^crates/store/src/')" != 1 ] ||
  [ "$(printf '%s\n' "$defs" | grep -c .)" != 1 ]; then
  echo "manifest read outside the store snapshot; use BundleStore::generation():" >&2
  printf '%s\n' "$rereads" "definitions of generation_of:" "$defs" >&2
  exit 1
fi

# One codec for collected data: the segment store's. The JSONL archive and
# reader, the in-memory analyze over it, the per-bundle scan fold behind
# that, and core's second durable writer were deleted, not bypassed, so no
# Rust source under crates/, tests/ or examples/ names them again. A free
# `fn analyze(` is one whose first parameter is not `&self`; the method
# MeasurementRun::analyze is the store scan itself.
echo "==> one codec for collected data (no JSONL path, no second durable writer)"
legacy=$(grep -rnE --include='*.rs' \
  'write_jsonl|read_jsonl|observe_bundle|visit_bundle|write_file_durable|fn analyze\(([^&]|$)' \
  crates tests examples || true)
if [ -n "$legacy" ]; then
  echo "a second encoding of collected data is back; use the segment codec:" >&2
  printf '%s\n' "$legacy" >&2
  exit 1
fi

# One query language and one answer path. A shard parses `/shard/*` with
# QueryRequest::parse, so the second wire format was deleted, not bypassed,
# and no Rust source under crates/, tests/ or examples/ names ShardQuery
# again. Every `/api` body is rendered by sandwich-query's one `answer`, for
# queryd's engine and for the router alike, so the non-test part of
# crates/shard/src (each file cut at its first #[cfg(test)], as
# scripts/loc.sh counts) never reaches into `render::` — except for
# `render::error_response`, the router's 503 framing, which renders no
# answer.
echo "==> one query language, one answer path (no ShardQuery, no render:: in crates/shard)"
second_language=$(grep -rnw --include='*.rs' 'ShardQuery' crates tests examples || true)
shard_renders=$(find crates/shard/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  { line = $0; gsub(/render::error_response/, "", line) }
  !test && line ~ /render::/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$second_language" ] || [ -n "$shard_renders" ]; then
  echo "a second query language or a second renderer is back; use QueryRequest and sandwich_query::answer:" >&2
  printf '%s\n' "$second_language" "$shard_renders" | grep . >&2
  exit 1
fi

# One long-poll. A backend only gathers the partials a request is answered
# from; the serving skeleton (crates/query/src/serve.rs) answers and runs
# the /api/live long-poll for every public face. So the per-backend hooks
# that wrote it twice were deleted, not bypassed: no non-test Rust source
# under crates/ (each file cut at its first #[cfg(test)], integration-test
# directories left out) names snapshot_for or live_rows_after, the one
# tick LONG_POLL_TICK lives in serve.rs alone, and the long-poll counter
# QUERY_LIVE_LONG_POLLS is recorded there alone (names.rs declares it).
echo "==> one long-poll (no snapshot_for / live_rows_after; tick and counter only in serve.rs)"
second_poll=$(find crates -name '*.rs' -not -path '*/tests/*' | sort | xargs awk '
  FNR == 1 { test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  test { next }
  /snapshot_for|live_rows_after/ { print FILENAME ":" FNR ": " $0; next }
  FILENAME == "crates/query/src/serve.rs" { next }
  /LONG_POLL_TICK/ { print FILENAME ":" FNR ": " $0; next }
  /QUERY_LIVE_LONG_POLLS/ && FILENAME != "crates/obs/src/names.rs" { print FILENAME ":" FNR ": " $0 }')
if [ -n "$second_poll" ]; then
  echo "a second long-poll is back; the serving skeleton waits for every face:" >&2
  printf '%s\n' "$second_poll" >&2
  exit 1
fi

# `unsafe` lives in three files: the segment file mapping, the SHA-256
# kernel on the CPU's SHA extensions and the tokio shim's `join`. Under
# crates/, every `unsafe` block also says why it is sound: a `// SAFETY:`
# comment in the comment lines (attributes allowed) right above the line
# that opens it. Comments are stripped before matching, so prose that says
# "unsafe" does not count.
echo "==> unsafe confined to three files, every block under crates/ with a SAFETY comment"
unsafe_findings=$(find crates shims tests examples benchmark/src -name '*.rs' | sort | xargs awk '
  FNR == 1 { safety = 0 }
  /^[[:space:]]*\/\/ SAFETY:/ { safety = 1 }
  {
    code = $0
    sub(/\/\/.*/, "", code)
    if (code ~ /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/) {
      if (FILENAME != "crates/store/src/mmap.rs" && FILENAME != "crates/types/src/hash.rs" &&
          FILENAME != "shims/tokio/src/lib.rs")
        print FILENAME ":" FNR ": unsafe outside the three allowed files: " $0
      else if (FILENAME ~ /^crates\// && code ~ /unsafe[[:space:]]*\{/ && !safety)
        print FILENAME ":" FNR ": unsafe block without a // SAFETY: comment right above: " $0
    }
  }
  !/^[[:space:]]*(\/\/|#\[)/ { safety = 0 }')
if [ -n "$unsafe_findings" ]; then
  printf '%s\n' "$unsafe_findings" >&2
  exit 1
fi

# The committed paper-facing results must come from this code: every output
# of `paper` at 5 days (sim -> explorer -> collector -> store -> scan ->
# report, then each renderer; ~35 s, each scenario run once) is diffed
# against results/5d/, which scripts/regen_results.sh wrote. That covers
# every renderer, the ones that read what was collected through
# MeasurementRun::walk and not through the report (threshold_sweep,
# ablation) and the store export. A change that moves any of those layers
# fails here until it regenerates results/. paper runs in a scratch
# directory under target/, where export_dataset seals its store.
echo "==> results drift (every paper output at 5 days vs results/5d/)"
drift=target/results_drift
rm -rf "$drift"
mkdir -p "$drift"
if ! (cd "$drift" && unset SANDWICH_SCALE SANDWICH_SEED SANDWICH_STORE_DIR &&
  SANDWICH_DAYS=5 timeout 420 ../release/paper out 2>stderr); then
  tail -n 20 "$drift/stderr" >&2
  exit 1
fi
diff -ru results/5d "$drift/out" || {
  echo "results/ is older than the code: run scripts/regen_results.sh" >&2
  exit 1
}

# The three snapshot writers assert their own invariants in-process
# (planted == found and zero-copy == materializing bytes; zero silent
# divergence over the crash and doctor matrices; precision = recall = 1.0
# and a deterministic scorecard), so exit status is the whole check. They
# run small here because a binary nothing runs rots; the >= 2x scan ratio
# only arms at >= 200k bundles.
echo "==> scan_bench, crash_bench, conformance_bench smoke (bounded)"
SANDWICH_SCAN_BUNDLES=50000 SANDWICH_STORE_DIR=target/scan_smoke.store \
  SANDWICH_BENCH_OUT=target/BENCH_scan_smoke.json \
  timeout 420 target/release/scan_bench
SANDWICH_CRASH_BUNDLES=10000 SANDWICH_BENCH_OUT=target/BENCH_crash_smoke.json \
  timeout 420 target/release/crash_bench
SANDWICH_DAYS=2 SANDWICH_FUZZ_CASES=5 \
  SANDWICH_BENCH_OUT=target/BENCH_conformance_smoke.json \
  timeout 420 target/release/conformance_bench

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
