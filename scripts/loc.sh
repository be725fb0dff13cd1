#!/usr/bin/env sh
# Non-test source lines: everything before a file's first `#[cfg(test)]`,
# per file and per crate. Usage: scripts/loc.sh [dir ...]
# (default: crates/query/src crates/shard/src). Blank lines and comments
# count — the figure tracks what a reader has to read, and must not move
# by reformatting.
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/query/src crates/shard/src
find "$@" -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  !test { file[FILENAME]++; split(FILENAME, p, "/"); crate[p[1] "/" p[2]]++; total++ }
  END {
    for (f in file) printf "%6d  %s\n", file[f], f | "sort -k2"
    close("sort -k2")
    for (c in crate) printf "%6d  %s (crate)\n", crate[c], c | "sort -k2"
    close("sort -k2")
    printf "%6d  total\n", total
  }'
