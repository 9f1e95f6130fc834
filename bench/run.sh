#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (Go build cache included) stays in
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. BENCH_DIR tells the binary where bench/ is; its working
# directory stays the caller's, so relative paths given to -compare work.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/procgroup-bench" .)
BENCH_DIR="$here" exec "$out/procgroup-bench" "$@"
