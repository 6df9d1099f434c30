#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload testbed-incast --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# the result files all live under .bench_build/ there.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/perfbench" ] || {
	echo "run.sh: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
}
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/results" "$@"
