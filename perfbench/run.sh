#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload timeout-storm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# in the checkout (binary, Go build cache, result records, span files).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# The benchmark is its own Go module (perfbench/go.mod) that imports the
# repository's packages through a replace directive, so the build needs
# the repository beside it; in a directory holding only the benchmark it
# fails, and so does this script.
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out" GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
