#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload tpch-fig6 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --spread 10 --seconds 10
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/perfbench in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
