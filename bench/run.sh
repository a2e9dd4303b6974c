#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from anywhere inside a checkout of the repository:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's configuration
# (and so its telemetry) live in .bench_build at the root of the
# checkout, so nothing is written outside it. The bench module builds
# against the repository through a replace directive; without the
# repository around it the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
