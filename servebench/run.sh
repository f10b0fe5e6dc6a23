#!/usr/bin/env bash
# Builds the serving benchmark from source into .bench_build/ and runs
# it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload serve-http --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache and temporary files
# stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "servebench: go.mod not found; run from a checkout of the repository" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/servebench" ./servebench
exec "$out/servebench" "$@"
