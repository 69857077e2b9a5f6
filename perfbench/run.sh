#!/usr/bin/env bash
# Builds cmd/soxqd and the benchmark driver from the checkout in the current
# directory, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload xmark-joins --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). The result is the last line of stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
# The go command reads its telemetry mode from a file, not from the
# environment; in the default "local" mode it may start a detached sidecar
# process that outlives the run. Turn it off in the private config dir.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ] || [ ! -d cmd/soxqd ]; then
	echo "perfbench: no soxq checkout in $root (go.mod and cmd/soxqd are needed)" >&2
	exit 1
fi
go build -o "$out/bin/soxqd" ./cmd/soxqd >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" --soxqd "$out/bin/soxqd" --out "$out" "$@"
