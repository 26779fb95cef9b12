#!/usr/bin/env bash
# Builds the benchmark and the upa-server it drives from this checkout, then
# runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the servers' temporary state all stay
# under .bench_build at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config"

# Everything the go command writes (build cache, temporary files, module
# cache, telemetry counters under the config directory) lands in $out. The
# module needs no downloads: upa is replaced by the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod TMPDIR="$out/tmp"

(
	cd "$here"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/upa-server" upa/cmd/upa-server
) >&2

exec "$out/bin/perfbench" -server "$out/bin/upa-server" -workdir "$out" "$@"
