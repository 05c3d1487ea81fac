#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the given
# arguments (see benchmark/README.md). Everything the build and the run write
# stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/meshbench" .)
cd "$root"
exec "$out/meshbench" "$@"
