#!/usr/bin/env bash
# Driver entry point named by /BENCHMARK.json: build the harness from
# source into .bench_build/ at the checkout root, then run it with the
# caller's arguments. Everything the build and the run write (binary, go
# caches, temp dirs, DataDirs, span files) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# go's env file and telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$build/config"
# The driver's checkout is not a git repository: stamp the commit by hand
# when there is one, and never let VCS stamping fail the build.
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/twload" .
exec "$build/twload" "$@"
