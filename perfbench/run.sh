#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it.
#
# Usage, from the repository root:
#
#   bash perfbench/run.sh --workload crypt-lab --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and configuration, the binary, the per-run
# WAL state (removed when the run ends) and the traced run's span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/perfbench"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/perfbench/perfbench" .)
cd "$root"
exec "$out/perfbench/perfbench" --workdir "$out/perfbench" "$@"
