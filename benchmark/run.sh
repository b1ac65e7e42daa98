#!/usr/bin/env bash
# Builds the benchmark program and the vedranalyzerd shard binary from the
# checkout's sources, then runs one workload:
#
#   bash benchmark/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, WAL directories, temporary files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$build/bin"

go -C "$root/benchmark" build -o "$build/bin/benchrun" .
go -C "$root/benchmark" build -o "$build/bin/vedranalyzerd" vedrfolnir/cmd/vedranalyzerd

exec "$build/bin/benchrun" \
	-analyzerd "$build/bin/vedranalyzerd" \
	-work-dir "$build/work" \
	"$@"
