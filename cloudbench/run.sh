#!/usr/bin/env bash
# run.sh builds the cloudmap benchmark from the checkout's sources and runs
# it with the given arguments. Run it from the repository root:
#
#   bash cloudbench/run.sh --workload fresh --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the Go build cache, temporary files, the binary, state dirs, span
# files and the per-run result records.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f cloudbench/go.mod ]]; then
	echo "cloudbench: run from the repository root of a cloudmap checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C cloudbench build -o "$out/cloudbench" .
commit=unknown
if [[ -d .git ]] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
export CLOUDBENCH_COMMIT="$commit"
exec "$out/cloudbench" "$@"
