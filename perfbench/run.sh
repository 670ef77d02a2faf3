#!/usr/bin/env bash
# Builds iprism-serve, iprism-gateway and the benchmark from source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload session_fleet --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/iprism-serve" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp"

export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/" ./cmd/iprism-serve ./cmd/iprism-gateway >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --bin "$build/bin" --workdir "$build/runs" "$@"
