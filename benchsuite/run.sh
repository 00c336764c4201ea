#!/usr/bin/env bash
# Builds the join benchmark from the checkout's source and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchsuite/run.sh --workload join-hot --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, the binary, fixture temp dirs)
# stays under $CARGO_TARGET_DIR, default .bench_build, in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchsuite/go.mod" ]]; then
	echo "benchsuite/run.sh: run from the repository root (go.mod, internal/ and benchsuite/ expected)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache" "$out/config"

# Offline, in-checkout build: no toolchain download, no module proxy, and
# the toolchain's own config and telemetry files kept under $out too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off XDG_CONFIG_HOME=$out/config
(cd "$root/benchsuite" && go build -buildvcs=false -o "$out/benchsuite" .) >&2

exec "$out/benchsuite" "$@"
