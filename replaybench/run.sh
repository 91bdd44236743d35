#!/usr/bin/env bash
# Builds the replay benchmark from the repository's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash replaybench/run.sh --workload pclht-pmaware --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/replaybench" && go build -o "$out/replaybench" .)
exec "$out/replaybench" "$@"
