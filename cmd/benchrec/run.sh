#!/usr/bin/env bash
# Builds cmd/benchrec from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash cmd/benchrec/run.sh --workload dense-P1024 --seed 1 --seconds 12 --trace 0
#   bash cmd/benchrec/run.sh --seed 1          # every workload, untraced then traced
#
# The build and every Go cache live under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, so nothing is read or written outside it,
# and the module proxy is off: the build needs nothing but the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off
export GOPROXY=off GOSUMDB=off

(cd "$root/cmd/benchrec" && go build -o "$out/benchrec" .)
exec "$out/benchrec" "$@"
