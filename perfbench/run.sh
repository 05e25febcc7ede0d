#!/usr/bin/env bash
# Builds the kboostd benchmark from the sources of the checkout it runs
# in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload warm_reads --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and a
# traced run's spans go to .bench_build/ there; nothing is fetched and
# nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
