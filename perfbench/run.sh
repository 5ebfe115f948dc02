#!/usr/bin/env bash
# Builds the mixtime benchmark from this checkout's sources and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 12 --trace 0
#
# Every file the build and the run write (Go build cache, binary, spans,
# scratch graphs and cache directories) lands under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a mixtime checkout" >&2
  exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
