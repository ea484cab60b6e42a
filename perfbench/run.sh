#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it. Run from the checkout root; every argument is passed through:
#
#	bash perfbench/run.sh --workload zst-p100k --seed 9 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and any Go tool state stay under
# .bench_build/ in the checkout.
set -euo pipefail

top=$(pwd)
out="$top/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	GIT_CEILING_DIRECTORIES="$(dirname "$top")"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
