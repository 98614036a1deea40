#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash llabench/run.sh --workload fleet-certify --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. The Go build cache, temporary files,
# the binary and the span files stay under .bench_build in that directory.
# Without the repository's sources next to llabench/ the build fails, and
# so does the script, before printing any result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
# The module needs nothing beyond the repository and the standard library:
# never download a toolchain or a module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/llabench" && go build -o "$out/llabench" .)
exec "$out/llabench" "$@"
