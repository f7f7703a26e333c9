#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds csrload from source inside the
# checkout and execs it with the caller's arguments; csrload builds csrserver
# itself. Everything either build or the run writes — Go build and module
# caches, the toolchain's temp and config files, binaries, snapshots, logs,
# traces — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C "$root/csrload" -o "$build/csrload" .
exec "$build/csrload" -root "$root" "$@"
