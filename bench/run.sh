#!/usr/bin/env bash
# Builds the two daemons and the harness from this checkout, then runs the
# harness with the given arguments. Everything it writes stays inside
# bench/out/: binaries and the Go build cache under bench/out/.build/ (the
# go command skips a directory whose name starts with a dot), run outputs
# beside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/bench/out/.build"
bin="$build/bin"
# Everything the go command would otherwise write under $HOME or /tmp: its
# build cache, its telemetry counters, the module cache and its work dirs.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$bin" "$GOTMPDIR"
# Rebuild only when a source file is newer than the harness binary: a
# no-op `go build` still costs about a second, a hundred times a session.
if [ ! -x "$bin/bench" ] || [ ! -x "$bin/bdservd" ] || [ ! -x "$bin/bdcoord" ] ||
	[ -n "$(find . -path ./bench/out -prune -o \( -name '*.go' -o -name go.mod -o -name golden.json \) -newer "$bin/bench" -print -quit)" ]; then
	go build -o "$bin/" ./cmd/bdservd ./cmd/bdcoord >&2
	go build -C bench -o "$bin/bench" . >&2
fi
exec "$bin/bench" -bin "$bin" "$@"
