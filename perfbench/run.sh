#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags (see README.md). Every build and run artefact stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's telemetry counters, which it
# writes under the user's config directory, into the checkout as well.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -commit "$commit" "$@"
