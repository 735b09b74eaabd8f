#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments. Every build and cache file stays under
# .bench_build at the checkout root, so nothing outside the checkout is
# written and no network access is attempted.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
