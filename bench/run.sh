#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the
# repository root, so every path it reads or writes stays inside this
# checkout: the go command's cache, module cache, and home directory (its
# configuration and telemetry live there) go to .bench_build/, as do the
# binary and the benchmark's scratch data.
#
#   bash bench/run.sh --workload registry-quick --seed 1 --seconds 45 --trace 0
#   bash bench/run.sh -diff base.jsonl change.jsonl
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
