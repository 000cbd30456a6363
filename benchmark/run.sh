#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json's command). Builds stablbench from the
# checkout's source and runs it with the driver's arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes — the binary, Go's build cache and its temporary
# files — stays under .bench_build inside the checkout. People run
# `go run ./benchmark/cmd/stablbench` instead; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/stablbench" ./benchmark/cmd/stablbench
exec "$build/stablbench" "$@"
