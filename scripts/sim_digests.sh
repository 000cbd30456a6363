#!/usr/bin/env bash
# Replays the committed simulated-side digests — "every simulated column
# identical", asserted by a tool instead of by hand — and gates the host-side
# count that repeats run to run, allocations per committed transaction:
#
#   bash scripts/sim_digests.sh [file]        (or: make sim-digests)
#
# For each `<seed> <workload> <digest> <allocs_per_commit>` line of
# scripts/sim_digests.txt it runs
#   stablbench -reps 1 -trace 0 -workload W -seed S
# (built once from this checkout into a temporary directory, removed on exit)
# and compares the printed sim_digest's first 16 hex digits exactly and the
# printed allocs_per_commit within 1 % either way. The first mismatch, failed
# run or missing value fails the script.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
list=${1:-scripts/sim_digests.txt}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sim-digests.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
${GO:-go} build -o "$tmp/stablbench" ./benchmark/cmd/stablbench

while read -r seed workload want allocs; do
	case $seed in '' | '#'*) continue ;; esac
	"$tmp/stablbench" -reps 1 -trace 0 -workload "$workload" -seed "$seed" >"$tmp/out.log" 2>&1 || {
		cat "$tmp/out.log" >&2
		echo "sim-digests: $workload seed $seed: run failed" >&2
		exit 1
	}
	got=$(sed -n 's/.*sim_digest \([0-9a-f]\{16\}\).*/\1/p' "$tmp/out.log" | head -n 1)
	if [ "$got" != "$want" ]; then
		echo "sim-digests: $workload seed $seed: sim_digest $got, want $want" >&2
		exit 1
	fi
	gota=$(sed -n 's/^ *allocs_per_commit  *\([0-9.e+-]*\) .*/\1/p' "$tmp/out.log" | head -n 1)
	if ! awk -v got="$gota" -v want="$allocs" 'BEGIN { d = got - want; if (d < 0) d = -d; exit !(got != "" && want > 0 && d <= 0.01 * want) }'; then
		echo "sim-digests: $workload seed $seed: allocs_per_commit ${gota:-missing}, want $allocs within 1 %" >&2
		exit 1
	fi
	echo "sim-digests: $workload seed $seed: $got, $gota allocs/commit"
done <"$list"
