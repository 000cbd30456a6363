#!/usr/bin/env bash
# Replays the committed simulated-side expectations — "every simulated column
# identical", asserted by a tool instead of by hand — and gates the host-side
# count that repeats run to run, allocations per committed transaction:
#
#   bash scripts/sim_digests.sh [file]        (or: make sim-digests)
#
# For each `<seed> <workload> key=value …` line of scripts/sim_digests.txt it
# runs
#   stablbench -reps 1 -trace 0 -workload W -seed S
# (built once from this checkout into a temporary directory, removed on exit)
# and reads every `<key> <value>` pair the report prints: sim_digest's first
# 16 hex digits, the counts on its `simulated` lines and the end-to-end
# metrics. Each key must match exactly, except allocs_per_commit within 1 %
# and live_heap_mb within 2 %, either way; each line reports how far those
# two are from their recorded values (got vs recorded, in %), so a count
# drifting toward its bound shows before it fails. Every key that moved is
# printed by name; a moved key, a failed run or a missing value fails the
# script.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
list=${1:-scripts/sim_digests.txt}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sim-digests.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
${GO:-go} build -o "$tmp/stablbench" ./benchmark/cmd/stablbench

failed=0
while read -r seed workload expect; do
	case $seed in '' | '#'*) continue ;; esac
	"$tmp/stablbench" -reps 1 -trace 0 -workload "$workload" -seed "$seed" >"$tmp/out.log" 2>&1 || {
		cat "$tmp/out.log" >&2
		echo "sim-digests: $workload seed $seed: run failed" >&2
		exit 1
	}
	# The first value printed after each lower-case name, one pair a line.
	awk '{ for (i = 1; i < NF; i++) if ($i ~ /^[a-z_]+$/ && $(i + 1) ~ /^[0-9a-f.e+-]+$/ && !($i in seen)) { seen[$i]; print $i, $(i + 1) } }' \
		"$tmp/out.log" >"$tmp/got"
	moved=0 devs=
	for pair in $expect; do
		key=${pair%%=*} want=${pair#*=}
		got=$(awk -v k="$key" '$1 == k { print $2; exit }' "$tmp/got")
		case $key in
		allocs_per_commit) pct=1 ;;
		live_heap_mb) pct=2 ;;
		*) pct= ;;
		esac
		if [ -n "$pct" ]; then
			[ -n "$got" ] && devs="$devs, $key $got vs $want ($(awk -v got="$got" -v want="$want" 'BEGIN { printf "%+.2f %%", (want > 0) ? 100 * (got - want) / want : 0 }'))"
			awk -v got="$got" -v want="$want" -v pct="$pct" 'BEGIN { d = got - want; if (d < 0) d = -d; exit !(got != "" && want > 0 && d <= pct / 100 * want) }' && continue
			want="$want within $pct %"
		elif [ "$got" = "$want" ]; then
			continue
		fi
		echo "sim-digests: $workload seed $seed: $key ${got:-missing}, want $want" >&2
		moved=1
	done
	if [ "$moved" = 1 ]; then
		failed=1
		echo "sim-digests: $workload seed $seed: moved${devs}" >&2
	else
		echo "sim-digests: $workload seed $seed: $(wc -w <<<"$expect") keys as recorded${devs}"
	fi
done <"$list"
exit "$failed"
