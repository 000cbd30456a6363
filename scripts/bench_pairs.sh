#!/usr/bin/env bash
# Paired benchmark runs of a base commit against the working tree — the
# procedure of the choosing-metrics guide, section 8, as one command:
#
#   bash scripts/bench_pairs.sh <base-ref> <workload> [pairs]     (or: make bench-pairs)
#
# BASE is exported with `git archive` into a temporary directory (removed on
# exit), so both sides build from committed-or-current source in their own
# tree with their own .bench_build. Each pair runs
#   bash benchmark/run.sh --workload W --seed S --seconds 10 --trace 0
# once per side, the side that goes first flipping every pair. For every
# end-to-end metric BENCHMARK.json declares, the report gives both medians,
# both inter-quartile ranges and the number of pairs the change won (ties
# count for neither side), and reads "gain" only when the change won at
# least nine tenths of the pairs and the medians differ by more than the
# base's inter-quartile range; under ten pairs it gives no verdict. SEED
# (default 42) picks the workload seed.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <base-ref> <workload> [pairs]" >&2
	exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
seed=${SEED:-42}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
base_sha=$(git rev-parse --verify --short "$base_ref^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_sha" | tar -x -C "$tmp/base"

# run_side <dir> <label>: one benchmark run; appends "<label> <metric> <value>"
# per metric and "<label> failed <n>" to $tmp/samples.
run_side() {
	local line
	line=$(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0 2>"$tmp/stderr.log" | tail -n 1) || {
		cat "$tmp/stderr.log" >&2
		echo "bench-pairs: $2 run failed" >&2
		exit 1
	}
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "bench-pairs: $2 run reported incorrect output: $line" >&2
		exit 1
		;;
	esac
	echo "$line" | grep -o '"[a-z_]*":{"value":[^,}]*' |
		sed -e 's/"\([a-z_]*\)":{"value":\(.*\)/'"$2"' \1 \2/' >>"$tmp/samples"
	echo "$line" | sed -e 's/.*"failed":\([0-9]*\).*/'"$2"' failed \1/' >>"$tmp/samples"
}

echo "bench-pairs: $workload, seed $seed, $pairs pairs, base $base_sha vs working tree"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run_side "$tmp/base" base
		run_side "$root" change
	else
		run_side "$root" change
		run_side "$tmp/base" base
	fi
	echo "  pair $i/$pairs done" >&2
done

# The end-to-end metric names and directions, in BENCHMARK.json's order.
sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
	grep -o '"name": *"[a-z_]*".*"better": *"[a-z]*"' |
	sed -e 's/"name": *"\([a-z_]*\)".*"better": *"\([a-z]*\)"/\1 \2/' >"$tmp/metrics"

awk -v pairs="$pairs" '
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, out,    i, j, n, v) {
	n = cnt[side, m]
	for (i = 1; i <= n; i++) out[i] = val[side, m, i]
	for (i = 2; i <= n; i++) {
		v = out[i]
		for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
		out[j + 1] = v
	}
	return n
}
FNR == NR { order[++nm] = $1; better[$1] = $2; next }
$2 == "failed" { failed[$1] += $3; next }
{ val[$1, $2, ++cnt[$1, $2]] = $3 }
END {
	printf "%-20s %-6s %12s %12s %12s %12s %8s %6s  %s\n",
		"metric", "better", "base median", "base iqr", "chg median", "chg iqr", "delta", "wins", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		nb = sorted("base", m, b); nc = sorted("change", m, c)
		if (nb == 0 || nc == 0) continue
		bm = quantile(b, nb, 0.5); biqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
		cm = quantile(c, nc, 0.5); ciqr = quantile(c, nc, 0.75) - quantile(c, nc, 0.25)
		wins = 0; losses = 0
		for (i = 1; i <= nb && i <= nc; i++) {
			d = val["change", m, i] - val["base", m, i]
			if (better[m] == "higher") d = -d
			if (d < 0) wins++; else if (d > 0) losses++
		}
		diff = cm - bm; if (diff < 0) diff = -diff
		improved = (better[m] == "lower") ? (cm < bm) : (cm > bm)
		verdict = "-"
		if (pairs < 10) verdict = "n/a (<10 pairs)"
		else if (improved && wins * 10 >= pairs * 9 && diff > biqr) verdict = "gain"
		else if (!improved && losses * 10 >= pairs * 9 && diff > biqr) verdict = "worse"
		printf "%-20s %-6s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %3d/%-2d  %s\n",
			m, better[m], bm, biqr, cm, ciqr, bm ? 100 * (cm - bm) / bm : 0, wins, pairs, verdict
	}
	printf "failed operations: base %d, change %d\n", failed["base"], failed["change"]
}' "$tmp/metrics" "$tmp/samples"
