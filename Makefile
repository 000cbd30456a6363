# STABL reproduction — stdlib-only Go module; no tools beyond the go toolchain.

GO ?= go

.PHONY: all build vet test race verify verify-race ci specs lint loc fuzz-smoke sim-digests census bench-smoke bench-pairs figures clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The root package's cross-chain shape tests run ~2 min without the race
# detector and several times that with it — past go test's default 10 m
# per-package timeout — so the race targets raise it.
race:
	$(GO) test -race -timeout 45m ./...

# specs lints every shipped experiment, scenario and campaign spec through
# the same parser/validator the CLI uses at run time.
specs:
	$(GO) run ./cmd/stabl spec 'specs/*.json' 'specs/scenarios/*.json'

# lint runs the whole-program determinism analysis (internal/lint) over the
# module: the engine loads every package once, builds a cross-package call
# graph, and runs six analyzers for what running a config twice cannot see —
# wall-clock reads in simulated packages, global math/rand use, unbounded
# loops/recursion in handlers, Forkable structs with mutable fields their
# Snapshot/Restore never touch, cross-partition writes, and goroutines and
# locks in handler-path code outside the parsim seam. Map order reaching
# simulated state is the census's and FuzzSpecRun's to catch. Any
# unsuppressed diagnostic fails the build; //stabl:nodet <analyzer> --
# <justification> suppresses one finding (see DESIGN.md "Determinism
# invariants"); `stabl lint -json` emits the findings, suppressed ones
# included and flagged, for tooling.
lint:
	$(GO) run ./cmd/stabl lint ./...

# loc prints the non-test Go line count — the number ROADMAP aim 2 ("the
# least code") is judged by — per top-level directory and in total. CI writes
# it to the verify job's summary, so each PR records its own delta.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[2] : "."; c[d] += $$1; t += $$1 } \
		END { for (d in c) printf "%7d %s\n", c[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# verify is the everyday gate: compile everything, static checks, spec and
# determinism linting, then the full suite. Run verify-race instead when
# touching the campaign workers or internal/pool — the race
# detector is required there and slow everywhere else.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) specs
	$(MAKE) lint
	$(GO) test ./...

# verify-race is verify with the suite under the race detector. Required
# before committing changes to the concurrent code paths (internal/campaign
# workers, which also run suite and search, internal/pool, the parallel kernel); optional
# but slower elsewhere.
verify-race:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) specs
	$(MAKE) lint
	$(GO) test -race -timeout 45m ./...

# ci is the full merge gate: verify, verify-race, the race-enabled benchmark
# smoke pass, the fuzz smoke pass, the simulated-side digests and the
# integrity census. This is what .github/workflows/ci.yml runs.
ci: verify verify-race bench-smoke fuzz-smoke sim-digests census

# fuzz-smoke runs every native fuzz target in the module (`func Fuzz*` in a
# test file) for FUZZTIME each: the seed corpus first, then fresh inputs.
# All but one hold an implementation to a simpler reference model of it: a
# flat table to the map it replaced (FuzzTxTable, FuzzDupemap, FuzzTally),
# the event queue to a sorted slice (FuzzEventQueue), a lowered fault plan or
# kadcast's views to the code they replaced (FuzzPlanLowering,
# FuzzKadcastViews). FuzzSpecRun instead runs every spec Validate accepts,
# twice, and requires the same bytes. A crasher lands in the package's
# testdata/fuzz and is committed with its fix. Each new interesting input
# (and crasher) is minimized for at most 10 executions: under Go's default
# of 60 s a minimization outlasts the whole window, so a target that finds
# new coverage would stop fuzzing to minimize it.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for f in $$(grep -rlE --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz[A-Z]' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$target in $$(dirname $$f) for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 10x $$(dirname $$f); \
		done; \
	done

# sim-digests replays scripts/sim_digests.txt: one stablbench run (-reps 1
# -trace 0) per `<seed> <workload> key=value …` line — all five benchmark
# workloads at seeds 42 and 7 — and fails naming each key that moved:
# sim_digest or a simulated count that differs, allocs_per_commit more than
# 1 % off, or live_heap_mb more than 2 % off. It is the "every simulated
# column identical" every host-side PR asserts, and the allocation and
# retained-heap levels the last perf PRs set, as a gate (about a minute and a
# half; see scripts/sim_digests.sh).
sim-digests:
	bash scripts/sim_digests.sh

# census is the many-seed safety and determinism gate: TestIntegrityCensus
# (census_test.go, behind the census build tag so `go test ./...` never runs
# it) compares every golden configuration but committee-flows-Algorand over
# seeds 1–10 and the paper's four faults on the five chains over seeds 1–5
# on internal/pool, and fails on a fork scripts/census.txt does not list or a
# listed one that no longer forks. It runs every comparison twice — the
# second baseline from scratch, the second altered run through a checkpoint
# just before its first disruption and a rewind — and fails naming the row,
# the seed and the first line where the two renders differ.
census:
	$(GO) test -tags census -run '^TestIntegrityCensus$$' -timeout 30m .

# bench-smoke is the fast race-enabled benchmark gate: one short iteration
# of every figure benchmark (120 virtual seconds via -short), of each kernel
# and chain-table microbenchmark and of the campaign worker-pool benchmark.
# It proves the benchmark paths are race-free and still wired up without
# measuring anything.
bench-smoke:
	$(GO) test -race -short -run='^$$' -bench=. -benchtime=1x -timeout 20m \
		. ./internal/sim ./internal/simnet ./internal/chain ./internal/campaign

# bench-pairs measures a change the way a performance claim must be shown:
# `make bench-pairs BASE=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=42]` runs
# benchmark/run.sh on BASE (exported into a temporary directory) and on the
# working tree alternately, flipping which side goes first every pair, and
# prints per end-to-end metric both medians, both inter-quartile ranges and
# the pairs the change won (see scripts/bench_pairs.sh).
PAIRS ?= 10
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs BASE=<ref> WORKLOAD=<name> [PAIRS=10]"; exit 2; }
	bash scripts/bench_pairs.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)"

# figures regenerates every SVG artifact of the paper into ./out.
figures:
	$(GO) run ./cmd/stabl fig1 -svg out
	$(GO) run ./cmd/stabl fig3a -svg out
	$(GO) run ./cmd/stabl fig3b -svg out
	$(GO) run ./cmd/stabl fig3c -svg out
	$(GO) run ./cmd/stabl fig3d -svg out
	$(GO) run ./cmd/stabl fig4 -svg out
	$(GO) run ./cmd/stabl fig5 -svg out
	$(GO) run ./cmd/stabl fig6 -svg out

clean:
	rm -rf out
