# STABL reproduction — stdlib-only Go module; no tools beyond the go toolchain.

GO ?= go

.PHONY: all build vet test race verify verify-race ci specs lint loc fuzz-smoke sim-digests bench-smoke bench-pairs figures clean

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
	$(GO) run ./cmd/stabl spec -validate 'specs/*.json' 'specs/scenarios/*.json'

# lint runs the whole-program determinism analysis (internal/lint) over the
# module: the engine loads every package once, builds a cross-package call
# graph, and runs nine analyzers — map ranges that draw RNG/send/schedule
# (resolved through helpers and interface dispatch in other packages),
# wall-clock reads in simulated packages, global math/rand use, unsorted key
# broadcasts, snapshot map-order capture, cross-partition writes, Forkable
# structs with mutable fields their Snapshot/Restore never touch, goroutines
# and locks in handler-path code outside the parsim seam, and unbounded
# loops/recursion in handlers. Any unsuppressed diagnostic fails the build;
# //stabl:nodet <analyzer> -- <justification> suppresses one finding (see
# DESIGN.md "Determinism invariants"); `stabl lint -json` emits the findings,
# suppressed ones included and flagged, for tooling.
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
# touching the parallel suite/campaign paths or internal/pool — the race
# detector is required there and slow everywhere else.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) specs
	$(MAKE) lint
	$(GO) test ./...

# verify-race is verify with the suite under the race detector. Required
# before committing changes to the concurrent code paths (RunSuite,
# internal/campaign workers, internal/pool, the parallel kernel); optional
# but slower elsewhere.
verify-race:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) specs
	$(MAKE) lint
	$(GO) test -race -timeout 45m ./...

# ci is the full merge gate: verify, verify-race, the race-enabled benchmark
# smoke pass, the fuzz smoke pass and the simulated-side digests. This is what
# .github/workflows/ci.yml runs.
ci: verify verify-race bench-smoke fuzz-smoke sim-digests

# fuzz-smoke runs every native fuzz target in the module (`func Fuzz*` in a
# test file) for FUZZTIME each: the seed corpus first, then fresh inputs.
# Each target is a model interpreter that compares a flat table against the
# map-based implementation it replaced (chain.txTable, overlay.dupemap); a
# crasher lands in the package's testdata/fuzz and is committed with its fix.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for f in $$(grep -rlE --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz[A-Z]' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$target in $$(dirname $$f) for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$(dirname $$f); \
		done; \
	done

# sim-digests replays scripts/sim_digests.txt: one stablbench run (-reps 1
# -trace 0) per `<seed> <workload> <digest> <allocs_per_commit>` line — all
# five benchmark workloads at seed 42, four at seed 7 — and fails on the first
# sim_digest that differs or allocs_per_commit more than 1 % off. It is the
# "every simulated column identical" every host-side PR asserts, and the
# allocation level the last perf PR set, as a gate (about a minute and a half;
# see scripts/sim_digests.sh).
sim-digests:
	bash scripts/sim_digests.sh

# bench-smoke is the fast race-enabled benchmark gate: one short iteration
# of every figure benchmark (120 virtual seconds via -short) and of each
# kernel and chain-table microbenchmark. It proves the benchmark paths are
# race-free and still wired up without measuring anything.
bench-smoke:
	$(GO) test -race -short -run='^$$' -bench=. -benchtime=1x -timeout 20m \
		. ./internal/sim ./internal/simnet ./internal/chain

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
	$(GO) run ./cmd/stabl -svg out fig1
	$(GO) run ./cmd/stabl -svg out fig3a
	$(GO) run ./cmd/stabl -svg out fig3b
	$(GO) run ./cmd/stabl -svg out fig3c
	$(GO) run ./cmd/stabl -svg out fig3d
	$(GO) run ./cmd/stabl -svg out fig4
	$(GO) run ./cmd/stabl -svg out fig5
	$(GO) run ./cmd/stabl -svg out fig6

clean:
	rm -rf out
