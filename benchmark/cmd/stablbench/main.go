// Command stablbench is the repo's benchmark: five workloads, end-to-end
// metrics per commit, per-layer attribution from outside the program.
//
//	go run ./benchmark/cmd/stablbench                      # all workloads, 3 repetitions + 1 traced pass each
//	go run ./benchmark/cmd/stablbench -workload scale-mesh -seed 7
//	go run ./benchmark/cmd/stablbench -out new.json
//	go run ./benchmark/cmd/stablbench -compare old.json new.json
//
// The driver's form is --workload <name> --seed <n> --seconds <s> --trace
// <0|1>; the last line of standard output is then the workload's result
// object. See benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"stabl/benchmark"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 42, "the only randomness: every run's Config.Seed and the campaign's seed")
		reps     = flag.Int("reps", 3, "untraced repetitions per workload, each in a fresh process")
		seconds  = flag.Float64("seconds", 0, "when positive, repeat until the measured sections add up to this long instead of -reps times")
		passes   = flag.String("trace", "", "0: untraced repetitions only; 1: the traced pass; empty: both")
		traceOut = flag.String("trace-out", "", "directory for the traced pass's Chrome-trace file, one per workload")
		out      = flag.String("out", "", "write the machine-readable result document here")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
		child    = flag.Bool("child", false, "internal: run one pass in this process and print its measurements")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "stablbench: -compare needs two result documents: old.json new.json")
			return 2
		}
		worse, err := benchmark.Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "stablbench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "stablbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *passes != "" && *passes != "0" && *passes != "1" {
		fmt.Fprintf(os.Stderr, "stablbench: -trace takes 0 or 1, got %q\n", *passes)
		return 2
	}

	workloads := benchmark.Workloads
	if *workload != "all" {
		w, ok := benchmark.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "stablbench: unknown workload %q; have:", *workload)
			for _, w := range benchmark.Workloads {
				fmt.Fprintf(os.Stderr, " %s", w.Name)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
		workloads = []benchmark.Workload{w}
	}

	if *child {
		if err := benchmark.Child(workloads[0], *seed, *passes == "1", *traceOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "stablbench:", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stablbench:", err)
		return 1
	}
	ok, err := benchmark.Run(benchmark.Options{
		Workloads: workloads, Seed: *seed, Reps: *reps, Seconds: *seconds,
		Trace: *passes, TraceOut: *traceOut, Out: *out,
		Exe: exe, Stdout: os.Stdout, Stderr: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stablbench:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "stablbench: correctness checks failed")
		return 1
	}
	return 0
}
