// Command bench is the repository's one benchmark: the steer→observe loop
// of a collaborative venue, self-hosted in one process on loopback TCP.
// See README.md for the workloads, the metrics and how they interact.
//
//	go run -C bench . --workload steer.room --seed 1 --seconds 20 --trace 0
//	go run -C bench .                      # all workloads, untraced then traced
//	go run -C bench . --sets 5             # steadiness of every end-to-end metric
//	go run -C bench . --compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (the driver's mode)")
		seed    = flag.Int64("seed", 1, "seed for simulation init, think-time jitter and pixel content")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		sets    = flag.Int("sets", 0, "run the untraced matrix this many times and report each metric's spread")
		out     = flag.String("out", "out", "directory for traces, results and the journal")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail("usage: --compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fail("unknown workload %q", *name)
		}
		if *seconds <= 0 {
			fail("--seconds must be positive")
		}
		res, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *out, budget: setupBudget, settle: time.Second})
		if err != nil {
			fail("%s: %v", w.Name, err)
		}
		res.print(os.Stdout)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runMatrix(os.Stdout, *seed, *seconds, *sets, *out))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
