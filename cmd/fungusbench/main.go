// Command fungusbench regenerates the experiment tables and figures
// catalogued in DESIGN.md and EXPERIMENTS.md.
//
// Usage:
//
//	fungusbench [-exp E1|E2|...|all] [-scale 1.0] [-seed N] [-shards 1]
//	fungusbench -benchjson bench.txt [-benchout BENCH_ci.json]
//	            [-baseline BENCH_baseline.json] [-tolerance 0.25]
//
// Each experiment prints an aligned text table; figure experiments
// print their series as rows. Scale < 1 shrinks the workloads
// proportionally (tests use 0.05); the shapes are scale-invariant.
//
// -benchjson is the CI micro-benchmark tracker (see benchjson.go): it
// converts `go test -bench` output into a JSON report and gates it
// against a baseline. The end-to-end benchmark is bench/fungusload, a
// module of its own.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fungusdb/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E9) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	seed := flag.Int64("seed", 20150104, "deterministic seed")
	shards := flag.Int("shards", 1, "extent shards per table (1 = pre-sharding engine)")
	benchIn := flag.String("benchjson", "", "parse `go test -bench` output from this file ('-' = stdin) into JSON and exit")
	benchOut := flag.String("benchout", "BENCH_ci.json", "JSON report path for -benchjson")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (with -benchjson)")
	tolerance := flag.Float64("tolerance", 0.25, "max allowed ns/op growth vs -baseline before failing")
	flag.Parse()

	if *benchIn != "" {
		os.Exit(runBenchJSON(*benchIn, *benchOut, *baseline, *tolerance))
	}

	cfg := sim.Config{Scale: *scale, Seed: *seed, Shards: *shards}

	ids := sim.ExperimentIDs
	if *exp != "all" {
		if _, ok := sim.Runner[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "fungusbench: unknown experiment %q (want E1..E9 or all)\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}

	for _, id := range ids {
		start := time.Now()
		table := sim.Runner[id](cfg)
		table.Render(os.Stdout)
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
