// Benchmark-tracking mode: fungusbench -benchjson parses `go test
// -bench` text output into a stable JSON report (BENCH_ci.json in CI)
// and optionally gates it against a checked-in baseline, failing on
// ns/op or allocs/op regressions beyond the tolerance. CI's bench job
// runs (with a longer -bench list):
//
//	go test -bench='ShardedTick|ShardedIngest|Recovery' -benchtime=500ms \
//	    -count=3 -benchmem -run '^$' . | tee bench.txt
//	go run ./cmd/fungusbench -benchjson bench.txt -benchout BENCH_ci.json \
//	    -baseline BENCH_baseline.json -tolerance 0.25
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// BenchEntry is one benchmark's best observation. With -count > 1 the
// MINIMUM ns/op across repetitions is kept: the floor is the least
// noisy statistic on shared CI runners, and a regression that survives
// the minimum is real.
type BenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
	// Metrics carries any custom b.ReportMetric units the benchmark
	// emitted (e.g. the pruning counters "prunedsegs/op" and
	// "skippedtuples/op" from BenchmarkPrunedScan), from the same
	// repetition the ns/op minimum came from.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the BENCH_*.json schema. The environment block
// (GoVersion, NumCPU, GOMAXPROCS, Commit) records where a report was
// made; reports written before it existed parse with the block empty.
type BenchReport struct {
	GOOS       string       `json:"goos,omitempty"`
	GOARCH     string       `json:"goarch,omitempty"`
	CPU        string       `json:"cpu,omitempty"`
	GoVersion  string       `json:"go_version,omitempty"`
	NumCPU     int          `json:"num_cpu,omitempty"`
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	Commit     string       `json:"commit,omitempty"`
	Benchmarks []BenchEntry `json:"benchmarks"`
}

// stampEnvironment fills rep's environment block from this process: the
// Go toolchain, the CPU count and GOMAXPROCS of the machine that parses
// the report (in CI, the runner that just ran the benchmarks), and the
// commit under test — GITHUB_SHA when GitHub Actions sets it, else the
// vcs.revision stamped into this binary, else empty.
func stampEnvironment(rep *BenchReport) {
	rep.GoVersion = runtime.Version()
	rep.NumCPU = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Commit = os.Getenv("GITHUB_SHA")
	if bi, ok := debug.ReadBuildInfo(); ok && rep.Commit == "" {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				rep.Commit = kv.Value
			}
		}
	}
}

// environment renders rep's environment on one line.
func (rep BenchReport) environment() string {
	if rep.GoVersion == "" && rep.NumCPU == 0 && rep.GOMAXPROCS == 0 {
		return "no environment recorded"
	}
	commit := rep.Commit
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("%s %s/%s, %d CPUs (%s), GOMAXPROCS %d, commit %s",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NumCPU, rep.CPU, rep.GOMAXPROCS, commit)
}

// sameMachine reports whether two reports ran on the same kind of
// machine and toolchain; the commit may differ.
func sameMachine(a, b BenchReport) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH && a.CPU == b.CPU &&
		a.GoVersion == b.GoVersion && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS
}

// benchLine matches e.g.
//
//	BenchmarkRecovery/shards=4-8   	     100	  11050825 ns/op	 1234 B/op	 12 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// parseBenchOutput folds `go test -bench` text into a report. The
// trailing -N GOMAXPROCS suffix is stripped from names so reports
// compare across runner shapes.
func parseBenchOutput(r io.Reader) (BenchReport, error) {
	rep := BenchReport{}
	best := map[string]*BenchEntry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := best[name]
		if e == nil {
			e = &BenchEntry{Name: name, NsPerOp: ns}
			best[name] = e
		}
		e.Runs++
		if ns <= e.NsPerOp {
			e.NsPerOp = ns
			e.BytesPerOp, e.AllocsPerOp = 0, 0
			e.Metrics = nil
			for _, metric := range strings.Split(m[4], "\t") {
				f := strings.Fields(strings.TrimSpace(metric))
				if len(f) != 2 {
					continue
				}
				v, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					continue
				}
				switch f[1] {
				case "B/op":
					e.BytesPerOp = v
				case "allocs/op":
					e.AllocsPerOp = v
				default:
					if e.Metrics == nil {
						e.Metrics = map[string]float64{}
					}
					e.Metrics[f[1]] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	names := make([]string, 0, len(best))
	for n := range best {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.Benchmarks = append(rep.Benchmarks, *best[n])
	}
	return rep, nil
}

// allocSlack is how many allocations per op a benchmark may gain before
// the relative gate applies. The small fixed costs of a cell (the
// goroutines of a fan-out sized by GOMAXPROCS, a channel per shard)
// differ by a handful between machines — ShardedTick measures 13 on
// one box and 18 on another — and the gate exists for paths that slide
// from O(batches) back to O(rows), which is hundreds.
const allocSlack = 16

// compareReports gates cur against base: any benchmark present in both
// whose ns/op or allocs/op grew by more than tolerance (0.25 = +25%) is
// a regression. Allocation counts repeat almost exactly from run to
// run, so the second gate is what keeps an O(batches) path from
// sliding back to O(rows) inside the timing noise; it applies where
// both reports carry a count (cells run with -benchmem).
// Benchmarks only in one report are noted, not failed, so adding or
// retiring a benchmark never blocks CI. The header names both sides'
// environments, with a notice when they differ; it never changes the
// verdict.
func compareReports(base, cur BenchReport, tolerance float64, out io.Writer) (regressions int) {
	fmt.Fprintf(out, "  baseline: %s\n  current:  %s\n", base.environment(), cur.environment())
	if !sameMachine(base, cur) {
		fmt.Fprintln(out, "  note: the two reports come from different environments; ns/op ratios measure the machine as well as the change")
	}
	curBy := map[string]BenchEntry{}
	for _, e := range cur.Benchmarks {
		curBy[e.Name] = e
	}
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		if !ok {
			fmt.Fprintf(out, "  ~ %-50s missing from current run\n", b.Name)
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		slower := ratio > 1+tolerance
		allocs := ""
		fatter := false
		if b.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			fatter = c.AllocsPerOp > b.AllocsPerOp*(1+tolerance) && c.AllocsPerOp > b.AllocsPerOp+allocSlack
			allocs = fmt.Sprintf("  %9.0f -> %9.0f allocs/op (%+.1f%%)", b.AllocsPerOp, c.AllocsPerOp, (c.AllocsPerOp/b.AllocsPerOp-1)*100)
		}
		mark := "="
		if slower || fatter {
			mark = "!"
			regressions++
		}
		fmt.Fprintf(out, "  %-2s %-50s %12.0f -> %12.0f ns/op (%+.1f%%)%s\n",
			mark, b.Name, b.NsPerOp, c.NsPerOp, (ratio-1)*100, allocs)
		delete(curBy, b.Name)
	}
	for name := range curBy {
		fmt.Fprintf(out, "  + %-50s new (no baseline)\n", name)
	}
	return regressions
}

// runBenchJSON is the -benchjson entry point; returns the exit code.
func runBenchJSON(inPath, outPath, baselinePath string, tolerance float64) int {
	var in io.Reader = os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fungusbench:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	rep, err := parseBenchOutput(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fungusbench: parse:", err)
		return 2
	}
	stampEnvironment(&rep)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "fungusbench: no benchmark lines found")
		return 2
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fungusbench:", err)
		return 2
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fungusbench:", err)
		return 2
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", outPath, len(rep.Benchmarks))

	if baselinePath == "" {
		return 0
	}
	baseData, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fungusbench: baseline:", err)
		return 2
	}
	var base BenchReport
	if err := json.Unmarshal(baseData, &base); err != nil {
		fmt.Fprintln(os.Stderr, "fungusbench: baseline decode:", err)
		return 2
	}
	fmt.Printf("vs %s (tolerance +%.0f%%):\n", baselinePath, tolerance*100)
	if n := compareReports(base, rep, tolerance, os.Stdout); n > 0 {
		fmt.Fprintf(os.Stderr, "fungusbench: %d benchmark(s) regressed beyond +%.0f%%\n", n, tolerance*100)
		return 1
	}
	fmt.Println("no regressions")
	return 0
}
