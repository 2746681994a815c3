package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// series collects, per workload and end-to-end metric, the values of
// every untraced run in a result file.
func series(runs []workloadResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if out[r.Name] == nil {
			out[r.Name] = map[string][]float64{}
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; ok {
				out[r.Name][d.Name] = append(out[r.Name][d.Name], v.Value)
			}
		}
	}
	return out
}

func workloadNames(m map[string]map[string][]float64) []string {
	var names []string
	for _, w := range workloads { // the benchmark's own order
		if _, ok := m[w.name]; ok {
			names = append(names, w.name)
		}
	}
	return names
}

// printSpread reports median, quartiles and the quartile spread of each
// workload x end-to-end metric over the runs of one set.
func printSpread(w io.Writer, runs []workloadResult) {
	all := series(runs)
	fmt.Fprintf(w, "\n%-16s %-24s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, name := range workloadNames(all) {
		for _, d := range endToEnd {
			v := all[name][d.Name]
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Fprintf(w, "%-16s %-24s %4d %12.5g %12.5g %12.5g %7.1f%% %5.0f%%\n", name, d.Name, len(v),
				q1, median(v), q3, 100*quartileSpread(v), 100*d.Bound)
		}
	}
}

// compareFiles prints each workload x end-to-end metric in its own row:
// both medians, the ratio with its base, the bound and a verdict. A
// pairing whose run-to-run spread is wider than its bound is unresolved,
// not unchanged.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := series(files[0].Runs), series(files[1].Runs)
	fmt.Fprintf(w, "base a = %s (commit %v)\n     b = %s (commit %v)\n", pathA, files[0].Env["commit"], pathB, files[1].Env["commit"])
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %14s %6s %8s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "spread", "verdict")
	worse := 0
	for _, name := range workloadNames(a) {
		for _, d := range endToEnd {
			va, vb := a[name][d.Name], b[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			loss := ratio - 1 // how much worse b is, as a share of a
			if d.Better == "higher" {
				loss = 1 - ratio
			}
			// Below four runs a side the spread is unknown: NaN, which
			// math.Max passes on, and an unknown spread resolves nothing.
			spread := math.Max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case math.IsNaN(spread) || spread > d.Bound:
				verdict = "unresolved"
			case loss > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-16s %-24s %12.5g %12.5g %7.3f of a %5.0f%% %7.1f%%  %s\n", name, d.Name, ma, mb, ratio, 100*d.Bound, 100*spread, verdict)
		}
	}
	fmt.Fprintf(w, "%d worse\n", worse)
	return nil
}
