package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// repeatRuns runs the workload n times with one seed, which is what a
// comparison of two trees repeats, or with seeds seed..seed+n-1 when vary
// is set, and prints, per metric, the median, the quartiles (as Python's
// statistics.quantiles(xs, n=4) gives them) and their spread (Q3-Q1 as a
// share of the median) beside the bound BENCHMARK.json fixes, if any.
// A timing metric scaled to reference speed also gets a "raw <name>" row
// with its figures before scaling.
func repeatRuns(cfg config, n int, vary, traced bool) error {
	values := map[string][]float64{}
	units := map[string]string{}
	runOut := cfg.out
	cfg.out = io.Discard
	base := cfg.seed
	for i := 0; i < n; i++ {
		if vary {
			cfg.seed = base + int64(i)
		}
		res, err := run(cfg, traced)
		if err != nil {
			return err
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(runOut, "seed %d: %s\n", cfg.seed, line)
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d queries failed", cfg.seed, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			if v, ok := res.raw[name]; ok {
				values["raw "+name] = append(values["raw "+name], v)
				units["raw "+name] = m.Unit
			}
		}
	}
	bounds := loadBounds("BENCHMARK.json") // run.sh runs from the checkout root
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(runOut, "%s, %d runs:\n%-28s %12s %12s %12s %8s %8s %s\n", cfg.spec.name, n,
		"metric", "median", "q1", "q3", "spread", "bound", "unit")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
		}
		fmt.Fprintf(runOut, "%-28s %12.6g %12.6g %12.6g %8.4f %8s %s\n", name, q2, q1, q3, spread, bound, units[name])
	}
	return nil
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json; a missing
// or unreadable file yields none.
func loadBounds(path string) map[string]float64 {
	var bj struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &bj) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range bj.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
