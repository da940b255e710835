package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds
// the comparison judges by.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of a
// checkout, where run.sh runs the program) or its parent (where go test
// and go run inside benchmark/ find it).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// Verdicts of one (metric, workload) row.
const (
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
)

// judge compares one metric of two runs. worse is how much worse the new
// median is as a share of the base's, in the metric's own direction. Past
// the bound it is a regression. Otherwise a spread — either run's
// interquartile distance over its median — wider than the bound means the
// two runs cannot tell unchanged from changed, and the row is unresolved
// rather than unchanged or improved.
func judge(base, cur summary, better string, bound float64) (ratio float64, verdict string) {
	ratio = cur.Value / base.Value
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch spread := math.Max(base.spread(), cur.spread()); {
	case worse > bound:
		return ratio, verdictRegressed
	case spread > bound:
		return ratio, verdictUnresolved
	case -worse > bound:
		return ratio, verdictImproved
	default:
		return ratio, verdictUnchanged
	}
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (end-to-end metric, workload) with base,
// new, ratio, bound and verdict, and one failed_ratio row per workload. It
// returns 0 when nothing regressed, 1 on any regression or a failed_ratio
// that rose, and 2 when the files cannot be compared at all.
func compareFiles(w io.Writer, basePath, newPath string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(w, "cannot read BENCHMARK.json: %v\n", err)
		return 2
	}
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	cur, err := readResult(newPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	return compareResults(w, spec, base, cur)
}

func compareResults(w io.Writer, spec *benchSpec, base, cur *resultFile) int {
	if !base.Host.comparable(cur.Host) {
		fmt.Fprintf(w, "refusing to compare: host stamps differ\n  base %+v\n  new  %+v\n", base.Host, cur.Host)
		return 2
	}
	if base.Seed != cur.Seed || base.Seconds != cur.Seconds {
		fmt.Fprintf(w, "refusing to compare: base ran seed %d for %v s, new ran seed %d for %v s\n",
			base.Seed, base.Seconds, cur.Seed, cur.Seconds)
		return 2
	}
	fmt.Fprintf(w, "base commit %s, new commit %s, seed %d, %v s per workload\n", base.Host.Commit, cur.Host.Commit, base.Seed, base.Seconds)
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	code := 0
	// Every workload of the program, not only those BENCHMARK.json names
	// for the driver.
	for _, wl := range workloads() {
		b, c := base.Workloads[wl.name], cur.Workloads[wl.name]
		if b == nil && c == nil {
			continue
		}
		if b == nil || c == nil {
			fmt.Fprintf(w, "%-18s missing from one of the files\n", wl.name)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			bm, bok := b.Metrics[m.Name]
			cm, cok := c.Metrics[m.Name]
			if !bok || !cok {
				fmt.Fprintf(w, "%-18s %-12s missing from one of the files\n", wl.name, m.Name)
				code = 1
				continue
			}
			ratio, verdict := judge(bm, cm, m.Better, m.Bound)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %8.4f %6.2f  %s\n", wl.name, m.Name, bm.Value, cm.Value, ratio, m.Bound, verdict)
		}
		bf := float64(b.Failed) / float64(b.Attempted)
		cf := float64(c.Failed) / float64(c.Attempted)
		verdict := verdictUnchanged
		if cf > bf {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-18s %-12s %14.6f %14.6f %8s %6s  %s\n", wl.name, "failed_ratio", bf, cf, "", "", verdict)
	}
	return code
}
