package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.995, Q3: v * 1.005} }
	wide := func(v float64) summary { return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	cases := []struct {
		name      string
		base, cur summary
		better    string
		bound     float64
		want      string
	}{
		{"throughput down past the bound", tight(1000), tight(900), "higher", 0.07, verdictRegressed},
		{"throughput down inside the bound", tight(1000), tight(950), "higher", 0.07, verdictUnchanged},
		{"throughput up past the bound", tight(1000), tight(1100), "higher", 0.07, verdictImproved},
		{"latency up past the bound", tight(100), tight(112), "lower", 0.10, verdictRegressed},
		{"latency up inside the bound", tight(100), tight(109), "lower", 0.10, verdictUnchanged},
		{"latency down past the bound", tight(100), tight(85), "lower", 0.10, verdictImproved},
		{"spread wider than the bound hides no change", wide(100), tight(101), "lower", 0.10, verdictUnresolved},
		{"spread wider than the bound hides a gain", tight(100), wide(80), "lower", 0.10, verdictUnresolved},
		{"a regression stays one under a wide spread", wide(100), wide(130), "lower", 0.10, verdictRegressed},
		{"exactly at the bound is not past it", tight(100), tight(125), "lower", 0.25, verdictUnchanged},
	}
	for _, c := range cases {
		if _, got := judge(c.base, c.cur, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _ := judge(tight(200), tight(100), "lower", 0.1); ratio != 0.5 {
		t.Errorf("ratio = %v, want new/base = 0.5", ratio)
	}
}

func compareFixture() (*benchSpec, *resultFile) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: mOps, Unit: "1/s", Better: "higher", Bound: 0.07},
		{Name: mP50, Unit: "us", Better: "lower", Bound: 0.10},
	}}
	rf := &resultFile{
		Host:    hostStamp{CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOARCH: "amd64", Backend: "native", Commit: "aaa"},
		Seed:    2019,
		Seconds: 10,
		Workloads: map[string]*result{"mine_leela": {Correct: true, Attempted: 1000, Metrics: map[string]summary{
			mOps: {Value: 1000, Unit: "1/s", Q1: 995, Q3: 1005, N: 10},
			mP50: {Value: 800, Unit: "us", Q1: 798, Q3: 802, N: 9000},
		}}},
	}
	return spec, rf
}

// clone copies what the tests below change.
func clone(rf *resultFile) *resultFile {
	c := *rf
	c.Workloads = map[string]*result{}
	for name, r := range rf.Workloads {
		rc := *r
		rc.Metrics = map[string]summary{}
		for k, v := range r.Metrics {
			rc.Metrics[k] = v
		}
		c.Workloads[name] = &rc
	}
	return &c
}

func TestCompareResults(t *testing.T) {
	spec, base := compareFixture()

	var out bytes.Buffer
	same := clone(base)
	same.Host.Commit = "bbb" // the commit is what a comparison varies
	if code := compareResults(&out, spec, base, same); code != 0 {
		t.Errorf("identical results: exit %d\n%s", code, out.String())
	}
	if got := strings.Count(out.String(), verdictUnchanged); got != 3 {
		t.Errorf("want 3 unchanged rows (2 metrics + failed_ratio), got %d\n%s", got, out.String())
	}

	slower := clone(base)
	m := slower.Workloads["mine_leela"].Metrics[mOps]
	m.Value, m.Q1, m.Q3 = 900, 895, 905
	slower.Workloads["mine_leela"].Metrics[mOps] = m
	out.Reset()
	if code := compareResults(&out, spec, base, slower); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("10%% less throughput at a 7%% bound: exit %d\n%s", code, out.String())
	}

	failing := clone(base)
	failing.Workloads["mine_leela"].Failed = 1
	out.Reset()
	if code := compareResults(&out, spec, base, failing); code != 1 {
		t.Errorf("failed_ratio rose: exit %d\n%s", code, out.String())
	}

	for name, mutate := range map[string]func(*resultFile){
		"other seed":       func(rf *resultFile) { rf.Seed = 7 },
		"other run length": func(rf *resultFile) { rf.Seconds = 5 },
		"other CPU":        func(rf *resultFile) { rf.Host.CPUModel = "another" },
		"other GOMAXPROCS": func(rf *resultFile) { rf.Host.GOMAXPROCS = 4 },
		"other backend":    func(rf *resultFile) { rf.Host.Backend = "interp" },
	} {
		other := clone(base)
		mutate(other)
		out.Reset()
		if code := compareResults(&out, spec, base, other); code != 2 || !strings.Contains(out.String(), "refusing") {
			t.Errorf("%s: exit %d, want a refusal\n%s", name, code, out.String())
		}
	}
}
