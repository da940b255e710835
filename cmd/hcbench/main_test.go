package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTable1AndFig1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "table1, fig1", "-profile", "mcf"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Table I: hash seed usage ==", "Memory Seed", "== Figure 1: pipeline stage timing ==", "digest: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "widget population") {
		t.Error("table1 and fig1 simulated the widget population, which neither reads")
	}
}

// A name that selects nothing is an error naming what would have: before
// this test existed, `-run fig22` exited 0 having printed nothing.
func TestRunRejectsUnknownNames(t *testing.T) {
	// The measurement arms moved to benchmark/; their names must not
	// linger as accepted no-ops, nor in the list of valid ones.
	gone := []string{"vm", "pool", "chain", "sync", "telemetry"}
	for _, name := range append([]string{"fig22", "", "table1,nope"}, gone...) {
		var out bytes.Buffer
		err := run([]string{"-run", name}, &out)
		if err == nil {
			t.Errorf("-run %q: no error", name)
			continue
		}
		if out.Len() != 0 {
			t.Errorf("-run %q ran something before failing:\n%s", name, out.String())
		}
		if !strings.Contains(err.Error(), "all, table1, fig1") {
			t.Errorf("-run %q: error does not list the valid names: %v", name, err)
		}
	}
	if err := run([]string{"-benchn", "1"}, new(bytes.Buffer)); err == nil {
		t.Error("-benchn is still a flag")
	}
}
