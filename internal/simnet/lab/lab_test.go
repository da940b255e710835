package lab

import (
	"testing"
	"time"
)

// TestScenarioCatalogRuns drives every registered -simnet scenario at
// its default size through the same entry point the CLI uses, one
// subtest per name, so a failed defense is named in the test output.
func TestScenarioCatalogRuns(t *testing.T) {
	runCatalog(t, func(f func()) { f() })
}

// runCatalog runs every catalog scenario as its own subtest, each Run
// call made inside wrap (a plain call, or a synctest bubble).
func runCatalog(t *testing.T, wrap func(func())) {
	for _, name := range Scenarios() {
		t.Run(name, func(t *testing.T) {
			var (
				res *Result
				err error
			)
			wrap(func() { res, err = Run(name, 0, t.Logf) })
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("%s failed: %s", name, res.Detail)
			}
			t.Logf("%s (%d nodes, %s): %s", res.Name, res.Nodes, res.Duration.Round(time.Millisecond), res.Detail)
		})
	}
}

// TestBigClusterBroadcast pushes the lab to the 500-node scale: one
// block mined on one node must reach every tip. Ring+chord topology,
// zero-latency links — this is a throughput-and-correctness soak, not
// a timing test.
func TestBigClusterBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("500-node soak skipped in -short")
	}
	c, err := New(Options{Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tip, err := c.Mine(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitConverged(tip, 180*time.Second) {
		stragglers := 0
		for _, n := range c.Nodes {
			if n.Chain.TipID() != tip {
				stragglers++
			}
		}
		t.Fatalf("broadcast did not reach %d of %d nodes", stragglers, len(c.Nodes))
	}
}
