//go:build goexperiment.synctest

package lab

import (
	"testing"
	"testing/synctest"
)

// TestScenarioCatalogSimulatedTime runs every catalog scenario, with
// the same checks as TestScenarioCatalogRuns, inside a testing/synctest
// bubble: the clock moves only when every goroutine of the scenario is
// blocked, so timeouts and rates no longer depend on how busy the host
// is. Build with GOEXPERIMENT=synctest to run it.
func TestScenarioCatalogSimulatedTime(t *testing.T) {
	runCatalog(t, synctest.Run)
}
