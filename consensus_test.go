package hashcore

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// consensusSet is the consensus boundary: every package of this module
// that can change a digest or a block's validity, i.e. the non-test import
// closure of the hasher (.) and the node (internal/blockchain). It is the
// list `go list -deps . ./internal/blockchain | grep '^hashcore'` prints,
// sorted, and CI's "No fused FP ops off amd64" step derives its package
// list the same way. Code outside it (the uarch timing model, the scrypt
// baseline, the experiment harness, the pool and the network) can change
// no digest. A package that joins it joins the code every platform must
// run bit-identically; grow this list on purpose, never in passing.
var consensusSet = []string{
	"hashcore",
	"hashcore/internal/asm",
	"hashcore/internal/blockchain",
	"hashcore/internal/gate",
	"hashcore/internal/isa",
	"hashcore/internal/jit",
	"hashcore/internal/perfprox",
	"hashcore/internal/pow",
	"hashcore/internal/profile",
	"hashcore/internal/prog",
	"hashcore/internal/rng",
	"hashcore/internal/telemetry",
	"hashcore/internal/vm",
	"hashcore/internal/workload",
}

// TestConsensusSet fails if the import closure of . and
// ./internal/blockchain differs from consensusSet on any architecture the
// fused-op check covers (and amd64, the only one with native code).
func TestConsensusSet(t *testing.T) {
	for _, arch := range []string{"amd64", "arm64", "ppc64le", "s390x", "riscv64"} {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH = "linux", arch
		got := moduleClosure(t, &ctxt, "hashcore", "hashcore/internal/blockchain")
		if !slices.Equal(got, consensusSet) {
			t.Errorf("GOARCH=%s: consensus set is\n\t%s\nwant\n\t%s", arch,
				strings.Join(got, "\n\t"), strings.Join(consensusSet, "\n\t"))
		}
	}
}

// moduleClosure returns the sorted set of this module's packages that
// roots import, directly or not, under ctxt (test files excluded).
func moduleClosure(t *testing.T, ctxt *build.Context, roots ...string) []string {
	t.Helper()
	seen := map[string]bool{}
	queue := slices.Clone(roots)
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		dir := filepath.Join(".", strings.TrimPrefix(strings.TrimPrefix(path, "hashcore"), "/"))
		pkg, err := ctxt.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("GOARCH=%s: %s: %v", ctxt.GOARCH, path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == "hashcore" || strings.HasPrefix(imp, "hashcore/") {
				queue = append(queue, imp)
			}
		}
	}
	set := make([]string, 0, len(seen))
	for path := range seen {
		set = append(set, path)
	}
	slices.Sort(set)
	return set
}
