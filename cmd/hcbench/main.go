// Command hcbench regenerates the paper's tables, figures and ablations
// at full scale. Each experiment prints its data to stdout, next to the
// paper's claim where there is one.
//
// Usage:
//
//	hcbench -run all            # everything (minutes)
//	hcbench -run fig2 -n 1000   # just Figure 2 at the paper's N
//	hcbench -run table1,fig1    # a comma-separated subset
//
// How fast the implementation hashes, inside a miner, a pool and a node,
// is not measured here: that is `bash benchmark/run.sh` (benchmark/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hashcore/internal/experiments"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

// bench is one invocation's settings, and the widget population once an
// experiment that needs it has been reached.
type bench struct {
	n       int
	profile string
	seed    uint64
	pop     *experiments.Population
}

// arms are the experiments in the order `-run all` prints them. needsPop
// marks those that read the simulated widget population, which is built
// once, before the first of them.
var arms = []struct {
	name, title string
	needsPop    bool
	run         func(*bench) (string, error)
}{
	{"table1", "Table I: hash seed usage", false, func(*bench) (string, error) {
		var s perfprox.Seed
		for i := range s {
			s[i] = byte(i*7 + 1)
		}
		return experiments.Table1(s), nil
	}},
	{"fig1", "Figure 1: pipeline stage timing", false, func(b *bench) (string, error) {
		st, err := experiments.Figure1(b.profile, []byte("hcbench"), perfprox.Params{}, vm.Params{})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("gate: %s  generate: %s  compile: %s  execute: %s  total: %s\ndigest: %x\n",
			st.Gate, st.Generate, st.Compile, st.Execute, st.Total, st.Digest[:8]), nil
	}},
	{"fig2", "Figure 2", true, func(b *bench) (string, error) {
		return experiments.Figure2(b.pop).Render(), nil
	}},
	{"fig3", "Figure 3", true, func(b *bench) (string, error) {
		return experiments.Figure3(b.pop).Render(), nil
	}},
	{"sizes", "Widget output sizes (paper: 20-38 KB)", true, func(b *bench) (string, error) {
		return experiments.OutputSizes(b.pop).Render(), nil
	}},
	{"noise", "Branch fraction under positive-only noise (paper §V)", true, func(b *bench) (string, error) {
		return experiments.BranchFractions(b.pop).Render(), nil
	}},
	{"genvssel", "§VI-A ablation: generation vs selection", false, func(b *bench) (string, error) {
		results, err := experiments.GenVsSel(b.profile, []int{16, 64, 256}, 8, vm.Params{})
		if err != nil {
			return "", err
		}
		return experiments.RenderGenVsSel(results), nil
	}},
	{"predictors", "Predictor ablation: widget branch behaviour per predictor family", false, func(b *bench) (string, error) {
		results, err := experiments.PredictorAblation(b.profile, b.seed, vm.Params{})
		if err != nil {
			return "", err
		}
		return experiments.RenderPredictorAblation(results), nil
	}},
	{"randomx", "§VI-C ablation: RandomX-lite (uniform generation) IPC", false, func(b *bench) (string, error) {
		rep, err := experiments.RandomXPopulation(min(b.n, 50), b.seed, vm.Params{})
		if err != nil {
			return "", err
		}
		return rep.Render(), nil
	}},
	{"baselines", "Baseline PoW throughput", false, func(b *bench) (string, error) {
		results, err := experiments.BaselineThroughput(b.profile, 20, vm.Params{})
		if err != nil {
			return "", err
		}
		return experiments.RenderThroughput(results), nil
	}},
	{"mine", "End-to-end mining demo", false, func(b *bench) (string, error) {
		return experiments.MineDemo(context.Background(), b.profile, 3, vm.Params{})
	}},
}

// armNames lists the valid -run values besides "all".
func armNames() string {
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.name
	}
	return strings.Join(names, ", ")
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hcbench", flag.ContinueOnError)
	runList := fs.String("run", "all", "experiments to run, comma-separated: all, "+armNames())
	n := fs.Int("n", 1000, "widget population size for fig2/fig3/sizes/noise")
	profileName := fs.String("profile", "leela", "reference workload profile")
	seed := fs.Uint64("seed", 2019, "master seed for widget seeds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	known := map[string]bool{"all": true}
	for _, a := range arms {
		known[a.name] = true
	}
	wants := map[string]bool{}
	for _, name := range strings.Split(*runList, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return fmt.Errorf("unknown experiment %q (want all, %s)", name, armNames())
		}
		wants[name] = true
	}

	b := &bench{n: *n, profile: *profileName, seed: *seed}
	for _, a := range arms {
		if !wants["all"] && !wants[a.name] {
			continue
		}
		if a.needsPop && b.pop == nil {
			fmt.Fprintf(out, "== widget population: n=%d profile=%s (this simulates every widget cycle-by-cycle) ==\n", b.n, b.profile)
			pop, err := experiments.RunPopulation(experiments.Config{
				N: b.n, ProfileName: b.profile, MasterSeed: b.seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "population simulated in %s\n\n", pop.Elapsed.Round(1e7))
			b.pop = pop
		}
		fmt.Fprintf(out, "== %s ==\n", a.title)
		text, err := a.run(b)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, text)
	}
	return nil
}
