package experiments

import (
	"fmt"

	"hashcore/internal/perfprox"
	"hashcore/internal/stats"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// PredictorResult reports one predictor's behaviour on the same widget
// stream.
type PredictorResult struct {
	Kind     uarch.PredictorKind
	Accuracy float64
	MPKI     float64
	IPC      float64
}

// PredictorAblation runs one widget under each branch-predictor design
// and compares accuracy/IPC. It quantifies a design choice the paper's
// argument leans on implicitly: HashCore's unpredictable data-dependent
// branches must stay hard for *every* standard predictor family, or an
// ASIC could strip the front-end down to a cheaper predictor without
// losing performance.
func PredictorAblation(profileName string, seedWord uint64, vp vm.Params) ([]PredictorResult, error) {
	w, err := workload.ByName(profileName)
	if err != nil {
		return nil, err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return nil, err
	}
	var seed perfprox.Seed
	for i := 0; i < perfprox.SeedSize; i++ {
		seed[i] = byte(seedWord >> (8 * (uint(i) % 8)))
	}
	widget, err := gen.Generate(seed)
	if err != nil {
		return nil, err
	}

	kinds := []uarch.PredictorKind{
		uarch.PredBimodal, uarch.PredGshare, uarch.PredLocal, uarch.PredTournament,
	}
	results := make([]PredictorResult, 0, len(kinds))
	for _, kind := range kinds {
		cfg := uarch.IvyBridge()
		cfg.Predictor = kind
		r, err := uarch.Measure(string(kind), widget, cfg, vp)
		if err != nil {
			return nil, err
		}
		results = append(results, PredictorResult{
			Kind:     kind,
			Accuracy: r.BranchAccuracy,
			MPKI:     r.MPKI,
			IPC:      r.IPC,
		})
	}
	return results, nil
}

// RenderPredictorAblation formats the ablation as a table.
func RenderPredictorAblation(results []PredictorResult) string {
	t := stats.NewTable("predictor", "accuracy", "MPKI", "IPC")
	for _, r := range results {
		t.AddRow(string(r.Kind),
			fmt.Sprintf("%.4f", r.Accuracy),
			fmt.Sprintf("%.2f", r.MPKI),
			fmt.Sprintf("%.4f", r.IPC))
	}
	return t.String()
}
