package experiments

import (
	"strings"
	"testing"

	"hashcore/internal/uarch"
)

func TestPredictorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor ablation in -short mode")
	}
	results, err := PredictorAblation("leela", 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	byKind := map[uarch.PredictorKind]PredictorResult{}
	for _, r := range results {
		if r.Accuracy <= 0.5 || r.Accuracy > 1 {
			t.Errorf("%s accuracy %.3f implausible", r.Kind, r.Accuracy)
		}
		if r.IPC <= 0 {
			t.Errorf("%s has no IPC", r.Kind)
		}
		byKind[r.Kind] = r
	}
	// The data-dependent branches must stay hard for every family: no
	// predictor should exceed ~0.95 on a leela-profile widget, and the
	// spread between the best and worst should be modest (no single
	// design "solves" the widgets).
	for kind, r := range byKind {
		if r.Accuracy > 0.95 {
			t.Errorf("%s reaches %.3f accuracy — widgets too predictable", kind, r.Accuracy)
		}
	}
	spread := byKind[uarch.PredTournament].Accuracy - byKind[uarch.PredBimodal].Accuracy
	if spread < -0.05 {
		t.Errorf("tournament (%.3f) much worse than bimodal (%.3f)?",
			byKind[uarch.PredTournament].Accuracy, byKind[uarch.PredBimodal].Accuracy)
	}
	if spread > 0.15 {
		t.Errorf("accuracy spread %.3f too wide: a fancier predictor 'solves' the widgets", spread)
	}

	out := RenderPredictorAblation(results)
	if !strings.Contains(out, "tournament") || !strings.Contains(out, "MPKI") {
		t.Errorf("render missing fields:\n%s", out)
	}
}

func TestPredictorAblationUnknownProfile(t *testing.T) {
	if _, err := PredictorAblation("nope", 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
