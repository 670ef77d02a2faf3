package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestReportSmoke runs the one-command report generator at minimal scale
// into a directory and checks the document structure and the artefacts
// written beside it. At four instances per typology seed 2024 leaves lead
// cut-in and lead slowdown without a baseline accident: the report still
// runs, prints dashes for their Table III/IV cells and says which
// typologies it skipped.
func TestReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report")
	}
	opt := DefaultOptions()
	opt.ScenariosPerTypology = 4
	opt.TrainEpisodes = 1
	opt.Seed = 2024

	dir := t.TempDir()
	fixed := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	if err := WriteReport(dir, opt, clock); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"# iPrism reproduction report",
		"2026-07-06T12:00:00Z",
		"Built with go",
		"GOMAXPROCS",
		"revision ",
		"## Table I",
		"| Hyperparameters |",
		"## Fig. 4",
		"## Table II",
		"## Tables III & IV",
		"(CA#/TAS)",
		"## Fig. 5",
		"## Fig. 6",
		"## Fig. 7",
		"| Per-actor STI |",
		"## Roundabout generalisation",
		"## STI separation",
		"## Action-space ablation",
		"## Impact severity",
		"## Hyperparameter sensitivity",
		"## Reach ablation",
		"| boundary-only |",
		"STI |",
		"Skipped lead cut-in: no baseline accident to train its SMC on.",
		"| lead cut-in | — | — | — |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for name, header := range map[string]string{
		"fig4.csv":   "typology,metric,population,t,mean,sd,n\n",
		"fig5.csv":   "t,sti_lbc_mean,sti_lbc_sd,sti_iprism_mean,sti_iprism_sd\n",
		"suite.json": "{",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("artefact %s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(string(raw), header) || len(raw) <= len(header) {
			t.Errorf("artefact %s: want %q and data, got %d bytes", name, header, len(raw))
		}
	}
	suite, err := scenario.LoadSuite(filepath.Join(dir, "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Every typology but the validity-filtered front accident keeps all
	// its instances.
	if want := (len(scenario.Typologies) - 1) * opt.ScenariosPerTypology; len(suite) < want {
		t.Errorf("suite.json holds %d scenarios, want at least %d", len(suite), want)
	}
}

// The Fig. 4 CSV lists each series' safe rows, then its accident rows,
// and is byte-identical across writes.
func TestWriteFig4CSVDeterministic(t *testing.T) {
	series := []Fig4Series{{
		Typology: scenario.GhostCutIn, Metric: "STI", Dt: 0.2,
		Safe:     stats.Series{Mean: []float64{0.1, 0.2}, SD: []float64{0, 0.1}, N: []int{3, 3}},
		Accident: stats.Series{Mean: []float64{0.5}, SD: []float64{0.25}, N: []int{2}},
	}}
	var a, b bytes.Buffer
	if err := WriteFig4CSV(&a, series); err != nil {
		t.Fatal(err)
	}
	if err := WriteFig4CSV(&b, series); err != nil {
		t.Fatal(err)
	}
	want := "typology,metric,population,t,mean,sd,n\n" +
		"ghost cut-in,STI,safe,0.0000,0.1000,0.0000,3\n" +
		"ghost cut-in,STI,safe,0.2000,0.2000,0.1000,3\n" +
		"ghost cut-in,STI,accident,0.0000,0.5000,0.2500,2\n"
	if a.String() != want || b.String() != want {
		t.Errorf("Fig. 4 CSV =\n%s\nthen\n%s\nwant\n%s", a.String(), b.String(), want)
	}
}

func TestReportInvalidOptions(t *testing.T) {
	opt := DefaultOptions()
	opt.Workers = 0
	var sb strings.Builder
	if err := Report(&sb, opt, time.Now); err == nil {
		t.Error("invalid options accepted")
	}
}

// The ablation reuses Table III's rear-end controller, so it refuses to
// run without the rear-end suite or without that controller.
func TestActionAblationNeedsRearEndSMC(t *testing.T) {
	if _, err := ActionAblation(&Evidence{}, TableIIIResult{}); err == nil {
		t.Error("missing suite accepted")
	}
	ev := &Evidence{Suites: []Suite{{Typology: scenario.RearEnd}}}
	if _, err := ActionAblation(ev, TableIIIResult{}); err == nil {
		t.Error("untrained rear-end accepted")
	}
}
