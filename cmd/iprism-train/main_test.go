package main

import (
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// A journal that cannot be flushed on close fails the run, even when the
// training and the save succeeded.
func TestRunReportsJournalCloseFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a controller")
	}
	out := filepath.Join(t.TempDir(), "smc.json")
	err := run([]string{"-n", "6", "-seed", "11", "-episodes", "1", "-o", out, "-journal", "/dev/full"}, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "telemetry:") {
		t.Fatalf("run with an unwritable journal = %v, want the journal's close error", err)
	}
}

// The CLI trains on the accident iprism-report's Table III would pick from
// the same instances (§IV-B1's highest average STI), not on the first
// accident it finds.
func TestRunTrainsOnReportSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a suite and trains a controller")
	}
	const n, seed = 8, 2024
	var out strings.Builder
	err := run([]string{"-typology", "ghost-cut-in", "-n", strconv.Itoa(n), "-seed", strconv.Itoa(seed),
		"-episodes", "1", "-o", filepath.Join(t.TempDir(), "smc.json")}, &out)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`training on scenario #(\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no training scenario in the output:\n%s", out.String())
	}

	// The report's suites: ghost cut-in is the first typology, generated
	// with the run's own seed.
	opt := experiments.DefaultOptions()
	opt.ScenariosPerTypology = n
	opt.Seed = seed
	suites, err := experiments.BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := experiments.Trace(suites, opt)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ev.TrainingScenario(scenario.GhostCutIn)
	if err != nil {
		t.Fatal(err)
	}
	ghost := suites[0]
	want := fmt.Sprint(ghost.Scenarios[idx].ID)
	if m[1] != want {
		t.Errorf("CLI trained on scenario #%s, the report's selection is #%s", m[1], want)
	}
	if first := ghost.Scenarios[ghost.Accidents()[0]].ID; fmt.Sprint(first) == want {
		t.Fatalf("the first accident (#%d) is also the selected one; pick an -n/-seed where they differ", first)
	}
}
