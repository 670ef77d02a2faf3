package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// emitOne stands in for the report generator: it journals one event, so
// the journal has bytes to flush on close.
func emitOne(string, experiments.Options) error {
	telemetry.Emit("experiments.suite", map[string]any{"scenarios": 1})
	return nil
}

// A journal that cannot be flushed on close fails the run, even when the
// report itself succeeded.
func TestRunReportsJournalCloseFailure(t *testing.T) {
	err := run([]string{"-journal", "/dev/full"}, emitOne)
	if err == nil || !strings.HasPrefix(err.Error(), "telemetry:") {
		t.Fatalf("run with an unwritable journal = %v, want the journal's close error", err)
	}
}

func TestRunWritesJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	var got experiments.Options
	gen := func(out string, opt experiments.Options) error {
		got = opt
		return emitOne(out, opt)
	}
	if err := run([]string{"-n", "7", "-episodes", "3", "-seed", "5", "-journal", journal}, gen); err != nil {
		t.Fatal(err)
	}
	if got.ScenariosPerTypology != 7 || got.TrainEpisodes != 3 || got.Seed != 5 {
		t.Errorf("options = n %d, episodes %d, seed %d; want 7, 3, 5", got.ScenariosPerTypology, got.TrainEpisodes, got.Seed)
	}
	events, err := telemetry.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Event != "experiments.suite" {
		t.Errorf("journal = %+v, want the one generator event", events)
	}
}
