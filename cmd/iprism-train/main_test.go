package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// A journal that cannot be flushed on close fails the run, even when the
// training and the save succeeded.
func TestRunReportsJournalCloseFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a controller")
	}
	out := filepath.Join(t.TempDir(), "smc.json")
	err := run([]string{"-n", "6", "-seed", "11", "-episodes", "1", "-o", out, "-journal", "/dev/full"})
	if err == nil || !strings.HasPrefix(err.Error(), "telemetry:") {
		t.Fatalf("run with an unwritable journal = %v, want the journal's close error", err)
	}
}
