package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := openJournal(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// Each event is ~120 bytes; write enough to force several rotations.
	for i := 0; i < 200; i++ {
		j.Emit("rotate.test", map[string]any{"i": i, "pad": "0123456789012345678901234567890123456789"})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	live, err := os.Stat(path)
	if err != nil {
		t.Fatalf("live journal missing: %v", err)
	}
	prev, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rotated journal missing: %v", err)
	}
	// Disk use is bounded: both generations respect the cap.
	if live.Size() > 2048 || prev.Size() > 2048 {
		t.Errorf("cap exceeded: live %d, prev %d", live.Size(), prev.Size())
	}
	// Only one previous generation exists.
	if _, err := os.Stat(path + ".1.1"); err == nil {
		t.Error("more than one rotated generation on disk")
	}
	if _, err := os.Stat(path + ".2"); err == nil {
		t.Error("unexpected .2 generation on disk")
	}

	// Both files must remain valid JSONL, and the newest events must be in
	// the live file (rotation never reorders or drops the tail).
	liveEvents, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("live journal corrupt: %v", err)
	}
	prevEvents, err := ReadJournalFile(path + ".1")
	if err != nil {
		t.Fatalf("rotated journal corrupt: %v", err)
	}
	if len(liveEvents) == 0 || len(prevEvents) == 0 {
		t.Fatalf("events: live %d, prev %d; want both non-empty", len(liveEvents), len(prevEvents))
	}
	last := liveEvents[len(liveEvents)-1]
	if got := last.Fields["i"].(float64); got != 199 {
		t.Errorf("last event i = %v, want 199", got)
	}
	// prev's last event immediately precedes live's first.
	pl := prevEvents[len(prevEvents)-1].Fields["i"].(float64)
	lf := liveEvents[0].Fields["i"].(float64)
	if pl+1 != lf {
		t.Errorf("rotation dropped events: prev ends at %v, live starts at %v", pl, lf)
	}
}

func TestJournalNoRotationWithoutCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		j.Emit("nocap.test", map[string]any{"i": i, "pad": fmt.Sprintf("%0100d", i)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); err == nil {
		t.Error("uncapped journal rotated")
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 500 {
		t.Errorf("got %d events, want 500", len(events))
	}
}

func TestJournalRotationOversizedEvent(t *testing.T) {
	// A single event larger than the cap must still be written (rotation
	// bounds steady-state growth; it must not deadlock or drop).
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := openJournal(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit("big", map[string]any{"pad": fmt.Sprintf("%0200d", 1)})
	j.Emit("big", map[string]any{"pad": fmt.Sprintf("%0200d", 2)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prevEvents, _ := ReadJournalFile(path + ".1")
	if len(events)+len(prevEvents) != 2 {
		t.Errorf("events across generations = %d+%d, want 2", len(prevEvents), len(events))
	}
}
