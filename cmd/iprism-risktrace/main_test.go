package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJournal writes three wide events (and one other event) as a
// serving journal would, and returns its path.
func writeJournal(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"ts":"2026-01-01T00:00:00Z","event":"server.start","fields":{}}`,
		`{"ts":"2026-01-01T00:00:01Z","event":"wide_event","fields":{"trace_id":"aa","request_id":"r1","route":"/v1/score","status":200,"seconds":0.002,"spans":[{"name":"server.score","span_id":"1","start_us":0,"dur_us":2000}]}}`,
		`{"ts":"2026-01-01T00:00:02Z","event":"wide_event","fields":{"trace_id":"bb","request_id":"r2","route":"/v1/score","status":200,"seconds":0.009}}`,
		`{"ts":"2026-01-01T00:00:03Z","event":"wide_event","fields":{"trace_id":"cc","request_id":"r3","route":"/v1/sessions","status":201,"seconds":0.001}}`,
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func replayed(t *testing.T, path, id string, slowest int) []string {
	t.Helper()
	var out bytes.Buffer
	if err := replayTrace(&out, path, id, slowest); err != nil {
		t.Fatal(err)
	}
	var traces []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "trace" {
			traces = append(traces, f[1])
		}
	}
	return traces
}

func TestReplayTraceFilters(t *testing.T) {
	path := writeJournal(t)
	if got := strings.Join(replayed(t, path, "", 0), ","); got != "aa,bb,cc" {
		t.Errorf("all wide events = %s, want aa,bb,cc", got)
	}
	if got := strings.Join(replayed(t, path, "aa", 0), ","); got != "aa" {
		t.Errorf("-trace-id aa = %s", got)
	}
	if got := strings.Join(replayed(t, path, "", 2), ","); got != "bb,aa" {
		t.Errorf("-slowest 2 = %s, want bb,aa", got)
	}
	if err := replayTrace(&bytes.Buffer{}, path, "zz", 0); err == nil {
		t.Error("an unknown trace ID replayed without error")
	}
}
