package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLedgerSessionTick(t *testing.T) {
	srv := &wideEvent{
		Seconds: 0.010,
		Attrs:   map[string]any{"queue_wait_seconds": 0.001},
		Spans:   []spanRec{{Name: spanObserve, StartUS: 2000, DurUS: 7000}},
	}
	gw := &wideEvent{Seconds: 0.012}
	l := buildLedger(13, gw, srv)
	want := ledger{ClientMS: 13, TransportMS: 1, GatewaySelfMS: 2, QueueWaitMS: 1, HandlerSelfMS: 2, EvaluateMS: 7}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"transport", l.TransportMS, want.TransportMS},
		{"gateway self", l.GatewaySelfMS, want.GatewaySelfMS},
		{"queue wait", l.QueueWaitMS, want.QueueWaitMS},
		{"handler self", l.HandlerSelfMS, want.HandlerSelfMS},
		{"predict", l.PredictMS, 0},
		{"evaluate", l.EvaluateMS, want.EvaluateMS},
		{"residual", l.ResidualMS, 0},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v ms, want %v", c.name, c.got, c.want)
		}
	}
}

func TestLedgerBatchChargesOverlapOnce(t *testing.T) {
	// Two scenes scored on two workers: their spans overlap, and the queue
	// wait belongs to the later-starting job (predict at 1200 µs).
	srv := &wideEvent{
		Seconds: 0.010,
		Attrs:   map[string]any{"queue_wait_seconds": 0.0005},
		Spans: []spanRec{
			{Name: spanPredict, StartUS: 1000, DurUS: 500},
			{Name: spanEvaluate, StartUS: 1500, DurUS: 4500},
			{Name: spanPredict, StartUS: 1200, DurUS: 500},
			{Name: spanEvaluate, StartUS: 1700, DurUS: 7300},
			{Name: "reach.shared_expansion", StartUS: 1800, DurUS: 100},
		},
	}
	q, self, p, e := serverRows(srv)
	if !near(q, 0.3) || !near(p, 0.5) || !near(e, 7.5) || !near(self, 1.7) {
		t.Errorf("rows queue %v predict %v evaluate %v self %v; want 0.3 0.5 7.5 1.7", q, p, e, self)
	}
	l := buildLedger(11.5, nil, srv)
	if !near(l.TransportMS, 1.5) || !near(l.GatewaySelfMS, 0) || !near(l.ResidualMS, 0) {
		t.Errorf("transport %v gateway %v residual %v; want 1.5 0 0", l.TransportMS, l.GatewaySelfMS, l.ResidualMS)
	}
}

func TestLedgerClipsQueueWaitAndShowsResidualOfRounding(t *testing.T) {
	// A queue wait reaching before the event began is clipped to the
	// event; the sub-microsecond tail of the duration is handler time.
	srv := &wideEvent{
		Seconds: 0.0050004,
		Attrs:   map[string]any{"queue_wait_seconds": 0.003},
		Spans:   []spanRec{{Name: spanObserve, StartUS: 1000, DurUS: 3000}},
	}
	q, self, _, e := serverRows(srv)
	if !near(q, 1) || !near(e, 3) || !near(self, 1.0004) {
		t.Errorf("queue %v evaluate %v self %v; want 1 3 1.0004", q, e, self)
	}
	if l := buildLedger(6, nil, srv); math.Abs(l.ResidualMS) > 1e-9 || !near(l.sum()+l.ResidualMS, l.ClientMS) {
		t.Errorf("rows %v + residual %v do not sum to client %v", l.sum(), l.ResidualMS, l.ClientMS)
	}
}

func TestReadWideEventsKeysByTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := `{"ts":"2026-01-01T00:00:00Z","event":"wide_event","fields":{"trace_id":"a1","route":"/v1/score","status":200,"seconds":0.002,"attrs":{"queue_wait_seconds":0.0001},"spans":[{"name":"server.evaluate","span_id":"x","start_us":10,"dur_us":1500}]}}
{"ts":"2026-01-01T00:00:00Z","event":"smc.episode","fields":{"episode":1}}
{"ts":"2026-01-01T00:00:01Z","event":"wide_event","fields":{"trace_id":"a1","route":"/v1/score","status":200,"seconds":9}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err := readWideEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := evs["a1"]
	if len(evs) != 1 || ev == nil || ev.Seconds != 0.002 || len(ev.Spans) != 1 || ev.Spans[0].DurUS != 1500 || ev.attrFloat("queue_wait_seconds") != 0.0001 {
		t.Fatalf("parsed %+v", evs)
	}
}
