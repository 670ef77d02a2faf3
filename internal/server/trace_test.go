package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/scene"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)
var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

func postTraced(t *testing.T, url, traceID string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})

	// A caller-supplied trace ID is honoured verbatim.
	callerID := trace.NewID().String()
	resp, body := postTraced(t, ts.URL+"/v1/score", callerID, sceneBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != callerID {
		t.Errorf("X-Trace-Id = %q, want caller's %q", got, callerID)
	}
	if got := resp.Header.Get("X-Request-Id"); !hex16.MatchString(got) {
		t.Errorf("X-Request-Id = %q, want 16 hex digits", got)
	}

	// No (or invalid) caller ID: the server mints a fresh valid one.
	for _, supplied := range []string{"", "not-hex", "00000000000000000000000000000000"} {
		resp, _ := postTraced(t, ts.URL+"/v1/score", supplied, sceneBody(t))
		if got := resp.Header.Get("X-Trace-Id"); !hex32.MatchString(got) || got == supplied {
			t.Errorf("supplied %q: X-Trace-Id = %q, want fresh 32 hex digits", supplied, got)
		}
	}
}

func TestErrorPathsCarryTraceHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{workers: 1, queueDepth: 1})

	// 400: malformed body.
	resp, _ := postTraced(t, ts.URL+"/v1/score", "", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if !hex32.MatchString(resp.Header.Get("X-Trace-Id")) || !hex16.MatchString(resp.Header.Get("X-Request-Id")) {
		t.Errorf("400 response missing trace headers: %v", resp.Header)
	}

	// 429: saturated queue. Retry-After must be a positive integer derived
	// from live state, and trace headers must still be present.
	release := gate(t, s)
	defer release()
	for i := 0; i < s.cfg.queueDepth; i++ {
		if _, err := s.submit(context.Background(), func(*sti.Evaluator) {}); err != nil {
			t.Fatalf("queue filler rejected: %v", err)
		}
	}
	resp, _ = postTraced(t, ts.URL+"/v1/score", "", sceneBody(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if !hex32.MatchString(resp.Header.Get("X-Trace-Id")) || !hex16.MatchString(resp.Header.Get("X-Request-Id")) {
		t.Errorf("429 response missing trace headers: %v", resp.Header)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("Retry-After = %q, want integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
}

func TestExplainProvenance(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})

	callerID := trace.NewID().String()
	resp, body := postTraced(t, ts.URL+"/v1/score?explain=1", callerID, sceneBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out scene.ScoreResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	p := out.Provenance
	if p == nil {
		t.Fatalf("?explain=1 returned no provenance: %s", body)
	}
	if p.TraceID != callerID {
		t.Errorf("provenance trace_id = %q, want %q", p.TraceID, callerID)
	}
	if p.Engine != "shared" {
		t.Errorf("engine = %q, want shared (multi-actor scene)", p.Engine)
	}
	if p.CacheState == "" {
		t.Error("provenance missing cache_state")
	}
	if len(p.Actors) != 2 {
		t.Fatalf("provenance actors = %+v", p.Actors)
	}
	for i, a := range p.Actors {
		if a.ID != out.Actors[i].ID || a.STI != out.Actors[i].STI {
			t.Errorf("provenance actor %d = %+v diverges from score %+v", i, a, out.Actors[i])
		}
	}
	names := map[string]bool{}
	for _, sp := range p.Spans {
		names[sp.Name] = true
	}
	if !names["server.evaluate"] || !names["reach.shared_expansion"] {
		t.Errorf("provenance spans = %v, want server.evaluate and reach.shared_expansion", names)
	}

	// Without the opt-in the block is absent.
	_, body = postTraced(t, ts.URL+"/v1/score", "", sceneBody(t))
	out = scene.ScoreResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Provenance != nil {
		t.Error("provenance present without ?explain=1")
	}
}

func TestDebugRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})

	callerID := trace.NewID().String()
	if resp, body := postTraced(t, ts.URL+"/v1/score", callerID, sceneBody(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("score status = %d, body %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/debug/requests?trace_id=" + callerID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status = %d", resp.StatusCode)
	}
	var dbg trace.DebugRequestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Requests) != 1 {
		t.Fatalf("events for trace = %d, want 1", len(dbg.Requests))
	}
	ev := dbg.Requests[0]
	if ev.TraceID != callerID || ev.Route != "/v1/score" || ev.Status != http.StatusOK {
		t.Errorf("wide event = %+v", ev)
	}
	if ev.Seconds <= 0 {
		t.Error("wide event has no duration")
	}
	if _, ok := ev.Attrs["queue_wait_seconds"]; !ok {
		t.Errorf("wide event attrs missing queue_wait_seconds: %v", ev.Attrs)
	}
	if _, ok := ev.Attrs["engine"]; !ok {
		t.Errorf("wide event attrs missing engine: %v", ev.Attrs)
	}
	spans := map[string]bool{}
	for _, sp := range ev.Spans {
		spans[sp.Name] = true
	}
	if !spans["server.evaluate"] || !spans["reach.empty_tube"] {
		t.Errorf("wide event spans = %v, want server → evaluator → reach chain", spans)
	}

	// Unknown trace: 404. Unfiltered listing: newest-first recent events.
	if resp, _ := http.Get(ts.URL + "/debug/requests?trace_id=" + trace.NewID().String()); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dbg = trace.DebugRequestsResponse{}
	if err := json.NewDecoder(resp2.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Requests) == 0 || dbg.Requests[0].TraceID != callerID {
		t.Errorf("recent listing = %+v, want newest first", dbg.Requests)
	}
}

func TestDebugSLO(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})
	postTraced(t, ts.URL+"/v1/score", "", sceneBody(t))
	postTraced(t, ts.URL+"/v1/score", "", []byte("{bad"))

	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DebugSLOResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.SLOs) != 2 {
		t.Fatalf("SLOs = %+v", out.SLOs)
	}
	byName := map[string]telemetry.SLOStatus{}
	for _, st := range out.SLOs {
		byName[st.Name] = st
	}
	avail, ok := byName["availability"]
	if !ok {
		t.Fatal("availability SLO missing")
	}
	if avail.Breached {
		t.Error("availability breached on a healthy server")
	}
	if len(avail.Windows) == 0 || avail.Windows[0].Total < 2 {
		t.Errorf("availability windows = %+v, want >= 2 events", avail.Windows)
	}
	// A 400 is a client error: it must not burn availability budget.
	if avail.Windows[0].Good != avail.Windows[0].Total {
		t.Errorf("availability counted a 4xx as bad: %+v", avail.Windows[0])
	}
	if _, ok := byName["latency"]; !ok {
		t.Fatal("latency SLO missing")
	}
}

func TestWideEventJournal(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	var buf bytes.Buffer
	jnl := telemetry.NewJournal(&buf)
	telemetry.SetJournal(jnl)
	t.Cleanup(func() { telemetry.SetJournal(nil) })

	_, ts := newTestServer(t, Config{workers: 2})
	callerID := trace.NewID().String()
	if resp, body := postTraced(t, ts.URL+"/v1/score", callerID, sceneBody(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("score status = %d, body %s", resp.StatusCode, body)
	}

	events, err := telemetry.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Event == "wide_event" && ev.Fields["trace_id"] == callerID {
			if ev.Fields["route"] != "/v1/score" {
				t.Errorf("journaled wide event route = %v", ev.Fields["route"])
			}
			return
		}
	}
	t.Fatalf("no wide_event with trace %s in journal (%d events)", callerID, len(events))
}
