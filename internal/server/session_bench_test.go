package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/scene"
)

// BenchmarkSessionObserve measures the full HTTP session-observe path —
// decode, monotonic-clock admission, evaluator queue, warm-started shared
// expansion, SSE publish, encode — on the canonical stop-and-go replay.
// Sessions are recycled through the warm pool exactly the way a replaying
// client drives production:
//
//	GOMAXPROCS=1 go test -bench SessionObserve -run - ./internal/server
func BenchmarkSessionObserve(b *testing.B) {
	s, err := New(Config{workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	m, trace := scenario.StopAndGoSession(12, 60)
	bodies := make([][]byte, len(trace))
	for t, tick := range trace {
		sc, err := scene.FromParts(m, tick.Ego, tick.Actors, float64(t)*0.1)
		if err != nil {
			b.Fatal(err)
		}
		if bodies[t], err = scene.Encode(sc); err != nil {
			b.Fatal(err)
		}
	}
	client := ts.Client()
	newSession := func() string {
		resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		var out scene.SessionCreateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if out.ID == "" {
			b.Fatalf("session create: no id (status %d)", resp.StatusCode)
		}
		return out.ID
	}
	deleteSession := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	sid := newSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(bodies) == 0 && i > 0 {
			b.StopTimer()
			deleteSession(sid)
			sid = newSession()
			b.StartTimer()
		}
		resp, err := client.Post(ts.URL+"/v1/sessions/"+sid+"/observe", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("observe %d: status %d", i, resp.StatusCode)
		}
	}
}
