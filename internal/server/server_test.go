package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reach"
	"repro/internal/scene"
	"repro/internal/sti"
	"repro/internal/telemetry"
)

func testScene() scene.Scene {
	return scene.Scene{
		Version: scene.Version,
		Ego:     scene.State{X: 0, Y: 1.75, Speed: 10},
		Road: scene.Road{Kind: "straight", Straight: &scene.StraightRoad{
			Lanes: 2, LaneWidth: 3.5, XMin: -100, XMax: 400,
		}},
		Actors: []scene.Actor{
			{ID: 1, Kind: "vehicle", State: scene.State{X: 14, Y: 1.75, Speed: 3}},
			{ID: 2, Kind: "vehicle", State: scene.State{X: -40, Y: 5.25, Speed: 8}},
		},
	}
}

func sceneBody(t *testing.T) []byte {
	t.Helper()
	raw, err := scene.Encode(testScene())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// gate occupies every pool worker with a job that blocks until release,
// making saturation and timeout behaviour deterministic.
func gate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.workers; i++ {
		wg.Add(1)
		j, err := s.submit(context.Background(), func(*sti.Evaluator) {
			wg.Done()
			<-ch
		})
		if err != nil {
			t.Fatalf("gate job %d rejected: %v", i, err)
		}
		_ = j
	}
	wg.Wait() // every worker is now parked inside a gate job
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func TestScoreHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/score", sceneBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out scene.ScoreResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != scene.ScoreVersion {
		t.Errorf("version = %q", out.Version)
	}
	if len(out.Actors) != 2 {
		t.Fatalf("actors = %+v", out.Actors)
	}
	if out.EmptyVolume <= 0 || out.BaseVolume <= 0 {
		t.Errorf("degenerate volumes: %+v", out)
	}
	if out.Combined < 0 || out.Combined > 1 {
		t.Errorf("combined STI out of range: %v", out.Combined)
	}
	// The slow lead one stopping-distance ahead must be the threat.
	if out.MostThreatening != 1 {
		t.Errorf("most threatening = %d, want 1", out.MostThreatening)
	}
}

// The server scores multi-actor scenes on the shared-expansion engine, and
// every answer must carry exactly the numbers an in-process evaluator
// computes from the same scene: decode, materialise, queue and encode add
// nothing to the scores.
func TestScoreSharedExpansionIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})
	ev := sti.MustNewEvaluator(reach.DefaultConfig())

	// A denser variant with real blockers besides the two-actor base scene.
	dense := testScene()
	dense.Actors = append(dense.Actors,
		scene.Actor{ID: 3, Kind: "vehicle", State: scene.State{X: 8, Y: 5.25, Speed: 6}},
		scene.Actor{ID: 4, Kind: "vehicle", State: scene.State{X: 25, Y: 1.75, Speed: 5}},
	)
	for name, sc := range map[string]scene.Scene{"base": testScene(), "dense": dense} {
		body, err := scene.Encode(sc)
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postJSON(t, ts.URL+"/v1/score?explain=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, resp.StatusCode, raw)
		}
		var got scene.ScoreResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Provenance == nil || got.Provenance.Engine != sti.EngineShared {
			t.Errorf("%s: provenance %+v, want engine %q", name, got.Provenance, sti.EngineShared)
		}
		m, ego, actors, _, _, err := sc.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ev.Score(context.Background(), sti.Query{Map: m, Ego: ego, Actors: actors}, nil)
		if got.Combined != want.Combined || got.BaseVolume != want.BaseVolume || got.EmptyVolume != want.EmptyVolume {
			t.Errorf("%s: served %+v, in-process %+v", name, got, want)
		}
		if len(got.Actors) != len(actors) {
			t.Fatalf("%s: %d actor scores for %d actors", name, len(got.Actors), len(actors))
		}
		for i, a := range got.Actors {
			if a.STI != want.PerActor[i] || a.WithoutVolume != want.WithoutVolume[i] {
				t.Errorf("%s actor %d: served %+v, in-process STI %v |T^{/i}| %v", name, i, a, want.PerActor[i], want.WithoutVolume[i])
			}
		}
	}
}

func TestScoreMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	const road = `"road":{"kind":"straight","straight":{"lanes":3,"lane_width":3.5,"x_min":-100,"x_max":1000}}`
	const actor = `{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25,"speed":6}}`
	cases := []struct{ name, body, field string }{
		{"truncated", `{"version":`, ""},
		{"missing version", `{"ego":{}}`, ""},
		{"future version", `{"version":"iprism.scene/v99","road":{"kind":"straight"}}`, ""},
		{"bad road", `{"version":"iprism.scene/v1","road":{"kind":"spiral"}}`, ""},
		// Out-of-range magnitudes get a 400 naming the field; unchecked,
		// each of these is answered 200 with STI 0.
		{"ego position", `{"version":"iprism.scene/v1","ego":{"x":1e300,"y":5.25,"speed":1e300},` + road + `,"actors":[` + actor + `]}`, "ego.x"},
		{"ego heading", `{"version":"iprism.scene/v1","ego":{"x":0,"y":5.25,"heading":1e300,"speed":12},` + road + `,"actors":[` + actor + `]}`, "ego.heading"},
		{"actor speed", `{"version":"iprism.scene/v1","ego":{"x":0,"y":5.25,"speed":12},` + road + `,"actors":[{"id":1,"kind":"vehicle","state":{"x":30,"y":5.25,"speed":-1e300}}]}`, "actors[0].state.speed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/score", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var e scene.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("400 body not a JSON error: %s", body)
			}
			if !strings.Contains(e.Error, tc.field) {
				t.Errorf("400 body does not name %s: %s", tc.field, body)
			}
		})
	}
}

func TestScoreSaturationBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{workers: 1, queueDepth: 1, requestTimeout: 5 * time.Second})
	release := gate(t, s)
	defer release()
	// The single queue slot is free; one in-flight request takes it...
	filled, err := s.submit(context.Background(), func(*sti.Evaluator) {})
	if err != nil {
		t.Fatalf("queue filler rejected: %v", err)
	}
	_ = filled
	// ...so the next scene must bounce with 429 + Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/score", sceneBody(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestScoreTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{workers: 1, queueDepth: 4, requestTimeout: 30 * time.Millisecond})
	release := gate(t, s)
	defer release()
	// Queued behind the gate, the request exceeds its deadline: 504.
	resp, body := postJSON(t, ts.URL+"/v1/score", sceneBody(t))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
}

func TestBatchScoring(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})
	req := scene.BatchRequest{Scenes: []scene.Scene{testScene(), testScene(), testScene()}}
	raw, _ := json.Marshal(req)
	resp, body := postJSON(t, ts.URL+"/v1/score/batch", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out scene.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Errorf("result %d errored: %s", i, r.Error)
		}
		if r.Combined != out.Results[0].Combined {
			t.Errorf("identical scenes scored differently: %v vs %v", r.Combined, out.Results[0].Combined)
		}
	}
	// Empty batches are client errors.
	resp, _ = postJSON(t, ts.URL+"/v1/score/batch", []byte(`{"scenes":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, body %s", resp.StatusCode, body)
	}
	var created scene.SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("create body %s: %v", body, err)
	}

	// Stream three observations at increasing times; the middle one is the
	// close-lead scene, so STI should be recorded and intervals non-trivial.
	for i, tt := range []float64{0, 0.5, 1.0} {
		sc := testScene()
		sc.Time = tt
		raw, _ := scene.Encode(sc)
		resp, body = postJSON(t, ts.URL+"/v1/sessions/"+created.ID+"/observe", raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d status = %d, body %s", i, resp.StatusCode, body)
		}
		var obs scene.SessionObserveResponse
		if err := json.Unmarshal(body, &obs); err != nil {
			t.Fatal(err)
		}
		if obs.Time != tt {
			t.Errorf("observe %d time = %v, want %v", i, obs.Time, tt)
		}
	}

	r, err := http.Get(ts.URL + "/v1/sessions/" + created.ID + "/risk?threshold=0.05")
	if err != nil {
		t.Fatal(err)
	}
	var risk scene.SessionRiskResponse
	if err := json.NewDecoder(r.Body).Decode(&risk); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if risk.Samples != 3 {
		t.Errorf("samples = %d, want 3", risk.Samples)
	}
	if risk.PeakSTI <= 0 {
		t.Errorf("peak STI = %v, want > 0 for the close-lead scene", risk.PeakSTI)
	}
	if risk.Threshold != 0.05 {
		t.Errorf("threshold = %v", risk.Threshold)
	}
	if len(risk.RiskyIntervals) == 0 {
		t.Error("no risky intervals above 0.05")
	}

	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Errorf("delete status = %d, want 204", resp2.StatusCode)
	}
	// The session is gone: further observes are 404.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+created.ID+"/observe", sceneBody(t))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("observe after delete status = %d, want 404", resp.StatusCode)
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1, maxSessions: 2})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sessions", nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d status = %d, body %s", i, resp.StatusCode, body)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-limit create status = %d, want 429", resp.StatusCode)
	}
}

// TestGracefulShutdownCompletesInFlight pins the acceptance criterion:
// a request already accepted (queued behind a busy pool) when Shutdown
// begins must still be answered 200, not dropped.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	s, err := New(Config{workers: 1, queueDepth: 4, requestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	release := gate(t, s)

	type result struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+s.Addr()+"/v1/score", "application/json", bytes.NewReader(sceneBody(t)))
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		got <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()

	// Wait until the request's job is queued behind the gate.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener, then release the pool.
	time.Sleep(20 * time.Millisecond)
	release()

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request dropped: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, body %s", r.status, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown error: %v", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestConcurrentScoring hammers the service with parallel requests under
// the race detector: every response must be 200 or a deliberate 429.
func TestConcurrentScoring(t *testing.T) {
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	_, ts := newTestServer(t, Config{workers: 2, queueDepth: 8, requestTimeout: 10 * time.Second})
	body := sceneBody(t)
	const clients, perClient = 8, 5
	var wg sync.WaitGroup
	var ok, rejected, other int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					rejected++
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Errorf("unexpected statuses: ok=%d rejected=%d other=%d", ok, rejected, other)
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	// The scrape endpoints must reflect the traffic just served.
	for _, path := range []string{"/metrics", "/debug/telemetry"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		r.Body.Close()
		want := "server.request.seconds"
		if path == "/metrics" {
			want = "iprism_server_request_seconds"
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s missing %s:\n%.400s", path, want, buf.String())
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", r.StatusCode)
	}
}

// TestRetryAfterSeconds pins the backoff estimate for known queue depths:
// ceiling division of the backlog over the workers (an empty queue is zero
// batches, an exactly-divisible queue does not round up an extra batch),
// priced at the EWMA per-scene time, clamped to [1, 30] seconds.
func TestRetryAfterSeconds(t *testing.T) {
	s, _ := newTestServer(t, Config{workers: 4, queueDepth: 16})
	release := gate(t, s) // park every worker so pushed jobs stay queued
	defer release()

	fill := func(n int) {
		t.Helper()
		for len(s.jobs) < n {
			s.jobs <- &job{ctx: context.Background(), run: func(*sti.Evaluator) {}, done: make(chan struct{})}
		}
	}
	cases := []struct {
		name   string
		queued int
		avg    time.Duration
		want   int
	}{
		{"empty queue is zero batches", 0, 2 * time.Second, 1},
		{"cold server assumes 50ms", 4, 0, 1},
		{"partial batch rounds up", 5, time.Second, 2},
		{"even division is exact", 8, time.Second, 2},
		{"clamped to 30s", 8, 20 * time.Second, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fill(tc.queued)
			s.avgScoreNS.Store(tc.avg.Nanoseconds())
			if got := s.retryAfterSeconds(); got != tc.want {
				t.Errorf("queued=%d avg=%v: Retry-After %d, want %d", tc.queued, tc.avg, got, tc.want)
			}
		})
	}
}
