package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scene"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// --- ring ---

func TestRingSuccessorsDistinctOwnerFirst(t *testing.T) {
	r := newRing([]string{"a:1", "b:1", "c:1"}, 64)
	for _, key := range []string{"s1", "s2", "session-xyz", ""} {
		succ := r.successors(key)
		if len(succ) != 3 {
			t.Fatalf("successors(%q) = %v, want 3 distinct backends", key, succ)
		}
		seen := map[int]bool{}
		for _, idx := range succ {
			if seen[idx] {
				t.Fatalf("successors(%q) repeats backend %d", key, idx)
			}
			seen[idx] = true
		}
		if r.owner(key) != succ[0] {
			t.Errorf("owner(%q) = %d, want successors[0] = %d", key, r.owner(key), succ[0])
		}
	}
}

// Removing one backend must not move keys between the survivors: only the
// removed backend's keys relocate. This is the consistent-hash contract
// that makes the session tier survive membership edits.
func TestRingMinimalMovement(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1"}
	before := newRing(addrs, 128)
	after := newRing(addrs[:2], 128) // c removed

	const n = 2000
	moved, fromC := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("session-%d", i)
		was, is := before.owner(key), after.owner(key)
		if was == 2 {
			fromC++
			continue // c's keys must move somewhere
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving backends (want 0)", moved)
	}
	// Sanity: c owned a nontrivial share before removal (vnode balance).
	if fromC < n/6 || fromC > n/2 {
		t.Errorf("backend c owned %d/%d keys, want roughly a third", fromC, n)
	}
}

// Distribution sanity: vnodes spread ownership within a loose factor.
func TestRingBalance(t *testing.T) {
	r := newRing([]string{"a:1", "b:1", "c:1", "d:1"}, 128)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[r.owner(fmt.Sprintf("k%d", i))]++
	}
	for idx, c := range counts {
		if c < 400 || c > 2200 {
			t.Errorf("backend %d owns %d/4000 keys, badly unbalanced: %v", idx, c, counts)
		}
	}
}

// --- fake backends ---

// fakeBackend is a scriptable iprism-serve stand-in: /healthz answers 200
// while up, /v1/score is delegated to score.
type fakeBackend struct {
	srv   *httptest.Server
	up    atomic.Bool
	score atomic.Value // func(w http.ResponseWriter, r *http.Request)
	hits  atomic.Int64
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.up.Store(true)
	f.score.Store(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"version":"iprism.score/v1","combined_sti":0.5,"most_threatening":1,"actors":[{"id":1,"sti":0.5}]}`)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !f.up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/score", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.score.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeBackend) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

// listenAt rebinds a specific host:port (recovering a "dead" backend's
// address); the port may have been grabbed in between, so callers skip on
// failure.
func listenAt(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	telemetry.Enable()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Shutdown(ctx)
	})
	return g
}

func doGateway(t *testing.T, g *Gateway, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, req)
	return w
}

// --- failover / health ---

// A backend that stops answering is ejected by its own failing traffic
// (passive evidence), traffic flows to the survivor, and the probe loop
// re-admits it once it recovers.
func TestFailoverEjectionAndReadmission(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	g := newTestGateway(t, Config{
		Backends:      []string{f1.addr(), f2.addr()},
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 1,
		HedgeOff:      true,
	})

	// Kill f1 at the TCP level: requests to it fail with conn errors.
	f1.srv.CloseClientConnections()
	f1.srv.Close()

	for i := 0; i < 6; i++ {
		w := doGateway(t, g, http.MethodPost, "/v1/score", []byte("{}"))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d through degraded fleet: status %d, body %s", i, w.Code, w.Body.String())
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.backends[0].healthy.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g.backends[0].healthy.Load() {
		t.Fatal("dead backend was never ejected")
	}
	if got := g.healthyCount(); got != 1 {
		t.Fatalf("healthyCount = %d, want 1", got)
	}

	// Every request after ejection must land on f2 only.
	before := f2.hits.Load()
	for i := 0; i < 4; i++ {
		if w := doGateway(t, g, http.MethodPost, "/v1/score", []byte("{}")); w.Code != http.StatusOK {
			t.Fatalf("post-ejection request: status %d", w.Code)
		}
	}
	if f2.hits.Load()-before != 4 {
		t.Errorf("survivor served %d of 4 post-ejection requests", f2.hits.Load()-before)
	}

	// Resurrect f1 at the same address: probes must re-admit it.
	f3 := &fakeBackend{}
	f3.up.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	ln, err := listenAt(f1.addr())
	if err != nil {
		t.Skipf("could not rebind %s: %v", f1.addr(), err)
	}
	revived := &http.Server{Handler: mux}
	go revived.Serve(ln)
	defer revived.Close()

	deadline = time.Now().Add(3 * time.Second)
	for !g.backends[0].healthy.Load() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !g.backends[0].healthy.Load() {
		t.Fatal("recovered backend was never re-admitted")
	}
}

// --- hedging ---

// With one slow backend, the p95-derived hedge races a duplicate on the
// other backend and the fast answer wins well before the slow one lands.
func TestHedgingCutsTailLatency(t *testing.T) {
	slow, fast := newFakeBackend(t), newFakeBackend(t)
	const slowDelay = 600 * time.Millisecond
	slow.score.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(slowDelay):
		case <-r.Context().Done():
			return
		}
		fmt.Fprintln(w, `{"version":"iprism.score/v1","combined_sti":0.1,"most_threatening":-1}`)
	})
	g := newTestGateway(t, Config{
		Backends:      []string{slow.addr(), fast.addr()},
		ProbeInterval: time.Second,
		HedgeMinDelay: 10 * time.Millisecond,
	})
	wins := telHedgeWins.Value()
	for i := 0; i < 6; i++ {
		start := time.Now()
		w := doGateway(t, g, http.MethodPost, "/v1/score", []byte("{}"))
		if w.Code != http.StatusOK {
			t.Fatalf("hedged request %d: status %d", i, w.Code)
		}
		if d := time.Since(start); d > slowDelay-100*time.Millisecond {
			t.Errorf("request %d took %v, hedge should have beaten the %v backend", i, d, slowDelay)
		}
	}
	if telHedgeWins.Value() == wins {
		t.Error("no hedge ever won despite a pathologically slow backend")
	}
}

// 429 backpressure is flow control: it passes through with Retry-After
// and is never retried onto another backend.
func Test429PassesThroughUnretried(t *testing.T) {
	busy, idle := newFakeBackend(t), newFakeBackend(t)
	busy.score.Store(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"scoring queue full"}`, http.StatusTooManyRequests)
	})
	idle.score.Store(busy.score.Load()) // both saturated
	g := newTestGateway(t, Config{
		Backends:      []string{busy.addr(), idle.addr()},
		ProbeInterval: time.Second,
		HedgeOff:      true,
	})
	hits := busy.hits.Load() + idle.hits.Load()
	w := doGateway(t, g, http.MethodPost, "/v1/score", []byte("{}"))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want pass-through %q", ra, "7")
	}
	if got := busy.hits.Load() + idle.hits.Load() - hits; got != 1 {
		t.Errorf("429 touched %d backends, want exactly 1 (no retry)", got)
	}
}

// --- sessions against real backends ---

func testFleet(t *testing.T, n int, cfg Config) (*Gateway, []*server.Server) {
	t.Helper()
	telemetry.Enable()
	var addrs []string
	var servers []*server.Server
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
	}
	cfg.Backends = addrs
	return newTestGateway(t, cfg), servers
}

// fleetScene builds one observe body at tick time `at` — session observe
// times must be strictly increasing, so callers advance it per request.
func fleetScene(at float64) []byte {
	raw, err := scene.Encode(scene.Scene{
		Version: scene.Version,
		Time:    at,
		Ego:     scene.State{X: 0, Y: 1.75, Speed: 10},
		Road:    scene.Road{Kind: "straight", Straight: &scene.StraightRoad{Lanes: 2, LaneWidth: 3.5, XMin: -50, XMax: 200}},
		Actors:  []scene.Actor{{ID: 1, Kind: "vehicle", State: scene.State{X: 25, Y: 1.75, Speed: 4}}},
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// Sessions created through the gateway stick to one backend, and the
// gateway reports its routing decision via X-Backend.
func TestSessionAffinity(t *testing.T) {
	g, _ := testFleet(t, 3, Config{ProbeInterval: time.Second, HedgeOff: true})
	w := doGateway(t, g, http.MethodPost, "/v1/sessions", []byte("{}"))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", w.Code, w.Body.String())
	}
	var created scene.SessionCreateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatal("gateway did not mint a session ID")
	}
	owner := w.Header().Get("X-Backend")
	if owner == "" {
		t.Fatal("create response missing X-Backend")
	}
	for i := 0; i < 5; i++ {
		w := doGateway(t, g, http.MethodPost, "/v1/sessions/"+created.ID+"/observe", fleetScene(float64(i)*0.1))
		if w.Code != http.StatusOK {
			t.Fatalf("observe %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Backend"); got != owner {
			t.Fatalf("observe %d landed on %s, session owner is %s (affinity broken)", i, got, owner)
		}
	}
	w = doGateway(t, g, http.MethodGet, "/v1/sessions/"+created.ID+"/risk", nil)
	if w.Code != http.StatusOK || w.Header().Get("X-Backend") != owner {
		t.Fatalf("risk: status %d on backend %q, want 200 on %q", w.Code, w.Header().Get("X-Backend"), owner)
	}
}

// Killing the owner backend moves the session to its ring successor: the
// next observe ejects the corpse, resurrects the session ID on the new
// owner, and succeeds — the episode continues with history reset.
func TestSessionFailoverResurrection(t *testing.T) {
	g, servers := testFleet(t, 2, Config{ProbeInterval: time.Hour, FailThreshold: 1, HedgeOff: true})
	w := doGateway(t, g, http.MethodPost, "/v1/sessions", []byte("{}"))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: status %d", w.Code)
	}
	var created scene.SessionCreateResponse
	json.Unmarshal(w.Body.Bytes(), &created)
	owner := w.Header().Get("X-Backend")
	if w := doGateway(t, g, http.MethodPost, "/v1/sessions/"+created.ID+"/observe", fleetScene(0)); w.Code != http.StatusOK {
		t.Fatalf("pre-failover observe: status %d", w.Code)
	}

	resurrections := telResurrect.Value()
	for _, s := range servers {
		if s.Addr() == owner {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	}
	w = doGateway(t, g, http.MethodPost, "/v1/sessions/"+created.ID+"/observe", fleetScene(0.1))
	if w.Code != http.StatusOK {
		t.Fatalf("post-failover observe: status %d, body %s", w.Code, w.Body.String())
	}
	survivor := w.Header().Get("X-Backend")
	if survivor == owner {
		t.Fatalf("observe still claims dead owner %s", owner)
	}
	if telResurrect.Value() == resurrections {
		t.Error("failover succeeded without a recorded resurrection")
	}
	// Stickiness resumes on the survivor.
	if w := doGateway(t, g, http.MethodPost, "/v1/sessions/"+created.ID+"/observe", fleetScene(0.2)); w.Header().Get("X-Backend") != survivor {
		t.Errorf("session did not stick to survivor %s", survivor)
	}
}

// The SSE proxy relays live events and honours Last-Event-ID resume
// through the gateway.
func TestStreamProxyWithResume(t *testing.T) {
	g, _ := testFleet(t, 2, Config{ProbeInterval: time.Second, HedgeOff: true})
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + g.Addr()

	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	var created scene.SessionCreateResponse
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	for i := 0; i < 5; i++ {
		r2, err := http.Post(base+"/v1/sessions/"+created.ID+"/observe", "application/json", bytes.NewReader(fleetScene(float64(i)*0.1)))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
	}

	req, _ := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+created.ID+"/stream", nil)
	req.Header.Set("Last-Event-ID", "2")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	ids := make(chan uint64, 16)
	go func() {
		defer close(ids)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id: ") {
				var id uint64
				fmt.Sscanf(line, "id: %d", &id)
				ids <- id
			}
		}
	}()
	want := uint64(3) // resume after 2 replays 3, 4, 5
	deadline := time.After(5 * time.Second)
	for want <= 5 {
		select {
		case id, ok := <-ids:
			if !ok {
				t.Fatalf("stream closed before id %d", want)
			}
			if id != want {
				t.Fatalf("replayed id = %d, want %d", id, want)
			}
			want++
		case <-deadline:
			t.Fatalf("timed out waiting for replayed id %d", want)
		}
	}
}

// --- jobs ---

// A corpus job completes across the fleet, honouring 429 backpressure by
// waiting out Retry-After instead of failing or retrying elsewhere.
func TestJobLifecycleUnderBackpressure(t *testing.T) {
	f1, f2 := newFakeBackend(t), newFakeBackend(t)
	var rejected atomic.Int64
	throttled := func(w http.ResponseWriter, _ *http.Request) {
		// Every backend's first two answers are saturation pushback.
		if rejected.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"scoring queue full"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprintln(w, `{"version":"iprism.score/v1","combined_sti":0.25,"most_threatening":1,"actors":[{"id":1,"sti":0.25}]}`)
	}
	f1.score.Store(throttled)
	f2.score.Store(throttled)
	g := newTestGateway(t, Config{
		Backends:         []string{f1.addr(), f2.addr()},
		ProbeInterval:    time.Second,
		HedgeOff:         true,
		JobWorkers:       2,
		JobRetryAfterCap: 30 * time.Millisecond, // keep the test fast
	})

	sc := scene.Scene{
		Version: scene.Version,
		Ego:     scene.State{X: 0, Y: 1.75, Speed: 10},
		Road:    scene.Road{Kind: "straight", Straight: &scene.StraightRoad{Lanes: 2, LaneWidth: 3.5, XMin: -50, XMax: 200}},
		Actors:  []scene.Actor{{ID: 1, Kind: "vehicle", State: scene.State{X: 25, Y: 1.75, Speed: 4}}},
	}
	corpus, err := scene.EncodeJobRequest(scene.JobRequest{Scenes: []scene.Scene{sc, sc, sc, sc, sc}})
	if err != nil {
		t.Fatal(err)
	}
	w := doGateway(t, g, http.MethodPost, "/v1/jobs", corpus)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", w.Code, w.Body.String())
	}
	var st scene.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	if st.ID == "" || st.Total != 5 {
		t.Fatalf("submit status = %+v", st)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		w = doGateway(t, g, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("status poll: %d", w.Code)
		}
		json.Unmarshal(w.Body.Bytes(), &st)
		if st.State == scene.JobStateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Completed != 5 || st.Failed != 0 {
		t.Fatalf("job finished %+v, want 5 completed, 0 failed", st)
	}

	w = doGateway(t, g, http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("results: status %d", w.Code)
	}
	var res scene.JobResults
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 5 {
		t.Fatalf("results = %d, want 5", len(res.Results))
	}
	for i, r := range res.Results {
		if r.Index != i || r.Error != "" || r.Combined != 0.25 {
			t.Errorf("result %d = %+v, want index-aligned combined 0.25", i, r)
		}
	}
	if rejected.Load() < 3 {
		t.Errorf("backpressure script never fired (%d scoring calls)", rejected.Load())
	}
}

// A results fetch on a still-running job answers 202 with live status.
func TestJobResultsWhileRunning(t *testing.T) {
	f := newFakeBackend(t)
	release := make(chan struct{})
	f.score.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprintln(w, `{"version":"iprism.score/v1","combined_sti":0.5,"most_threatening":-1}`)
	})
	g := newTestGateway(t, Config{Backends: []string{f.addr()}, ProbeInterval: time.Second, HedgeOff: true, JobWorkers: 1})

	sc := scene.Scene{
		Version: scene.Version,
		Ego:     scene.State{X: 0, Y: 1.75, Speed: 10},
		Road:    scene.Road{Kind: "straight", Straight: &scene.StraightRoad{Lanes: 2, LaneWidth: 3.5, XMin: -50, XMax: 200}},
		Actors:  []scene.Actor{{ID: 1, Kind: "vehicle", State: scene.State{X: 25, Y: 1.75, Speed: 4}}},
	}
	corpus, _ := scene.EncodeJobRequest(scene.JobRequest{Scenes: []scene.Scene{sc}})
	w := doGateway(t, g, http.MethodPost, "/v1/jobs", corpus)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d", w.Code)
	}
	var st scene.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)

	w = doGateway(t, g, http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("running results fetch: status %d, want 202", w.Code)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		w = doGateway(t, g, http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
		if w.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed after release")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w := doGateway(t, g, http.MethodGet, "/v1/jobs/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", w.Code)
	}
}

// Malformed and oversized corpora are rejected before any scheduling.
func TestJobSubmitRejections(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{Backends: []string{f.addr()}, ProbeInterval: time.Second, MaxJobScenes: 1})
	for name, body := range map[string]string{
		"not json":    "{",
		"bad version": `{"version":"iprism.scene/v1","scenes":[]}`,
		"empty":       `{"version":"iprism.job/v1","scenes":[]}`,
	} {
		if w := doGateway(t, g, http.MethodPost, "/v1/jobs", []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}
	sc := scene.Scene{
		Version: scene.Version,
		Ego:     scene.State{X: 0, Y: 1.75, Speed: 10},
		Road:    scene.Road{Kind: "straight", Straight: &scene.StraightRoad{Lanes: 2, LaneWidth: 3.5, XMin: -50, XMax: 200}},
	}
	over, _ := scene.EncodeJobRequest(scene.JobRequest{Scenes: []scene.Scene{sc, sc}})
	if w := doGateway(t, g, http.MethodPost, "/v1/jobs", over); w.Code != http.StatusBadRequest {
		t.Errorf("over-limit corpus: status %d, want 400", w.Code)
	}
}

// /healthz flips to 503 when the whole fleet is gone, and /debug/backends
// reports the fleet view.
func TestGatewayHealthAndDebugBackends(t *testing.T) {
	f := newFakeBackend(t)
	g := newTestGateway(t, Config{Backends: []string{f.addr()}, ProbeInterval: time.Second})
	if w := doGateway(t, g, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz with healthy fleet: %d", w.Code)
	}
	g.backends[0].healthy.Store(false)
	if w := doGateway(t, g, http.MethodGet, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead fleet: %d, want 503", w.Code)
	}
	w := doGateway(t, g, http.MethodGet, "/debug/backends", nil)
	var dbg DebugBackendsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Backends) != 1 || dbg.Healthy != 0 || dbg.Backends[0].Addr != f.addr() {
		t.Errorf("debug backends = %+v", dbg)
	}
}
