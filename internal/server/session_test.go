package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

func observeBody(t *testing.T, at float64) []byte {
	t.Helper()
	sc := testScene()
	sc.Time = at
	raw, err := scene.Encode(sc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// Session observe times must be non-decreasing: a stale-clock client
// replaying an old tick gets a 400 instead of silently corrupting the
// monitor's time-indexed windows. Equal times pass — clients that omit
// the optional scene time send 0 every tick. The floor advances at
// admission, so a rejected tick does not reset it.
func TestSessionObserveRejectsNonMonotonicTime(t *testing.T) {
	cases := []struct {
		name  string
		times []float64
		want  []int
	}{
		{"increasing", []float64{0, 0.1, 0.2}, []int{200, 200, 200}},
		{"repeat-ok", []float64{0, 0, 0}, []int{200, 200, 200}},
		{"backwards", []float64{1.0, 0.5}, []int{200, 400}},
		{"recovers-after-reject", []float64{1.0, 0.5, 1.5}, []int{200, 400, 200}},
		{"negative-start-ok", []float64{-2, -1}, []int{200, 200}},
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := createSession(t, ts.URL, scene.SessionCreateRequest{})
			for i, at := range tc.times {
				resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/observe", observeBody(t, at))
				if resp.StatusCode != tc.want[i] {
					t.Fatalf("observe %d (t=%v): status = %d, want %d, body %s", i, at, resp.StatusCode, tc.want[i], body)
				}
			}
		})
	}
}

// A session tick must score exactly what stateless /v1/score scores for
// the same bytes: sessions warm-start from the previous tick, stateless
// requests never do, and the warm start is bitwise-identical to cold. The
// recorded traces include the stop-and-go queue's creep pulses and a ring
// platoon that moves every tick, both of which invalidate memoised
// verdicts. Even ticks ask for ?explain=1, which must show the warm start
// engaging; odd ticks must carry no provenance.
func TestSessionTickMatchesStatelessScore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	traces := []struct {
		name  string
		trace func() (roadmap.Map, []scenario.SessionTick)
	}{
		{"stop-and-go", func() (roadmap.Map, []scenario.SessionTick) { return scenario.StopAndGoSession(12, 12) }},
		{"ring", func() (roadmap.Map, []scenario.SessionTick) { return scenario.RingSession(8, 6) }},
	}
	for _, tc := range traces {
		m, trace := tc.trace()
		id := createSession(t, ts.URL, scene.SessionCreateRequest{})
		hits := 0
		for i, tick := range trace {
			sc, err := scene.FromParts(m, tick.Ego, tick.Actors, float64(i)*0.1)
			if err != nil {
				t.Fatal(err)
			}
			body, err := scene.Encode(sc)
			if err != nil {
				t.Fatal(err)
			}
			url := ts.URL + "/v1/sessions/" + id + "/observe"
			explain := i%2 == 0
			if explain {
				url += "?explain=1"
			}
			resp, raw := postJSON(t, url, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s tick %d: observe status %d, body %s", tc.name, i, resp.StatusCode, raw)
			}
			var obs scene.SessionObserveResponse
			if err := json.Unmarshal(raw, &obs); err != nil {
				t.Fatal(err)
			}
			resp, raw = postJSON(t, ts.URL+"/v1/score", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s tick %d: score status %d, body %s", tc.name, i, resp.StatusCode, raw)
			}
			var score scene.ScoreResponse
			if err := json.Unmarshal(raw, &score); err != nil {
				t.Fatal(err)
			}
			if obs.STI != score.Combined || obs.MostThreatening != score.MostThreatening {
				t.Errorf("%s tick %d: session sti %v most_threatening %d, /v1/score combined_sti %v most_threatening %d",
					tc.name, i, obs.STI, obs.MostThreatening, score.Combined, score.MostThreatening)
			}
			if !explain {
				if obs.Provenance != nil {
					t.Errorf("%s tick %d: provenance present without ?explain=1", tc.name, i)
				}
				continue
			}
			if obs.Provenance == nil {
				t.Fatalf("%s tick %d: ?explain=1 returned no provenance", tc.name, i)
			}
			if obs.Provenance.WarmHit {
				if i == 0 {
					t.Errorf("%s: a fresh session warm-hit its first tick", tc.name)
				}
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("%s: no explained tick warm-hit across %d ticks", tc.name, len(trace))
		}
	}
}

// Deleting a warm session and creating a new one must not leak expansion
// state across sessions: the recycled WarmState scores the new session's
// first tick cold.
func TestSessionWarmStateRecycledCold(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/observe", observeBody(t, float64(i)*0.1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Same scene stream on a fresh session: tick 0 must be a cold miss even
	// though the pooled state just scored the identical scene.
	id2 := createSession(t, ts.URL, scene.SessionCreateRequest{})
	r2, raw := postJSON(t, ts.URL+"/v1/sessions/"+id2+"/observe?explain=1", observeBody(t, 0))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("fresh observe: status %d, body %s", r2.StatusCode, raw)
	}
	var obs scene.SessionObserveResponse
	if err := json.Unmarshal(raw, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Provenance == nil {
		t.Fatal("no provenance")
	}
	if obs.Provenance.WarmHit {
		t.Error("recycled WarmState warm-hit a new session's first tick")
	}
}

// metricValue scrapes /metrics and returns the value of the unlabelled
// series name.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s series", name)
	return 0
}

// iprism_server_warm_bytes sums the warm-state bytes of the open sessions:
// it rises when a session's observe fills its memo and falls back to its
// earlier value when that session is deleted and its state pooled.
func TestSessionWarmBytesGauge(t *testing.T) {
	telemetry.Enable()
	_, ts := newTestServer(t, Config{Workers: 1})
	const gauge = "iprism_server_warm_bytes"
	observe := func(id string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/observe", observeBody(t, 0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %s: status %d, body %s", id, resp.StatusCode, body)
		}
	}
	first := createSession(t, ts.URL, scene.SessionCreateRequest{})
	observe(first)
	before := metricValue(t, ts.URL, gauge)
	if before <= 0 {
		t.Fatalf("%s = %v after one observed session, want > 0", gauge, before)
	}

	second := createSession(t, ts.URL, scene.SessionCreateRequest{})
	observe(second)
	if got := metricValue(t, ts.URL, gauge); got <= before {
		t.Fatalf("%s = %v after a second session's observe, want > %v", gauge, got, before)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+second, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := metricValue(t, ts.URL, gauge); got != before {
		t.Errorf("%s = %v after deleting the second session, want %v", gauge, got, before)
	}
}

// Serve never takes the SMC's combined-only fast path
// (sti.Evaluator.Combined), and that path's latency family registers on
// its first call, so after every kind of scoring request serve answers —
// a score, a batch and a session observe — /metrics must not carry it,
// while the family of the path serve does take is there.
func TestServeOmitsCombinedSeconds(t *testing.T) {
	telemetry.Enable()
	_, ts := newTestServer(t, Config{Workers: 1})
	batch, err := json.Marshal(scene.BatchRequest{Scenes: []scene.Scene{testScene(), testScene()}})
	if err != nil {
		t.Fatal(err)
	}
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	for path, body := range map[string][]byte{
		"/v1/score":                       sceneBody(t),
		"/v1/score/batch":                 batch,
		"/v1/sessions/" + id + "/observe": observeBody(t, 0),
	} {
		if resp, out := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "iprism_sti_evaluate_combined_seconds") {
		t.Error("/metrics exports iprism_sti_evaluate_combined_seconds, which serve cannot move")
	}
	if !strings.Contains(buf.String(), "iprism_sti_evaluate_seconds_count") {
		t.Error("/metrics lacks iprism_sti_evaluate_seconds, the scoring path serve takes")
	}
}

// A scene with no in-path actor has +Inf TTC and Dist. CIPA, which JSON
// cannot carry — and by the time the encoder notices, the 200 header is
// already on the wire, so the response body would be silently empty. The
// observe path must apply the stream's documented -1 "no in-path actor"
// encoding before writing.
func TestSessionObserveNonFiniteMetricsWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	sc := testScene()
	sc.Actors = []scene.Actor{
		// Behind the ego and falling back: never in path, TTC and
		// Dist. CIPA both +Inf.
		{ID: 1, Kind: "vehicle", State: scene.State{X: -60, Y: 1.75, Speed: 1}},
	}
	raw, err := scene.Encode(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/observe", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: status %d, body %s", resp.StatusCode, body)
	}
	if len(body) == 0 {
		t.Fatal("observe: empty response body (non-finite metric broke the encoder)")
	}
	var obs scene.SessionObserveResponse
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatalf("observe: body does not parse: %v (%s)", err, body)
	}
	if obs.TTC != -1 {
		t.Errorf("ttc = %v, want -1", obs.TTC)
	}
	if obs.DistCIPA != -1 {
		t.Errorf("dist_cipa = %v, want -1", obs.DistCIPA)
	}
}
