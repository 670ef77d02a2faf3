package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/scene"
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

// A warm-started server session must answer every observe with exactly the
// risk numbers a cold server answers for the same tick stream, and its
// ?explain=1 provenance must report the warm outcome.
func TestSessionObserveWarmMatchesCold(t *testing.T) {
	_, coldTS := newTestServer(t, Config{Workers: 1})
	_, warmTS := newTestServer(t, Config{Workers: 1, WarmStart: true})
	coldID := createSession(t, coldTS.URL, scene.SessionCreateRequest{})
	warmID := createSession(t, warmTS.URL, scene.SessionCreateRequest{})

	warmHits := 0
	for i := 0; i < 5; i++ {
		body := observeBody(t, float64(i)*0.1)
		_, coldRaw := postJSON(t, coldTS.URL+"/v1/sessions/"+coldID+"/observe", body)
		resp, warmRaw := postJSON(t, warmTS.URL+"/v1/sessions/"+warmID+"/observe?explain=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm observe %d: status %d, body %s", i, resp.StatusCode, warmRaw)
		}
		var cold, warm scene.SessionObserveResponse
		if err := json.Unmarshal(coldRaw, &cold); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(warmRaw, &warm); err != nil {
			t.Fatal(err)
		}
		if warm.STI != cold.STI || warm.TTC != cold.TTC || warm.DistCIPA != cold.DistCIPA ||
			warm.MostThreatening != cold.MostThreatening {
			t.Errorf("tick %d: warm response %+v, cold %+v", i, warm, cold)
		}
		if warm.Provenance == nil {
			t.Fatalf("tick %d: ?explain=1 returned no provenance", i)
		}
		if warm.Provenance.WarmHit {
			warmHits++
		}
		if cold.Provenance != nil {
			t.Errorf("tick %d: provenance leaked without ?explain=1", i)
		}
	}
	// The test scene holds the ego bitwise-static across ticks, so every
	// tick after the first must warm-hit.
	if warmHits != 4 {
		t.Errorf("warm hits = %d across 5 ticks, want 4", warmHits)
	}
}

// Deleting a warm session and creating a new one must not leak expansion
// state across sessions: the recycled WarmState scores the new session's
// first tick cold.
func TestSessionWarmStateRecycledCold(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, WarmStart: true})
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
