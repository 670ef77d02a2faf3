package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/scene"
	"repro/internal/telemetry"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID    uint64
	Event string
	Data  string
}

// streamReader pumps one SSE response body on a single goroutine so
// successive readSSE calls never race on the underlying reader.
type streamReader struct {
	lines chan string
	errs  chan error
}

func newStreamReader(r *bufio.Reader) *streamReader {
	sr := &streamReader{lines: make(chan string, 64), errs: make(chan error, 1)}
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				sr.errs <- err
				return
			}
			sr.lines <- strings.TrimRight(line, "\n")
		}
	}()
	return sr
}

// readSSE parses events off an open stream until n events arrived or the
// deadline passed. Comments (heartbeats, preambles) are skipped.
func readSSE(t *testing.T, sr *streamReader, n int, deadline time.Duration) []sseEvent {
	t.Helper()
	done := time.After(deadline)
	var events []sseEvent
	cur := sseEvent{}
	for len(events) < n {
		select {
		case line := <-sr.lines:
			switch {
			case strings.HasPrefix(line, ":"):
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
				if err != nil {
					t.Fatalf("bad id line %q: %v", line, err)
				}
				cur.ID = id
			case strings.HasPrefix(line, "event: "):
				cur.Event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.Data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if cur.Data != "" {
					events = append(events, cur)
					cur = sseEvent{}
				}
			}
		case err := <-sr.errs:
			t.Fatalf("stream read after %d/%d events: %v", len(events), n, err)
		case <-done:
			t.Fatalf("deadline with %d/%d events", len(events), n)
		}
	}
	return events
}

// openStream connects to a session's SSE stream and fails on a non-200.
func openStream(t *testing.T, url, lastEventID string) (*http.Response, *streamReader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	return resp, newStreamReader(bufio.NewReader(resp.Body))
}

func createSession(t *testing.T, base string, req scene.SessionCreateRequest) string {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, body := postJSON(t, base+"/v1/sessions", raw)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d body %s", resp.StatusCode, body)
	}
	var created scene.SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

func observeAt(t *testing.T, base, id string, at float64) scene.SessionObserveResponse {
	t.Helper()
	sc := testScene()
	sc.Time = at
	raw, _ := scene.Encode(sc)
	resp, body := postJSON(t, base+"/v1/sessions/"+id+"/observe", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status = %d body %s", resp.StatusCode, body)
	}
	var obs scene.SessionObserveResponse
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	return obs
}

// TestSessionStreamLiveEvents: a connected stream receives one risk event
// per observation, with monotonically increasing IDs matching the observe
// responses' seq.
func TestSessionStreamLiveEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	resp, r := openStream(t, ts.URL+"/v1/sessions/"+id+"/stream", "")
	defer resp.Body.Close()

	var seqs []uint64
	for i := 0; i < 3; i++ {
		obs := observeAt(t, ts.URL, id, float64(i))
		seqs = append(seqs, obs.Seq)
	}
	events := readSSE(t, r, 3, 10*time.Second)
	for i, ev := range events {
		if ev.Event != "risk" {
			t.Errorf("event %d type = %q, want risk", i, ev.Event)
		}
		if ev.ID != seqs[i] {
			t.Errorf("event %d id = %d, want %d", i, ev.ID, seqs[i])
		}
		var obs scene.SessionObserveResponse
		if err := json.Unmarshal([]byte(ev.Data), &obs); err != nil {
			t.Fatalf("event %d data %q: %v", i, ev.Data, err)
		}
		if obs.Seq != ev.ID {
			t.Errorf("event %d data seq = %d, want %d", i, obs.Seq, ev.ID)
		}
		if obs.Time != float64(i) {
			t.Errorf("event %d time = %v, want %v", i, obs.Time, float64(i))
		}
	}
}

// TestSessionStreamResume: a client reconnecting with Last-Event-ID gets
// exactly the events it missed.
func TestSessionStreamResume(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	for i := 0; i < 4; i++ {
		observeAt(t, ts.URL, id, float64(i))
	}
	resp, r := openStream(t, ts.URL+"/v1/sessions/"+id+"/stream", "2")
	defer resp.Body.Close()
	events := readSSE(t, r, 2, 10*time.Second)
	if events[0].ID != 3 || events[1].ID != 4 {
		t.Fatalf("resumed ids = %d,%d, want 3,4", events[0].ID, events[1].ID)
	}
	// New observations keep flowing after the replay.
	obs := observeAt(t, ts.URL, id, 9)
	more := readSSE(t, r, 1, 10*time.Second)
	if more[0].ID != obs.Seq {
		t.Fatalf("live id after resume = %d, want %d", more[0].ID, obs.Seq)
	}

	// The query-parameter form resumes identically (for header-less clients).
	resp2, r2 := openStream(t, ts.URL+"/v1/sessions/"+id+"/stream?last_event_id=4", "")
	defer resp2.Body.Close()
	ev := readSSE(t, r2, 1, 10*time.Second)
	if ev[0].ID != 5 {
		t.Fatalf("query resume id = %d, want 5", ev[0].ID)
	}
}

// TestSessionStreamHistoryGap: a cursor older than the resume ring
// replays from the oldest retained event instead of failing.
func TestSessionStreamHistoryGap(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1, sseHistory: 2})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	for i := 0; i < 5; i++ {
		observeAt(t, ts.URL, id, float64(i))
	}
	resp, r := openStream(t, ts.URL+"/v1/sessions/"+id+"/stream", "1")
	defer resp.Body.Close()
	events := readSSE(t, r, 2, 10*time.Second)
	if events[0].ID != 4 || events[1].ID != 5 {
		t.Fatalf("gap replay ids = %d,%d, want 4,5 (history cap 2)", events[0].ID, events[1].ID)
	}
}

// TestSlowSubscriberKicked: a subscriber whose bounded buffer is full is
// disconnected on the next publish — publishing never blocks on a slow
// stream consumer — while healthy subscribers keep receiving.
func TestSlowSubscriberKicked(t *testing.T) {
	sess := &session{ID: "x", subs: map[*streamSub]struct{}{}, historyCap: 8}
	slow, _, _, ok := sess.subscribe(0, 2)
	if !ok {
		t.Fatal("subscribe on open session failed")
	}
	healthy, _, _, _ := sess.subscribe(0, 16)
	for i := 0; i < 3; i++ {
		sess.publish(scene.SessionObserveResponse{Time: float64(i)})
	}
	select {
	case <-slow.drop:
	default:
		t.Fatal("slow subscriber not kicked after buffer overflow")
	}
	sess.mu.Lock()
	_, stillThere := sess.subs[slow]
	subs := len(sess.subs)
	sess.mu.Unlock()
	if stillThere || subs != 1 {
		t.Fatalf("subscriber table after kick: slow present=%v len=%d", stillThere, subs)
	}
	if got := len(healthy.events); got != 3 {
		t.Fatalf("healthy subscriber buffered %d events, want 3", got)
	}
	// The third event was published while the slow consumer was being
	// kicked; sequence numbering stays monotone.
	ev := <-healthy.events
	if ev.Seq != 1 {
		t.Fatalf("first event seq = %d, want 1", ev.Seq)
	}
}

// TestSessionStreamEndsOnDelete: deleting the session terminates its
// streams promptly.
func TestSessionStreamEndsOnDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{})
	resp, r := openStream(t, ts.URL+"/v1/sessions/"+id+"/stream", "")
	defer resp.Body.Close()
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-r.lines: // drain the close comment
		case <-r.errs:
			return // stream ended
		case <-deadline:
			t.Fatal("stream did not end after session delete")
		}
	}
}

// TestSessionCreateWithID pins client-assigned session IDs: round-trip,
// conflict on reuse, and charset validation.
func TestSessionCreateWithID(t *testing.T) {
	_, ts := newTestServer(t, Config{workers: 1})
	id := createSession(t, ts.URL, scene.SessionCreateRequest{ID: "gw-abc_1.2"})
	if id != "gw-abc_1.2" {
		t.Fatalf("created id = %q, want the requested one", id)
	}
	raw, _ := json.Marshal(scene.SessionCreateRequest{ID: "gw-abc_1.2"})
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", raw)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id status = %d, want 409", resp.StatusCode)
	}
	for _, bad := range []string{"has space", "slash/y", strings.Repeat("x", 65)} {
		raw, _ := json.Marshal(scene.SessionCreateRequest{ID: bad})
		resp, _ := postJSON(t, ts.URL+"/v1/sessions", raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("id %q status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestBatchSizeObservedNotCap pins the satellite bugfix: at low load a
// worker wake-up drains one job, and the server.batch.size histogram must
// record 1, not the batchMax cap.
func TestBatchSizeObservedNotCap(t *testing.T) {
	telemetry.Enable()
	telBatchSize.Reset()
	_, ts := newTestServer(t, Config{workers: 1})
	for i := 1; i <= 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/score", sceneBody(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score status = %d body %s", resp.StatusCode, body)
		}
		// The response can arrive before the worker leaves its drain
		// select (runJob signals the job done first), so a request sent
		// right away could be drained into the same wake-up. Wait until
		// the worker has recorded this request's wake-up before sending
		// the next one.
		for deadline := time.Now().Add(5 * time.Second); telBatchSize.Count() < uint64(i); {
			if time.Now().After(deadline) {
				t.Fatalf("batch size count = %d after %d sequential requests", telBatchSize.Count(), i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Sequential requests: each wake-up drained exactly one job, so every
	// observation must be 1. Max lives in the histogram stats snapshot.
	snap := snapshotHistogram(t, "server.batch.size")
	if snap.Count == 0 {
		t.Fatal("no batch size observed")
	}
	if snap.Max > 1 {
		t.Fatalf("batch size max = %v after sequential low-load requests, want 1 (batchMax leak)", snap.Max)
	}
}

// TestScoreTimeoutRace pins the satellite bugfix: a request whose deadline
// expires while the pool worker is mid-evaluation must not race on the
// result variables (run under -race) and must return zero values.
func TestScoreTimeoutRace(t *testing.T) {
	s, err := New(Config{workers: 1, requestTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	// A heavy scene: many actors so one evaluation outlives the deadline.
	sc := testScene()
	for i := 3; i < 40; i++ {
		sc.Actors = append(sc.Actors, scene.Actor{
			ID: i, Kind: "vehicle",
			State: scene.State{X: float64(20 + 3*i), Y: 1.75, Speed: 2},
		})
	}
	m, ego, actors, _, _, err := sc.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		// The deadline starts now, so the worker is typically still
		// evaluating when it fires — the racy window of the old code.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		res, prov, err := s.score(ctx, m, ego, actors, nil)
		cancel()
		if err == nil {
			continue // fast machine scored in time; nothing to check
		}
		if res.Combined != 0 || len(res.PerActor) != 0 || prov.Engine != "" {
			t.Fatalf("timeout returned non-zero result %v / provenance %+v", res, prov)
		}
	}
}

func snapshotHistogram(t *testing.T, name string) telemetry.HistogramStats {
	t.Helper()
	h, ok := telemetry.Default().Snapshot().Histograms[name]
	if !ok {
		t.Fatalf("histogram %s not in snapshot", name)
	}
	return h
}
