package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/scene"
	"repro/internal/sti"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

// A session wraps one internal/monitor.Monitor — the paper's §V-A/V-B
// online risk assessor — behind HTTP: the client streams observations of a
// rolling episode and queries peak STI and risky intervals at any point.
// Observations are scored on the shared evaluator pool like stateless
// requests, so sessions obey the same backpressure and deadlines.
//
// Each observation is also published as a per-tick risk event to the
// session's SSE subscribers (GET /v1/sessions/{id}/stream, see sse.go): a
// bounded history ring backs Last-Event-ID resume, and subscribers that
// fall too far behind are disconnected rather than allowed to apply
// backpressure to the scoring path.
type session struct {
	ID  string
	mon *monitor.Monitor
	// warm is this session's temporal-coherence state; warmPut returns it
	// to the server's pool exactly once, on close. The monitor holds the
	// same pointer and threads it into every evaluation; the WarmState's
	// own CAS gate keeps concurrent observes of one session safe.
	warm    *sti.WarmState
	warmPut func(*sti.WarmState)

	mu      sync.Mutex
	nextSeq uint64
	history []riskEvent // resume ring, oldest first, capped at historyCap
	subs    map[*streamSub]struct{}
	closed  bool
	// lastTime/hasTime track the admitted tick-time floor: observation
	// times must be strictly increasing within a session (a stale-clock
	// client would otherwise corrupt the monitor's time-indexed windows).
	// The floor advances at admission, before scoring, so a tick that later
	// fails to score still consumes its timestamp.
	lastTime float64
	hasTime  bool
	// warmBytes is the warm state's Bytes() as last added to the table's
	// total; close takes it back out.
	warmBytes int64

	historyCap int
}

// sessionTable is the registry of open sessions.
type sessionTable struct {
	mu   sync.Mutex
	next int
	max  int
	m    map[string]*session
	// warmBytes sums the open sessions' warm-state bytes (the
	// server.warm.bytes gauge).
	warmBytes int64
}

func (t *sessionTable) init(max int) {
	t.max = max
	t.m = make(map[string]*session)
}

var (
	errSessionLimit  = errors.New("session limit reached")
	errSessionExists = errors.New("session id already exists")
)

// create registers a session. id is the client-assigned identifier (the
// gateway tier names sessions so consistent-hash routing needs no shared
// state); empty means the server mints one.
func (t *sessionTable) create(mon *monitor.Monitor, id string, historyCap int, warm *sti.WarmState, warmPut func(*sti.WarmState)) (*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) >= t.max {
		return nil, errSessionLimit
	}
	if id == "" {
		t.next++
		id = fmt.Sprintf("s%06d", t.next)
	} else if _, ok := t.m[id]; ok {
		return nil, errSessionExists
	}
	s := &session{
		ID:         id,
		mon:        mon,
		warm:       warm,
		warmPut:    warmPut,
		subs:       make(map[*streamSub]struct{}),
		historyCap: historyCap,
	}
	t.m[s.ID] = s
	telSessionsGauge.Set(float64(len(t.m)))
	return s, nil
}

func (t *sessionTable) get(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[id]
	return s, ok
}

func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	s, ok := t.m[id]
	if !ok {
		t.mu.Unlock()
		return false
	}
	delete(t.m, id)
	telSessionsGauge.Set(float64(len(t.m)))
	t.mu.Unlock()
	t.addWarm(-s.close())
	return true
}

// closeAll ends every session's streams (server shutdown).
func (t *sessionTable) closeAll() {
	t.mu.Lock()
	ss := make([]*session, 0, len(t.m))
	for _, s := range t.m {
		ss = append(ss, s)
	}
	t.mu.Unlock()
	for _, s := range ss {
		t.addWarm(-s.close())
	}
}

// addWarm moves the open sessions' warm-state total by delta bytes.
func (t *sessionTable) addWarm(delta int64) {
	if delta == 0 {
		return
	}
	t.mu.Lock()
	t.warmBytes += delta
	telWarmBytes.Set(float64(t.warmBytes))
	t.mu.Unlock()
}

// noteWarm records the size of the session's warm state after an observe
// and returns the change since the last record; a closed session, whose
// state is back in the pool, records nothing.
func (sess *session) noteWarm() int64 {
	b := sess.warm.Bytes()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return 0
	}
	d := b - sess.warmBytes
	sess.warmBytes = b
	return d
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req scene.SessionCreateRequest
	// An empty body opens a default session; a malformed one is a 400.
	if err := decodeJSONBody(w, r, &req); err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	if req.Stride < 0 {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: "stride must be >= 0"})
		return
	}
	if err := validSessionID(req.ID); err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	// Sessions share the pool's evaluators: observations are scored by
	// whichever worker picks the job up, so the monitor only needs an
	// evaluator for its reach configuration. The warm-start state, by
	// contrast, is strictly per-session — it is attached to this session's
	// monitor alone and returned to the pool when the session closes.
	mon := monitor.NewWithEvaluator(s.pool[0])
	warm := s.warmPool.Get().(*sti.WarmState)
	mon.SetWarmState(warm)
	sess, err := s.sessions.create(mon, req.ID, s.cfg.sseHistory, warm, s.putWarm)
	if err != nil {
		s.putWarm(warm)
	}
	switch {
	case errors.Is(err, errSessionExists):
		s.writeJSON(w, http.StatusConflict, scene.ErrorResponse{Error: err.Error()})
		return
	case err != nil:
		s.writeJSON(w, http.StatusTooManyRequests, scene.ErrorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusCreated, scene.SessionCreateResponse{ID: sess.ID})
}

// validSessionID bounds client-assigned session IDs to a path- and
// log-safe charset.
func validSessionID(id string) error {
	if len(id) > 64 {
		return errors.New("session id longer than 64 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return fmt.Errorf("session id byte %d outside [A-Za-z0-9_.-]", i)
		}
	}
	return nil
}

func (s *Server) handleSessionObserve(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown session"})
		return
	}
	sc, ok := s.readScene(w, r)
	if !ok {
		return
	}
	m, ego, actors, trajs, hasTrajs, err := sc.Materialize()
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	if err := sess.admitTime(sc.Time); err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout)
	defer cancel()
	rec := trace.FromContext(ctx)
	enq := time.Now()
	var sample monitor.Sample
	var prov sti.Provenance
	j, err := s.submit(ctx, func(ev *sti.Evaluator) {
		rec.Annotate("queue_wait_seconds", time.Since(enq).Seconds())
		t := telScoreSecs.Start()
		start := time.Now()
		sp := rec.StartSpan("server.observe")
		sample, prov = sess.mon.Observe(ctx, m, ego, vehicle.DefaultParams(), actors, completeTrajs(s.reach, actors, trajs, hasTrajs), sc.Time)
		sp.End()
		t.Stop()
		s.noteScore(time.Since(start))
		telScenes.Inc()
	})
	if err != nil {
		telRejectedFull.Inc()
		s.writeJSON(w, http.StatusTooManyRequests, scene.ErrorResponse{Error: "scoring queue full"})
		return
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		telTimeouts.Inc()
		s.writeJSON(w, http.StatusGatewayTimeout, scene.ErrorResponse{Error: "deadline exceeded"})
		return
	}
	s.sessions.addWarm(sess.noteWarm())
	resp := scene.SessionObserveResponse{
		Version:         scene.ScoreVersion,
		Time:            sample.Time,
		STI:             sample.STI,
		TTC:             sample.TTC,
		DistCIPA:        sample.DistCIPA,
		MostThreatening: sample.MostThreatening,
	}
	sanitizeNonFinite(&resp)
	resp.Seq = sess.publish(resp)
	// The provenance block rides only the HTTP response: attaching it after
	// publish keeps SSE risk events lean for every subscriber.
	if r.URL.Query().Get("explain") == "1" {
		resp.Provenance = wireProvenance(ctx, prov)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// admitTime admits an observation's tick time under the session's
// monotonic clock: NaN is never admissible, and a time below the last
// admitted one is rejected (a stale-clock client would silently corrupt
// the monitor's time-indexed windows — PeakSTI intervals, SSE resume
// order). Equal times are admitted: clients that omit the optional
// scene time send 0 on every tick, and nothing downstream needs the
// clock to advance — warm-start invalidation is driven by actor
// placement diffs, not timestamps. The floor advances on admission, so
// a tick that later fails to score still consumes its timestamp.
func (sess *session) admitTime(t float64) error {
	if math.IsNaN(t) {
		return errors.New("observation time is NaN")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.hasTime && t < sess.lastTime {
		return fmt.Errorf("observation time %v is before the session's last tick %v", t, sess.lastTime)
	}
	sess.lastTime, sess.hasTime = t, true
	return nil
}

func (s *Server) handleSessionRisk(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown session"})
		return
	}
	threshold, err := queryThreshold(r)
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	intervals := sess.mon.RiskyIntervals(threshold)
	if intervals == nil {
		intervals = [][2]float64{}
	}
	s.writeJSON(w, http.StatusOK, scene.SessionRiskResponse{
		Version:        scene.ScoreVersion,
		Samples:        sess.mon.Len(),
		PeakSTI:        sess.mon.PeakSTI(),
		Threshold:      threshold,
		RiskyIntervals: intervals,
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		s.writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown session"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// decodeJSONBody decodes an optional JSON body into v; an empty body
// leaves v at its zero value.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, scene.MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	if len(body) == 0 {
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	return nil
}
