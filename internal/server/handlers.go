package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/scene"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// The benchmark module (perfbench/) compiles against these five wire
// types under their server.* names and changes only with a benchmark
// revision, so they stay here as aliases of their scene.* owners. All other
// code uses scene.* directly.
type (
	BatchRequest           = scene.BatchRequest
	BatchResponse          = scene.BatchResponse
	ScoreResponse          = scene.ScoreResponse
	SessionCreateResponse  = scene.SessionCreateResponse
	SessionObserveResponse = scene.SessionObserveResponse
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	// The scoring/session API gets the full observability envelope (wide
	// events, SLO accounting); the health/debug surface propagates trace
	// headers but does not pollute the flight recorder or the SLOs.
	s.mux.HandleFunc("POST /v1/score", s.traced("/v1/score", true, s.handleScore))
	s.mux.HandleFunc("POST /v1/score/batch", s.traced("/v1/score/batch", true, s.handleScoreBatch))
	s.mux.HandleFunc("POST /v1/sessions", s.traced("/v1/sessions", true, s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/sessions/{id}/observe", s.traced("/v1/sessions/observe", true, s.handleSessionObserve))
	s.mux.HandleFunc("GET /v1/sessions/{id}/risk", s.traced("/v1/sessions/risk", true, s.handleSessionRisk))
	// The stream is long-lived, so it skips the wide/SLO envelope (a
	// minutes-long stream is not a latency-SLO violation); its wide event
	// still records the disconnect via the non-wide trace wrapper.
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.traced("/v1/sessions/stream", false, s.handleSessionStream))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.traced("/v1/sessions/delete", true, s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", s.traced("/healthz", false, func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	s.mux.Handle("GET /metrics", telemetry.Default().MetricsHandler())
	s.mux.Handle("GET /debug/telemetry", telemetry.Default().SnapshotHandler())
	s.mux.HandleFunc("GET /debug/requests", s.traced("/debug/requests", false, s.flight.ServeHTTP))
	s.mux.HandleFunc("GET /debug/slo", s.traced("/debug/slo", false, s.handleDebugSLO))
}

// handleScore scores one scene: 200 with a scene.ScoreResponse, 400 on malformed
// input, 429 under backpressure, 504 past the request deadline. ?explain=1
// adds the risk-provenance block to the response.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	sc, ok := s.readScene(w, r)
	if !ok {
		return
	}
	explain := r.URL.Query().Get("explain") == "1"
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, status := s.scoreScene(ctx, sc, explain)
	s.writeJSON(w, status, resp)
}

// handleScoreBatch scores up to MaxBatchScenes scenes from one request.
// Per-scene failures (saturation, invalid road) are reported per result;
// the response is 200 unless every scene was rejected for saturation, in
// which case it degrades to a plain 429 so clients back off.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	var req scene.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("decode batch: %v", err)})
		return
	}
	if len(req.Scenes) == 0 {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: "batch has no scenes"})
		return
	}
	for i := range req.Scenes {
		if err := req.Scenes[i].Validate(); err != nil {
			telRejectedBad.Inc()
			s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("scene %d: %v", i, err)})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Fan the scenes out over the pool as independent jobs and gather.
	resp := scene.BatchResponse{Version: scene.ScoreVersion, Results: make([]scene.ScoreResponse, len(req.Scenes))}
	statuses := make([]int, len(req.Scenes))
	var wg sync.WaitGroup
	for i := range req.Scenes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Results[i], statuses[i] = s.scoreScene(ctx, req.Scenes[i], false)
		}(i)
	}
	wg.Wait()
	saturated := 0
	for _, st := range statuses {
		switch st {
		case http.StatusGatewayTimeout:
			s.writeJSON(w, http.StatusGatewayTimeout, scene.ErrorResponse{Error: "batch deadline exceeded"})
			return
		case http.StatusTooManyRequests:
			saturated++
		}
	}
	if saturated == len(req.Scenes) {
		s.writeJSON(w, http.StatusTooManyRequests, scene.ErrorResponse{Error: "scoring queue full"})
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// scoreScene runs one validated scene through the pool, mapping failures
// onto HTTP statuses. The scene.ScoreResponse always carries a usable body: a
// result on 200, an Error field otherwise (for batch embedding). explain
// attaches the provenance block (per-actor contributions, engine path,
// span waterfall) to successful responses.
func (s *Server) scoreScene(ctx context.Context, sc scene.Scene, explain bool) (scene.ScoreResponse, int) {
	m, ego, actors, trajs, hasTrajs, err := sc.Materialize()
	if err != nil {
		telRejectedBad.Inc()
		return scene.ScoreResponse{Version: scene.ScoreVersion, Error: err.Error()}, http.StatusBadRequest
	}
	res, prov, err := s.score(ctx, m, ego, actors, completeTrajs(s.cfg.Reach, actors, trajs, hasTrajs))
	switch {
	case errors.Is(err, errSaturated):
		telRejectedFull.Inc()
		return scene.ScoreResponse{Version: scene.ScoreVersion, Error: "scoring queue full"}, http.StatusTooManyRequests
	case err != nil:
		return scene.ScoreResponse{Version: scene.ScoreVersion, Error: "deadline exceeded"}, http.StatusGatewayTimeout
	}
	out := scene.ScoreResponse{
		Version:         scene.ScoreVersion,
		Combined:        res.Combined,
		MostThreatening: -1,
		BaseVolume:      res.BaseVolume,
		EmptyVolume:     res.EmptyVolume,
	}
	if idx, _ := res.MostThreatening(); idx >= 0 {
		out.MostThreatening = actors[idx].ID
	}
	out.Actors = make([]scene.ActorScore, len(actors))
	for i, a := range actors {
		out.Actors[i] = scene.ActorScore{ID: a.ID, STI: res.PerActor[i], WithoutVolume: res.WithoutVolume[i]}
	}
	if explain {
		p := wireProvenance(ctx, prov)
		p.Actors = make([]scene.ActorProvenance, len(actors))
		for i, a := range actors {
			p.Actors[i] = scene.ActorProvenance{ID: a.ID, STI: res.PerActor[i], WithoutVolume: res.WithoutVolume[i]}
		}
		out.Provenance = p
	}
	return out, http.StatusOK
}

// wireProvenance maps an evaluation's sti.Provenance onto the versioned
// wire block, stamping the request's trace identifier and span waterfall.
// Shared by stateless scoring and the session observe path.
func wireProvenance(ctx context.Context, prov sti.Provenance) *scene.Provenance {
	rec := trace.FromContext(ctx)
	p := &scene.Provenance{
		TraceID:         rec.TraceID().String(),
		Engine:          prov.Engine,
		CacheState:      prov.CacheState,
		MaskWidth:       prov.MaskWidth,
		MaskWords:       prov.MaskWords,
		ElidedActors:    prov.ElidedActors,
		WarmHit:         prov.WarmHit,
		WarmReused:      prov.WarmReused,
		WarmInvalidated: prov.WarmInvalidated,
	}
	for _, sp := range rec.Spans() {
		p.Spans = append(p.Spans, scene.SpanTiming{Name: sp.Name, StartUS: sp.StartUS, DurUS: sp.DurUS})
	}
	return p
}

// readScene decodes and validates the request body as one scene, answering
// 400/413 itself when it fails.
func (s *Server) readScene(w http.ResponseWriter, r *http.Request) (scene.Scene, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return scene.Scene{}, false
	}
	sc, err := scene.Decode(body)
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return scene.Scene{}, false
	}
	return sc, true
}

// writeJSON answers with a JSON body. 429 responses carry a Retry-After
// estimated from the live queue depth and the observed per-scene scoring
// time, so backed-off clients return when capacity is actually likely.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// queryThreshold parses the ?threshold= risky-interval cut-off (default
// 0.2, the paper's risk threshold for interval extraction).
func queryThreshold(r *http.Request) (float64, error) {
	q := r.URL.Query().Get("threshold")
	if q == "" {
		return 0.2, nil
	}
	v, err := strconv.ParseFloat(q, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("threshold %q must be a number in [0, 1]", q)
	}
	return v, nil
}
