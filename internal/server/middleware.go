package server

import (
	"math"
	"net/http"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// traced wraps an endpoint with the request-observability envelope
// (trace.Handle: X-Trace-Id ingested or minted and echoed with
// X-Request-Id on every answer, a trace.Recorder in the context for the
// evaluator layers to annotate) and observes the request latency with the
// trace ID as exemplar, so a p99 histogram bucket resolves to a replayable
// request. When wide is set (the scoring/session API, not the debug
// surface) it also records the request against both SLOs, appends its wide
// event to the flight recorder, and journals it as event "wide_event".
func (s *Server) traced(route string, wide bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		telRequests.Inc()
		ev, d := trace.Handle(route, w, r, h)
		telRequestSecs.ObserveExemplar(d.Seconds(), ev.TraceID)
		if !wide {
			return
		}
		// Availability counts deliberate backpressure (429) as good — the
		// service answered as designed; only 5xx burns that budget. Latency
		// is judged against sloLatencyTarget.
		s.sloAvailability.Record(ev.Status < http.StatusInternalServerError)
		s.sloLatency.Record(d <= sloLatencyTarget)
		s.flight.Add(ev)
		telemetry.Emit("wide_event", ev.Fields())
	}
}

// noteScore feeds one scene-scoring duration into the EWMA backing
// Retry-After estimates.
func (s *Server) noteScore(d time.Duration) {
	const alpha = 8 // EWMA weight 1/8 on the newest sample
	for {
		old := s.avgScoreNS.Load()
		nw := old + (d.Nanoseconds()-old)/alpha
		if old == 0 {
			nw = d.Nanoseconds()
		}
		if s.avgScoreNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the queued backlog divided over the workers (ceiling division — a queue
// of exactly w×k jobs drains in k batches, not k+1, and an empty queue is
// zero batches), priced at the observed per-scene EWMA, clamped to [1, 30]
// seconds. A cold server (no scenes scored yet) assumes 50ms per scene.
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.avgScoreNS.Load())
	if avg <= 0 {
		avg = 50 * time.Millisecond
	}
	workers := s.cfg.workers
	backlog := (len(s.jobs) + workers - 1) / workers
	secs := int(math.Ceil((time.Duration(backlog) * avg).Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
