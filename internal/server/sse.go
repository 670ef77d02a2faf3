package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Server-sent risk streaming: GET /v1/sessions/{id}/stream pushes one SSE
// event per recorded observation instead of making clients poll
// /v1/sessions/{id}/risk. Wire contract:
//
//   - every event is `event: risk` with `id: <seq>` and a
//     scene.SessionObserveResponse JSON `data:` payload (Seq matches the id
//     line; non-finite TTC/DistCIPA are encoded as -1, meaning "no
//     in-path actor", since JSON has no Inf);
//   - a client reconnecting with `Last-Event-ID: <seq>` (or
//     ?last_event_id=<seq>) is replayed every retained event after seq —
//     the per-session history ring holds Config.SSEHistory events, and a
//     cursor that has fallen off the ring resumes from the oldest
//     retained event after a `: resume gap` comment;
//   - an idle stream carries `: hb` comment heartbeats every
//     Config.SSEHeartbeat so intermediaries don't time it out;
//   - each subscriber has a bounded event buffer (Config.SSEBuffer); a
//     consumer that falls that far behind is disconnected (the scoring
//     path never blocks on a slow stream reader);
//   - the stream ends when the session is deleted or the server drains.
var (
	telStreamsGauge  = telemetry.NewGauge("server.sse.streams")
	telStreamEvents  = telemetry.NewCounter("server.sse.events")
	telStreamDropped = telemetry.NewCounter("server.sse.slow_disconnects")
)

// riskEvent is one published observation: the SSE id (seq) and the
// pre-marshalled data payload.
type riskEvent struct {
	Seq  uint64
	Data []byte
}

// streamSub is one connected stream client. events is the bounded buffer;
// drop is closed when the subscriber is kicked (slow consumer) or the
// session closes, after which no more sends happen.
type streamSub struct {
	events chan riskEvent
	drop   chan struct{}
}

// sanitizeNonFinite rewrites the metrics JSON cannot carry: TTC and
// Dist. CIPA are +Inf when no in-path actor exists, and encoding/json
// rejects non-finite numbers — after the 200 header is out, that failure
// would truncate the response to an empty body. -1 is the documented "no
// in-path actor" wire encoding on both the observe response and the SSE
// stream.
func sanitizeNonFinite(r *scene.SessionObserveResponse) {
	if math.IsInf(r.TTC, 0) || math.IsNaN(r.TTC) {
		r.TTC = -1
	}
	if math.IsInf(r.DistCIPA, 0) || math.IsNaN(r.DistCIPA) {
		r.DistCIPA = -1
	}
}

// publish assigns the next sequence number, stores the event in the resume
// ring, and fans it out to subscribers. Subscribers whose buffer is full
// are disconnected rather than waited on. Returns the assigned seq.
func (sess *session) publish(resp scene.SessionObserveResponse) uint64 {
	sanitizeNonFinite(&resp)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return sess.nextSeq
	}
	sess.nextSeq++
	resp.Seq = sess.nextSeq
	data, err := json.Marshal(resp)
	if err != nil {
		return resp.Seq // unreachable with sanitised floats; keep seq monotone
	}
	ev := riskEvent{Seq: resp.Seq, Data: data}
	sess.history = append(sess.history, ev)
	if n := len(sess.history); n > sess.historyCap {
		// Slide rather than reslice so the backing array doesn't grow
		// without bound over a long session.
		copy(sess.history, sess.history[n-sess.historyCap:])
		sess.history = sess.history[:sess.historyCap]
	}
	for sub := range sess.subs {
		select {
		case sub.events <- ev:
		default:
			telStreamDropped.Inc()
			delete(sess.subs, sub)
			close(sub.drop)
		}
	}
	return resp.Seq
}

// subscribe registers a stream client and returns the events to replay:
// every retained event with Seq > after. gapped reports that `after` has
// already fallen off the resume ring.
func (sess *session) subscribe(after uint64, buffer int) (sub *streamSub, replay []riskEvent, gapped bool, ok bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, nil, false, false
	}
	sub = &streamSub{events: make(chan riskEvent, buffer), drop: make(chan struct{})}
	sess.subs[sub] = struct{}{}
	if len(sess.history) > 0 && after > 0 && sess.history[0].Seq > after+1 {
		gapped = true
	}
	for _, ev := range sess.history {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	return sub, replay, gapped, true
}

func (sess *session) unsubscribe(sub *streamSub) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if _, live := sess.subs[sub]; live {
		delete(sess.subs, sub)
		close(sub.drop)
	}
}

// close ends the session's streams — marks it closed and disconnects every
// subscriber — and returns the session's warm-start state to the server
// pool (closed guards the release: close is called at most once effectively,
// so the state is returned exactly once).
func (sess *session) close() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return
	}
	sess.closed = true
	for sub := range sess.subs {
		delete(sess.subs, sub)
		close(sub.drop)
	}
	if sess.warm != nil && sess.warmPut != nil {
		sess.warmPut(sess.warm)
		sess.warm = nil
	}
}

// handleSessionStream serves the SSE risk stream for one session.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown session"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusInternalServerError, scene.ErrorResponse{Error: "streaming unsupported by connection"})
		return
	}
	after, err := lastEventID(r)
	if err != nil {
		telRejectedBad.Inc()
		s.writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	sub, replay, gapped, live := sess.subscribe(after, s.cfg.SSEBuffer)
	if !live {
		s.writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "session closed"})
		return
	}
	defer sess.unsubscribe(sub)
	telStreamsGauge.Set(float64(s.activeStreams.Add(1)))
	defer func() { telStreamsGauge.Set(float64(s.activeStreams.Add(-1))) }()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Del("Content-Length")
	w.WriteHeader(http.StatusOK)
	if gapped {
		fmt.Fprintf(w, ": resume gap — events before seq %d evicted\n\n", replayStart(replay))
	} else {
		fmt.Fprint(w, ": stream open\n\n")
	}
	sent := 0
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
		sent++
	}
	fl.Flush()

	rec := trace.FromContext(r.Context())
	defer func() { rec.Annotate("sse_events_sent", sent) }()
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev := <-sub.events:
			if writeSSE(w, ev) != nil {
				return
			}
			sent++
			// Drain whatever else is already buffered before flushing once.
			for more := true; more; {
				select {
				case ev := <-sub.events:
					if writeSSE(w, ev) != nil {
						return
					}
					sent++
				default:
					more = false
				}
			}
			fl.Flush()
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-sub.drop:
			// Slow consumer kick or session close; say why, then hang up.
			fmt.Fprint(w, ": stream closed\n\n")
			fl.Flush()
			rec.Annotate("sse_closed", "dropped")
			return
		case <-s.closing:
			fmt.Fprint(w, ": server draining\n\n")
			fl.Flush()
			rec.Annotate("sse_closed", "drain")
			return
		case <-r.Context().Done():
			rec.Annotate("sse_closed", "client")
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev riskEvent) error {
	telStreamEvents.Inc()
	_, err := fmt.Fprintf(w, "id: %d\nevent: risk\ndata: %s\n\n", ev.Seq, ev.Data)
	return err
}

func replayStart(replay []riskEvent) uint64 {
	if len(replay) == 0 {
		return 0
	}
	return replay[0].Seq
}

// lastEventID extracts the resume cursor: the standard Last-Event-ID
// header (set by EventSource on reconnect), or ?last_event_id= for
// clients that cannot set headers. 0 means "from now".
func lastEventID(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("last_event_id"); q != "" {
		raw = q
	}
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("last event id %q is not a sequence number", raw)
	}
	return v, nil
}
