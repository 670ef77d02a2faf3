package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Handle serves one request inside the envelope every serving tier shares:
// X-Trace-Id is ingested (or minted) and echoed with a fresh X-Request-Id
// before h runs, so every answer (400/429/504 included) carries both; h
// sees a Recorder in its context; and h's status is captured. It returns
// the request's wide event and wall time; the caller decides what to
// observe, record and retain.
func Handle(route string, w http.ResponseWriter, r *http.Request, h http.HandlerFunc) (WideEvent, time.Duration) {
	start := time.Now()
	id, honoured := ParseOrNew(r.Header.Get("X-Trace-Id"))
	rec := NewRecorder(id)
	reqID := rec.RootSpanID().String()
	w.Header().Set("X-Trace-Id", id.String())
	w.Header().Set("X-Request-Id", reqID)
	if honoured {
		rec.Annotate("trace_id_source", "caller")
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h(sw, r.WithContext(NewContext(r.Context(), rec)))
	d := time.Since(start)
	return rec.WideEvent(route, reqID, sw.status, d), d
}

// statusWriter captures the response status code. A handler that never
// calls WriteHeader answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE handlers can stream through
// the envelope (a no-op when the connection cannot flush).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// DebugRequestsResponse answers /debug/requests: recent wide events from
// the flight recorder, newest first.
type DebugRequestsResponse struct {
	// Retained is how many events the ring currently holds.
	Retained int         `json:"retained"`
	Requests []WideEvent `json:"requests"`
}

// ServeHTTP serves /debug/requests. ?trace_id=<32 hex> resolves one trace
// (every retained request that carried it, e.g. a session's observe
// stream; 404 when none is retained); ?limit=N bounds the unfiltered
// listing (default 32).
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp := DebugRequestsResponse{Retained: f.Len()}
	if tid := r.URL.Query().Get("trace_id"); tid != "" {
		resp.Requests = f.Find(tid)
		if len(resp.Requests) == 0 {
			writeJSON(w, http.StatusNotFound, errorBody{"trace_id not in flight recorder (evicted or never seen)"})
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	limit := 32
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{"limit must be a positive integer"})
			return
		}
		limit = v
	}
	resp.Requests = f.Recent(limit)
	writeJSON(w, http.StatusOK, resp)
}

// errorBody is the wire format's {"error": ...} body (scene.ErrorResponse),
// declared here because this package imports only the standard library.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
