package gateway

import (
	"encoding/json"
	"net/http"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// traced wraps a gateway endpoint in the same observability envelope as
// the backends (trace.Handle: X-Trace-Id ingested or minted and echoed, a
// Recorder in the context), observes the proxy latency histogram with the
// trace ID as exemplar, and — when wide is set — retains one wide event in
// the flight recorder. The same trace ID is forwarded to the chosen backend
// on every proxied hop, so a gateway /debug/requests entry and the
// backend's entry for the same request share an ID and can be joined end
// to end.
func (g *Gateway) traced(route string, wide bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		telRequests.Inc()
		ev, d := trace.Handle(route, w, r, h)
		telProxySecs.ObserveExemplar(d.Seconds(), ev.TraceID)
		if !wide {
			return
		}
		g.flight.Add(ev)
		telemetry.Emit("wide_event", ev.Fields())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// DebugBackendsResponse answers /debug/backends: the live fleet view.
type DebugBackendsResponse struct {
	Healthy  int             `json:"healthy"`
	Backends []BackendStatus `json:"backends"`
}

func (g *Gateway) handleDebugBackends(w http.ResponseWriter, _ *http.Request) {
	resp := DebugBackendsResponse{Healthy: g.healthyCount()}
	for _, b := range g.backends {
		resp.Backends = append(resp.Backends, b.status())
	}
	sort.Slice(resp.Backends, func(i, j int) bool { return resp.Backends[i].Index < resp.Backends[j].Index })
	writeJSON(w, http.StatusOK, resp)
}
