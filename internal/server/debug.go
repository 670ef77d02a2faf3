package server

import (
	"net/http"

	"repro/internal/telemetry"
)

// DebugSLOResponse answers /debug/slo: the live multi-window burn-rate
// status of every declared objective.
type DebugSLOResponse struct {
	SLOs []telemetry.SLOStatus `json:"slos"`
}

// handleDebugSLO serves the burn-rate view of the serving objectives.
func (s *Server) handleDebugSLO(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, DebugSLOResponse{
		SLOs: []telemetry.SLOStatus{s.sloAvailability.Status(), s.sloLatency.Status()},
	})
}
