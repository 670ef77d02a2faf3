package iprism

import (
	"repro/internal/server"
)

// Serving facade: the online risk-scoring service from internal/server.
type (
	// RiskServerConfig configures the scoring service. It has no settable
	// fields: the zero value serves with the paper's reach configuration,
	// one scoring worker per GOMAXPROCS and the service's fixed capacity
	// policy (DESIGN.md §7).
	RiskServerConfig = server.Config
	// RiskServer is a running (or startable) scoring service.
	RiskServer = server.Server
)

// NewRiskServer builds the scoring service without binding a listener; use
// its Handler for in-process embedding or Start/Shutdown to serve.
func NewRiskServer(cfg RiskServerConfig) (*RiskServer, error) { return server.New(cfg) }

// ServeRisk builds the service and listens on addr (":0" picks a port; the
// bound address is available from Addr). Stop it with Shutdown, which
// drains every accepted request before returning.
func ServeRisk(addr string, cfg RiskServerConfig) (*RiskServer, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}
